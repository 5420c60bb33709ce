"""Exact counting of almost-simple ramified coverings of the sphere.

Three independent routes to the same numbers: direct enumeration and a
class-vector recurrence (oracle), a cut-and-join PDE pipeline over exact
sparse polynomials (engine), and closed forms with embedded coefficient
tables (formulas).  The package exists so the routes can be played
against each other; every computed value is certified by at least two.

The top level re-exports the five names of the README's Library example;
every other name is imported from its module (`hurwitz.engine`,
`hurwitz.formulas`, `hurwitz.oracle`, `hurwitz.errors`, ...).
"""

from .engine import Engine
from .formulas import f_table_eval, hurwitz
from .oracle import c_count
from .partitions import Partition

__version__ = "0.1.0"

__all__ = ["Engine", "Partition", "c_count", "hurwitz", "f_table_eval"]
