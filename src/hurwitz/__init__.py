"""Exact counting of almost-simple ramified coverings of the sphere.

Three independent routes to the same numbers: direct enumeration and a
class-vector recurrence (oracle), a cut-and-join PDE pipeline over exact
sparse polynomials (engine), and closed forms with embedded coefficient
tables (formulas).  The package exists so the routes can be played
against each other; every computed value is certified by at least two.
"""

from .algebra.poly import SparsePoly
from .engine import (
    Cell,
    Engine,
    extract_f,
    psi0_base,
    solve_pde,
)
from .errors import (
    BudgetExceeded,
    CertificationError,
    HurwitzError,
    InconsistentSystem,
    NonzeroRemainder,
    NotSymmetric,
    NotVanishing,
    ResidualNonzero,
    RouteDisagreement,
)
from .formulas import (
    HurwitzCount,
    a_sequence,
    f1_conjecture,
    f1_simple,
    f_genus0,
    f_one_part,
    f_table,
    f_table_eval,
    hurwitz,
    mu0_simple,
    pg_mu1,
)
from .oracle import (
    FactorizationTable,
    all_counts,
    c_count,
    dfs_count,
    mu_count,
    transitive_counts,
)
from .partitions import Partition, class_size, partitions

__version__ = "0.1.0"

__all__ = [
    "SparsePoly",
    "Cell",
    "Engine",
    "extract_f",
    "psi0_base",
    "solve_pde",
    "HurwitzError",
    "BudgetExceeded",
    "CertificationError",
    "InconsistentSystem",
    "NonzeroRemainder",
    "NotSymmetric",
    "NotVanishing",
    "ResidualNonzero",
    "RouteDisagreement",
    "HurwitzCount",
    "a_sequence",
    "f1_conjecture",
    "f1_simple",
    "f_genus0",
    "f_one_part",
    "f_table",
    "f_table_eval",
    "hurwitz",
    "mu0_simple",
    "pg_mu1",
    "FactorizationTable",
    "all_counts",
    "c_count",
    "dfs_count",
    "mu_count",
    "transitive_counts",
    "Partition",
    "class_size",
    "partitions",
]
