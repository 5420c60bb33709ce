"""Reference implementations kept only as independent cross-checks of
the package's live code paths."""

import math
from fractions import Fraction
from typing import Dict, List, Tuple

from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import TruncSeries, w_power_x_table
from hurwitz.partitions import Partition, class_size


def compose_with_tree(s: TruncSeries, order: int) -> TruncSeries:
    """Substitute w_i = w(x_i) into a w-jet; result is an x-jet to x^order.

    A variable-by-variable substitution, where x_coefficient sums
    products of the same table over the whole box at once.  [x^a] w^d
    vanishes for d > a, so the jet must carry w-data up to order.
    """
    if s.kind != "W":
        raise ValueError("compose_with_tree wants a W jet")
    if s.per_var_cap < order or s.total_cap < order:
        raise ValueError("jet caps too small for the requested x order")
    table = w_power_x_table(order, order)
    terms: dict = dict(s.base.terms)
    for var in range(s.arity):
        out: dict = {}
        for e, c in terms.items():
            d = e[var]
            if d > order:
                continue
            acap = min(order, order - (sum(e) - d))
            for a in range(d, acap + 1):
                ne = e[:var] + (a,) + e[var + 1:]
                out[ne] = out.get(ne, 0) + c * table[d][a]
        terms = out
    return TruncSeries(SparsePoly("X", s.arity, terms), order, order)


Slice = Dict[Tuple[int, tuple], Fraction]  # key: (j, parts); weight n is the slice index


def _slice_mul(a: Slice, b: Slice, j_max: int) -> Slice:
    out: Slice = {}
    for (j1, p1), c1 in a.items():
        for (j2, p2), c2 in b.items():
            j = j1 + j2
            if j > j_max:
                continue
            key = (j, tuple(sorted(p1 + p2, reverse=True)))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def log_sieve(table) -> dict:
    """Transitive entries of a complete all-mode table, as the formal
    logarithm of its exponential series.

    The weight of the all-mode entry c at (n, j, alpha) is
    c |C_alpha| / (n! j!); the logarithm is taken slice by slice in n
    with the recurrence n L_n = n F_n - sum_{k<n} k L_k F_{n-k}.
    """
    n_max = max(k[0] for k in table.entries)
    j_max = max(k[1] for k in table.entries)
    F: List[Slice] = [dict() for _ in range(n_max + 1)]
    for (n, j, lam), c in table.entries.items():
        if c:
            F[n][(j, lam.parts)] = Fraction(
                c * class_size(lam), math.factorial(n) * math.factorial(j)
            )
    L: List[Slice] = [dict() for _ in range(n_max + 1)]
    entries = {}
    for n in range(1, n_max + 1):
        acc: Slice = {key: n * c for key, c in F[n].items()}
        for k in range(1, n):
            for key, c in _slice_mul(L[k], F[n - k], j_max).items():
                acc[key] = acc.get(key, 0) - k * c
        L[n] = {key: c / n for key, c in acc.items() if c}
        for (j, parts), c in L[n].items():
            lam = Partition(parts)
            val = c * math.factorial(n) * math.factorial(j) / class_size(lam)
            assert val.denominator == 1 and val > 0, (n, j, parts, val)
            entries[(n, j, lam)] = int(val)
    return entries
