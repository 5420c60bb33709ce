"""Reference implementations kept only as independent cross-checks of
the package's live code paths."""

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

from hurwitz.algebra.operators import (
    apply_xdx,
    core_apply_xdx,
    diag_fold,
    divide_ydiff,
)
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


# ----- dense cut-and-join assembly ----------------------------------------
# The engine builds K and the genus-0 cells in orbit form; these build
# them from whole polynomials, permuting every summand into place.

def _sum_permuted(f: SparsePoly, perms) -> SparsePoly:
    """Sum of f.permute(perm) over perms, accumulated on integer numerators."""
    acc: dict = {}
    for perm in perms:
        for e, c in f.permute(perm).num.items():
            acc[e] = acc.get(e, 0) + c
    return SparsePoly.from_core(f.kind, f.arity, acc, f.den)


def dense_theta(f: SparsePoly, i: int, m: int) -> SparsePoly:
    """Sum f over all placements (r; S; T) with |S| = i, S and T sorted;
    f's slots are read as (special, S block, T block)."""
    perms = []
    for r in range(m):
        rest = [v for v in range(m) if v != r]
        for S in combinations(rest, i):
            perms.append([r] + list(S) + [v for v in rest if v not in S])
    return _sum_permuted(f, perms)


def _pair_product(a: SparsePoly, b: SparsePoly, m: int) -> SparsePoly:
    """Embed two first-slot-differentiated cells sharing the special
    variable and multiply: slots (0; 1..k-1; k..m-1)."""
    k = a.arity
    return a.embed(m, [0] + list(range(1, k))) * b.embed(m, [0] + list(range(k, m)))


def dense_assemble_K(m: int, g: int, psi_cache) -> SparsePoly:
    """The dense right-hand side of cell (m, g), g >= 1, (m, g) != (1, 1),
    from the dense views of the lower cells in `psi_cache`."""
    def cell(mm, gg):
        return psi_cache[(mm, gg)].poly

    half = Fraction(1, 2)
    src = cell(m + 1, g - 1)
    folded = diag_fold(apply_xdx(apply_xdx(src, 0), m), 0, m)
    K = dense_theta(folded, 0, m).scale(half)
    if m >= 2:
        xg = apply_xdx(cell(m - 1, g), 0)
        gr = xg.embed(m, [0] + list(range(2, m)))
        gs = xg.embed(m, [1] + list(range(2, m)))
        y_r = SparsePoly.variable("Y", m, 0)
        y_s = SparsePoly.variable("Y", m, 1)
        one = SparsePoly.const("Y", m, 1)
        num = (y_s - one) * y_r * y_r * gr - (y_r - one) * y_s * y_s * gs
        f01 = divide_ydiff(num, 0, 1)
        pairs = [
            [r, s] + [v for v in range(m) if v != r and v != s]
            for r, s in combinations(range(m), 2)
        ]
        K = K + _sum_permuted(f01, pairs)
    for k in range(3, m + 1):
        a = apply_xdx(cell(k, 0), 0)
        b = apply_xdx(cell(m - k + 1, g), 0)
        K = K + dense_theta(_pair_product(a, b, m), k - 1, m)
    for ga in range(1, g):
        for k in range(1, m + 1):
            a = apply_xdx(cell(k, ga), 0)
            b = apply_xdx(cell(m - k + 1, g - ga), 0)
            K = K + dense_theta(_pair_product(a, b, m), k - 1, m).scale(half)
    return K


def dense_psi0(m: int) -> SparsePoly:
    """(sum_i x_i d/dx_i)^(m-3) prod (y_i - 1), one variable at a time."""
    core: dict = {}
    for bits in range(1 << m):
        e = tuple((bits >> i) & 1 for i in range(m))
        core[e] = (-1) ** (m - sum(e))
    poly = SparsePoly.from_core("Y", m, core)
    for _ in range(m - 3):
        acc: dict = {}
        for var in range(m):
            for e, c in core_apply_xdx(poly.num, var).items():
                acc[e] = acc.get(e, 0) + c
        poly = SparsePoly.from_core("Y", m, acc)
    return poly
