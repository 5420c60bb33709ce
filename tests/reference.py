"""Reference implementations kept only as independent cross-checks of
the package's live code paths."""

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

from hurwitz.algebra.operators import (
    _basis_rows,
    apply_xdx,
    core_apply_xdx,
    diag_fold,
    divide_ydiff,
)
from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import tree_coeffs
from hurwitz.algebra.sym import fit_sym_e_poly, is_orbit_exponent, to_e_basis
from hurwitz.engine import _sample_plan
from hurwitz.partitions import Partition, class_size


def orbit_form(p: SparsePoly) -> SparsePoly:
    """The terms of a symmetric p with weakly decreasing exponents."""
    num = {e: c for e, c in p.num.items() if is_orbit_exponent(e)}
    return SparsePoly.from_core(p.kind, p.arity, num, p.den)


# ----- dense jets, solve and extraction -------------------------------------
# The engine sweeps orbit forms; these sweep whole polynomials one
# variable at a time.

def dense_sweep(core: dict, arity: int, rows, total=None) -> dict:
    """Apply one triangular table to every variable in turn.

    rows[k] lists (l, a) pairs in ascending l: the swept exponent k
    becomes sum a * (exponent l), the other exponents riding along.  With
    `total`, targets beyond total minus the other exponents are dropped.
    """
    for var in range(arity):
        groups: dict = {}
        for e, c in core.items():
            groups.setdefault(e[:var] + e[var + 1:], []).append((e[var], c))
        out: dict = {}
        for rest, g in groups.items():
            cap = math.inf if total is None else total - sum(rest)
            acc: dict = {}
            for k, c in g:
                for l, a in rows[k]:
                    if l > cap:
                        break
                    acc[l] = acc.get(l, 0) + a * c
            head, tail = rest[:var], rest[var:]
            for l, v in acc.items():
                if v:
                    out[head + (l,) + tail] = v
        core = out
    return core


def _top(core: dict) -> int:
    return max(map(max, filter(None, core)), default=0)


def dense_y_to_u(core: dict, arity: int) -> dict:
    rows = [[(l, math.comb(k, l)) for l in range(k + 1)] for k in range(_top(core) + 1)]
    return dense_sweep(core, arity, rows)


def dense_u_to_y(core: dict, arity: int) -> dict:
    rows = [[(k, (-1) ** (l - k) * math.comb(l, k)) for k in range(l + 1)]
            for l in range(_top(core) + 1)]
    return dense_sweep(core, arity, rows)


def dense_u_to_w_jet(core: dict, arity: int, per_var: int, total: int) -> dict:
    rows = [[(0, 1)]] + [[(j, math.comb(j - 1, l - 1)) for j in range(l, per_var + 1)]
                         for l in range(1, _top(core) + 1)]
    return dense_sweep(core, arity, rows, total)


def dense_w_jet_to_u(core: dict, arity: int, per_var: int, total: int) -> dict:
    rows = [[(0, 1)]] + [[(l, (-1) ** (l - j) * math.comb(l - 1, j - 1))
                          for l in range(j, per_var + 1)]
                         for j in range(1, _top(core) + 1)]
    return dense_sweep(core, arity, rows, total)


def dense_expand_y_to_w(p: SparsePoly, per_var: int, total: int) -> SparsePoly:
    """The dense w-jet of a y-polynomial on {e_i <= per_var, |e| <= total}."""
    core = dense_u_to_w_jet(dense_y_to_u(p.num, p.arity), p.arity, per_var, total)
    return SparsePoly.from_core("W", p.arity, core, p.den)


def dense_solve(kpoly: SparsePoly, c: int, pv: int, tot: int) -> SparsePoly:
    """The scaled-integral solve of (sum w d/dw + c) Psi = K on dense jets."""
    m = kpoly.arity
    jet = dense_u_to_w_jet(dense_y_to_u(kpoly.num, m), m, pv, tot)
    scale = math.lcm(*range(c, tot + c + 1))
    jet = {e: v * (scale // (sum(e) + c)) for e, v in jet.items()}
    ycore = dense_u_to_y(dense_w_jet_to_u(jet, m, pv, tot), m)
    return SparsePoly.from_core("Y", m, ycore, kpoly.den * scale)


def w_power_x_table(dmax: int, amax: int) -> list:
    """table[d][a] = [x^a] w(x)^d, by repeated convolution with w."""
    w1 = tree_coeffs(amax)
    table = [[Fraction(1)] + [Fraction(0)] * amax]
    for _ in range(dmax):
        prev, cur = table[-1], [Fraction(0)] * (amax + 1)
        for a in range(amax + 1):
            if prev[a]:
                for b in range(1, amax - a + 1):
                    cur[a + b] += prev[a] * w1[b]
        table.append(cur)
    return table


def dense_x_coefficient(jet: SparsePoly, alpha, table) -> Fraction:
    """[x^alpha] of a dense w-jet: every term in the box below alpha,
    times the product of its per-variable table entries."""
    total = Fraction(0)
    for e, c in jet.num.items():
        if all(d <= a for d, a in zip(e, alpha)):
            total += c * math.prod(table[d][a] for d, a in zip(e, alpha))
    return total / jet.den


def dense_extract_f(poly: SparsePoly, m: int, g: int) -> SparsePoly:
    """f of a cell from its dense Psi, by both routes, which must agree."""
    wdeg = max(m + 3 * g - 3, 0)
    rows, L = _basis_rows(_top(poly.num))
    labels = dense_sweep(poly.num, m, rows)
    assert all(d % 2 for lab in labels for d in lab), "not f(x d/dx) V_m"
    decomp = {tuple((d - 1) // 2 for d in lab): Fraction(c, poly.den * L ** m)
              for lab, c in labels.items()}
    f_basis = to_e_basis({j: c for j, c in decomp.items() if is_orbit_exponent(j)}, m)
    samples = _sample_plan(m, wdeg)
    nmax = max(p.n for p in samples)
    amax = max(p.parts[0] for p in samples)
    jet = dense_expand_y_to_w(poly, amax, nmax)
    table = w_power_x_table(amax, amax)
    evals = [(p.parts, dense_x_coefficient(jet, p.parts, table)
              * math.prod(Fraction(math.factorial(a), a ** a) for a in p.parts))
             for p in samples]
    f_fit = fit_sym_e_poly(evals, m, wdeg)
    assert f_basis == f_fit, (m, g)
    return f_basis


def compose_with_tree(jet: SparsePoly, order: int) -> SparsePoly:
    """Substitute w_i = w(x_i) into a dense w-jet; the result is the dense
    x-jet to x^order.

    A variable-by-variable substitution, where x_coefficient contracts
    the orbit jet one part at a time.  [x^a] w^d vanishes for d > a, so
    the jet must carry w-data up to order in every variable and in total.
    """
    if jet.kind != "W":
        raise ValueError("compose_with_tree wants a W jet")
    table = w_power_x_table(order, order)
    terms: dict = dict(jet.terms)
    for var in range(jet.arity):
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
    return SparsePoly("X", jet.arity, terms)


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
