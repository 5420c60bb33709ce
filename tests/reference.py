"""Reference implementations kept only as independent cross-checks of
the package's live code paths."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterator, List, Tuple

from hurwitz import formulas, oracle
from hurwitz.algebra.operators import (
    apply_xdx,
    core_apply_xdx,
    diag_fold,
    divide_ydiff,
    p_ladder,
)
from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import expand_y_to_w, sweep, tree_coeffs, x_coefficient, x_orbit
from hurwitz.algebra.sym import e_value, fit_sym_e_poly, is_orbit_exponent, to_e_basis
from hurwitz.engine import _sample_plan, is_cell
from hurwitz.errors import CertificationError, NotVanishing
from hurwitz.partitions import (Partition, class_size, parts_of_length, parts_of_weight,
                                partitions)


# ----- dense polynomial helpers ---------------------------------------------
# Ring operations on whole polynomials.  Operands must agree in kind and
# arity, which catches plumbing mistakes such as adding a y-form to a w-jet.

def _check_compat(a: SparsePoly, b: SparsePoly) -> None:
    if a.kind != b.kind or a.arity != b.arity:
        raise ValueError(
            f"incompatible polynomials: {a.kind}/{a.arity} vs {b.kind}/{b.arity}")


def _combine(a: SparsePoly, b: SparsePoly, sign: int) -> SparsePoly:
    """a + sign * b over the common denominator."""
    _check_compat(a, b)
    den = math.lcm(a.den, b.den)
    ka, kb = den // a.den, sign * (den // b.den)
    out = {e: ka * c for e, c in a.num.items()}
    for e, c in b.num.items():
        out[e] = out.get(e, 0) + kb * c
    return SparsePoly.from_core(a.kind, a.arity, out, den)


def add(p: SparsePoly, *more: SparsePoly) -> SparsePoly:
    for q in more:
        p = _combine(p, q, 1)
    return p


def sub(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    return _combine(a, b, -1)


def scale(p: SparsePoly, c) -> SparsePoly:
    """c p for an int or Fraction c."""
    c = Fraction(c)
    return SparsePoly.from_core(
        p.kind, p.arity, {e: c.numerator * v for e, v in p.num.items()},
        p.den * c.denominator)


def mul(p: SparsePoly, *more: SparsePoly) -> SparsePoly:
    for q in more:
        _check_compat(p, q)
        out: dict = {}
        for ea, ca in p.num.items():
            for eb, cb in q.num.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        p = SparsePoly.from_core(p.kind, p.arity, out, p.den * q.den)
    return p


def coeff(p: SparsePoly, exps) -> Fraction:
    """The coefficient of p at one exponent tuple."""
    return Fraction(p.num.get(tuple(exps), 0), p.den)


def jet_coeff(jet, exps) -> Fraction:
    """The coefficient of a symmetric jet at any arrangement of an
    orbit-form exponent."""
    return coeff(jet.base, sorted(exps, reverse=True))


def const(kind: str, arity: int, value) -> SparsePoly:
    return SparsePoly(kind, arity, {(0,) * arity: value})


def var(kind: str, arity: int, index: int, power: int = 1) -> SparsePoly:
    """The monomial (variable index)^power, index 0-based."""
    if not 0 <= index < arity:
        raise IndexError(f"variable index {index} out of range for arity {arity}")
    exps = [0] * arity
    exps[index] = power
    return SparsePoly(kind, arity, {tuple(exps): 1})


def embed(p: SparsePoly, arity: int, positions) -> SparsePoly:
    """p inside a larger variable set: old variable i lands at
    positions[i], and the new slots have exponent 0 in every term."""
    if len(positions) != p.arity:
        raise ValueError("positions must list a target for every variable")
    if len(set(positions)) != p.arity or any(not 0 <= q < arity for q in positions):
        raise ValueError(f"bad embedding {positions} into arity {arity}")
    out: dict = {}
    for e, c in p.num.items():
        ne = [0] * arity
        for i, v in enumerate(e):
            ne[positions[i]] = v
        out[tuple(ne)] = c
    return SparsePoly.from_core(p.kind, arity, out, p.den)


def evaluate(p: SparsePoly, values) -> Fraction:
    """p at a rational point."""
    if len(values) != p.arity:
        raise ValueError("value count must match arity")
    total = Fraction(0)
    for e, c in p.num.items():
        term = Fraction(c)
        for v, k in zip(values, e):
            if k:
                term *= Fraction(v) ** k
        total += term
    return total / p.den


def permute(p: SparsePoly, perm) -> SparsePoly:
    """Relabel variables: old variable i becomes variable perm[i]."""
    return embed(p, p.arity, perm)


def substitute_one(p: SparsePoly, index: int) -> SparsePoly:
    """Set variable `index` to 1 (exponent dropped, arity kept)."""
    out: dict = {}
    for e, c in p.num.items():
        ne = e[:index] + (0,) + e[index + 1:]
        out[ne] = out.get(ne, 0) + c
    return SparsePoly.from_core(p.kind, p.arity, out, p.den)


def is_symmetric(p: SparsePoly) -> bool:
    """Invariance under all variable permutations, checked on the
    generators (adjacent swap and full cycle) of the symmetric group."""
    m = p.arity
    if m <= 1:
        return True
    swap = list(range(m))
    swap[0], swap[1] = 1, 0
    cyc = [(i + 1) % m for i in range(m)]
    return permute(p, swap) == p and permute(p, cyc) == p


def q_ladder(P: list) -> list:
    """Q_j = (w d/dw)(x d/dx)^(j-1) (y-1) from the ladder P of
    `p_ladder`: P_j shifted down one degree, since w d/dw = (1/y) x d/dx
    on monomials.  Q[0] is unused."""
    return [None] + [{k - 1: c for k, c in Pj.items()} for Pj in P[1:]]


def apply_wdw(poly: SparsePoly, var: int) -> SparsePoly:
    """w_var d/dw_var in y-coordinates: y^k -> k (y^(k+1) - y^k)."""
    out: dict = {}
    for e, c in poly.num.items():
        k = e[var]
        if not k:
            continue
        kc = k * c
        up1 = e[:var] + (k + 1,) + e[var + 1:]
        out[up1] = out.get(up1, 0) + kc
        out[e] = out.get(e, 0) - kc
    return SparsePoly.from_core("Y", poly.arity, out, poly.den)


def dense_residual(psi: SparsePoly, kpoly: SparsePoly, c: int) -> SparsePoly:
    """(sum_i w_i d/dw_i + c) psi - K on the dense polynomials, by its own
    integer loop."""
    acc: dict = {}
    dk, dp = kpoly.den, psi.den
    for e, coeff in psi.num.items():
        coeff *= dk
        for var in range(psi.arity):
            k = e[var]
            if not k:
                continue
            kc = k * coeff
            up = e[:var] + (k + 1,) + e[var + 1:]
            acc[up] = acc.get(up, 0) + kc
            acc[e] = acc.get(e, 0) - kc
        acc[e] = acc.get(e, 0) + c * coeff
    for e, coeff in kpoly.num.items():
        acc[e] = acc.get(e, 0) - dp * coeff
    return SparsePoly.from_core("Y", psi.arity, acc, dk * dp)


def elementary_vectors(k: int, m: int) -> tuple:
    """e_k in m variables as a tuple of 0/1 exponent vectors."""
    vecs = []

    def rec(start: int, need: int, acc: list):
        if not need:
            vecs.append(tuple(acc))
            return
        for i in range(start, m - need + 1):
            rec(i + 1, need - 1, acc + [0] * (i - len(acc)) + [1])

    if k == 0:
        return ((0,) * m,)
    rec(0, k, [])
    return tuple(v + (0,) * (m - len(v)) for v in vecs)


def product_e_monomial_expand(beta: tuple, m: int) -> dict:
    """Orbit form of prod_k e_k^(beta_k) over m variables, built on whole
    exponents: each factor multiplies every term by every 0-1 vector of
    e_k, and only the weakly decreasing terms are kept at the end."""
    acc = {(0,) * m: 1}
    for k, a in enumerate(beta):
        for _ in range(a):
            nxt: dict = {}
            for e, c in acc.items():
                for v in elementary_vectors(k + 1, m):
                    ne = tuple(x + y for x, y in zip(e, v))
                    nxt[ne] = nxt.get(ne, 0) + c
            acc = nxt
    return {e: c for e, c in acc.items() if is_orbit_exponent(e)}


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
    That drops exactly the image terms of total above `total` only for a
    raising table (no target below its source): a lowering table can
    still bring a term over the cap back under it, so a capped orbit
    sweep of such a table is held against the uncapped dense sweep, cut
    afterwards.
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


@lru_cache(maxsize=None)
def fresh_basis_rows(dmax: int) -> Tuple[tuple, int]:
    """(rows, L): rows[k] writes y^k over the per-variable P/Q basis,
    scaled by L.  Label d >= 1 is the P/Q element of degree d (odd
    degrees P, even Q) and label 0 the constant residue; the rows come
    from the triangular elimination of rows 0 .. dmax in Fractions, and
    L is the lcm of their denominators."""
    P = p_ladder(dmax // 2 + 1)
    Q = q_ladder(P)
    table = [{0: Fraction(1)}]
    for d in range(1, dmax + 1):
        B = P[(d - 1) // 2] if d % 2 else Q[d // 2]
        lead = B[d]
        row = {d: Fraction(1, lead)}
        for deg, bc in B.items():
            if deg == d:
                continue
            for lab, t in table[deg].items():
                row[lab] = row.get(lab, 0) - Fraction(bc, lead) * t
        table.append(row)
    L = math.lcm(*(t.denominator for row in table for t in row.values()))
    return tuple(tuple(sorted((lab, int(t * L)) for lab, t in row.items() if t))
                 for row in table), L


def _labels_to_decomp(labels: dict, den: int) -> Dict[tuple, Fraction]:
    """{j: c_j} from swept P/Q labels over `den`, refusing a zero or an
    even label as the package's xdx_basis_convert does."""
    if any(0 in lab for lab in labels):
        raise NotVanishing("input does not vanish at y_1 = 1")
    for lab in labels:
        if any(d % 2 == 0 for d in lab):
            raise NotVanishing(f"term {lab} carries a w d/dw factor")
    return {tuple((d - 1) // 2 for d in lab): Fraction(c, den)
            for lab, c in labels.items()}


def as_fractions(num: Dict[tuple, int], den: int) -> Dict[tuple, Fraction]:
    """{j: num[j] / den}, the form of `forward_basis_convert`, from the
    numerators and denominator xdx_basis_convert returns."""
    return {j: Fraction(c, den) for j, c in num.items()}


def over_one_denominator(coeffs: Dict[tuple, Fraction]) -> Tuple[Dict[tuple, int], int]:
    """The inverse of `as_fractions`, over the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {j: c.numerator * (den // c.denominator) for j, c in coeffs.items()}, den


def forward_basis_convert(orbit: SparsePoly, m: int) -> Dict[tuple, Fraction]:
    """xdx_basis_convert by the dense forward route, as {j: c_j}: every
    term of the orbit form is swept through the table of y^k over the P/Q
    basis (`fresh_basis_rows`), and every label must be odd."""
    rows, L = fresh_basis_rows(_top(orbit.num))
    return _labels_to_decomp(sweep(orbit.num, m, rows), orbit.den * L ** m)


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


def _sample_scale(parts) -> Fraction:
    return math.prod(Fraction(math.factorial(a), a ** a) for a in parts)


def sampled_values(orbit: SparsePoly, m: int, wdeg: int) -> list:
    """(parts, f at parts) over `_sample_plan`, read off the x-orbit form
    of Psi (`x_orbit`) that the engine's sampling gate reads: it holds
    Psi.den prod a! [x^parts] Psi, and f at parts is
    [x^parts] Psi prod a!/a^a."""
    samples = _sample_plan(m, wdeg)
    xs = x_orbit(orbit, max(p[0] for p in samples), max(map(sum, samples)))
    return [(p, Fraction(xs.get(p, 0), orbit.den * math.prod(a ** a for a in p)))
            for p in samples]


def dense_sampled_values(poly: SparsePoly, m: int, wdeg: int) -> list:
    """(parts, f at parts) over `_sample_plan`, read off the dense w-jet
    of a dense Psi through the table of [x^a] w^d."""
    samples = _sample_plan(m, wdeg)
    nmax = max(map(sum, samples))
    amax = max(p[0] for p in samples)
    jet = dense_expand_y_to_w(poly, amax, nmax)
    table = w_power_x_table(amax, amax)
    return [(p, dense_x_coefficient(jet, p, table) * _sample_scale(p)) for p in samples]


def w_jet_sampled_values(orbit: SparsePoly, m: int, wdeg: int) -> list:
    """(parts, f at parts) over `_sample_plan`, read off the truncated
    orbit w-jet of Psi (`expand_y_to_w`) one x-coefficient at a time
    (`x_coefficient`)."""
    samples = _sample_plan(m, wdeg)
    nmax = max(map(sum, samples))
    amax = max(p[0] for p in samples)
    jet = expand_y_to_w(orbit, amax, nmax, allow_truncation=True)
    memo: dict = {}
    return [(p, x_coefficient(jet, p, memo) * _sample_scale(p)) for p in samples]


def dense_extract_f(poly: SparsePoly, m: int, g: int) -> SparsePoly:
    """f of a cell from its dense Psi, by both routes, which must agree."""
    wdeg = max(m + 3 * g - 3, 0)
    rows, L = fresh_basis_rows(_top(poly.num))
    decomp = _labels_to_decomp(dense_sweep(poly.num, m, rows), poly.den * L ** m)
    f_basis = to_e_basis(*over_one_denominator(
        {j: c for j, c in decomp.items() if is_orbit_exponent(j)}), m)
    f_fit = fit_sym_e_poly(dense_sampled_values(poly, m, wdeg), m, wdeg)
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
    """Sum of permute(f, perm) over perms, accumulated on integer numerators."""
    acc: dict = {}
    for perm in perms:
        for e, c in permute(f, perm).num.items():
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
    return mul(embed(a, m, [0] + list(range(1, k))), embed(b, m, [0] + list(range(k, m))))


def dense_assemble_K(m: int, g: int, psi_cache) -> SparsePoly:
    """The dense right-hand side of cell (m, g), g >= 1, (m, g) != (1, 1),
    from the dense views of the lower cells in `psi_cache`."""
    def cell(mm, gg):
        return psi_cache[(mm, gg)].poly

    half = Fraction(1, 2)
    src = cell(m + 1, g - 1)
    folded = diag_fold(apply_xdx(apply_xdx(src, 0), m), 0, m)
    K = scale(dense_theta(folded, 0, m), half)
    if m >= 2:
        xg = apply_xdx(cell(m - 1, g), 0)
        gr = embed(xg, m, [0] + list(range(2, m)))
        gs = embed(xg, m, [1] + list(range(2, m)))
        y_r = var("Y", m, 0)
        y_s = var("Y", m, 1)
        one = const("Y", m, 1)
        num = sub(mul(sub(y_s, one), y_r, y_r, gr), mul(sub(y_r, one), y_s, y_s, gs))
        f01 = divide_ydiff(num, 0, 1)
        pairs = [
            [r, s] + [v for v in range(m) if v != r and v != s]
            for r, s in combinations(range(m), 2)
        ]
        K = add(K, _sum_permuted(f01, pairs))
    for k in range(3, m + 1):
        a = apply_xdx(cell(k, 0), 0)
        b = apply_xdx(cell(m - k + 1, g), 0)
        K = add(K, dense_theta(_pair_product(a, b, m), k - 1, m))
    for ga in range(1, g):
        for k in range(1, m + 1):
            a = apply_xdx(cell(k, ga), 0)
            b = apply_xdx(cell(m - k + 1, g - ga), 0)
            K = add(K, scale(dense_theta(_pair_product(a, b, m), k - 1, m), half))
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


# ----- scaling chain and genus-1 closed forms in Fractions -------------------
# The Fraction forms of the scaling chain and of f1_conjecture, which the
# package computes in integers, kept as the references it must equal.

def elementary_values_by_subsets(parts, m: int) -> list:
    """[e_1, ..., e_m] of `parts`, each a sum over the k-subsets."""
    return [sum(math.prod(s) for s in combinations(parts, k))
            for k in range(1, m + 1)]


def fraction_f1_conjecture(alpha: Partition) -> Fraction:
    """Genus-1 f through elementary symmetric functions, term by term in
    Fractions."""
    n, m = alpha.n, alpha.m
    e = elementary_values_by_subsets(alpha.parts, m)
    s = Fraction(n ** m - n ** (m - 1))
    for i in range(2, m + 1):
        s -= math.factorial(i - 2) * e[i - 1] * n ** (m - i)
    return s / 24


def f1_simple_by_binomial_sum(n: int) -> Fraction:
    """Genus-1 f at alpha = 1^n as the binomial sum
    (n^n - n^(n-1) - sum_(i=2..n) C(n, i) (i-2)! n^(n-i)) / 24."""
    if n < 1:
        raise ValueError("need n >= 1")
    s = n ** n - n ** (n - 1)
    for i in range(2, n + 1):
        s -= math.comb(n, i) * math.factorial(i - 2) * n ** (n - i)
    return Fraction(s, 24)


def fraction_closedform_checks() -> list:
    """`verify --suite closedform`'s 78 checks with every value a Fraction:
    each table value and closed form is built and the two compared.  The
    tables are read through `formulas.f_table`, so a test may doctor them."""
    checks = []

    def check(name, got, want, what):
        ok = got == want
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "detail": "" if ok else f"table {got} vs {what} {want}"})

    for g in range(1, 5):
        poly = formulas.f_table(g, 1)
        for n in range(1, 11):
            check(f"one-part g={g} n={n}", e_value(poly, (n,)),
                  formulas.f_one_part(n, g), "series")
    for m in range(1, 7):
        for n in range(m, m + 4):
            for alpha in map(Partition, parts_of_length(n, m)):
                check(f"genus-1 table vs formula {alpha}",
                      formulas.f_table_eval(1, alpha),
                      fraction_f1_conjecture(alpha), "formula")
    return checks


# ----- the recurrences and the recurrence and oracle suites in Fractions ----
# The package steps these in integers; the Fraction forms below are the
# recurrences and `verify` suites as they were, kept as the references the
# integer forms must equal.  They read `formulas.f1_simple`,
# `formulas.tree_coeffs`, `oracle.c_count` and the engine's cells when
# called, so a test may doctor those.

def fraction_mu0_simple(n: int) -> Fraction:
    """Genus-0 mu at alpha = 1^n: (2n-2)! n^(n-3) / n!."""
    return Fraction(math.factorial(2 * n - 2) * n ** n, n ** 3 * math.factorial(n))


def fraction_pg_mu1(n_max: int) -> List[Fraction]:
    """mu_n^(1) for n = 1..n_max by the genus-1 recurrence in Fractions."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    mu1: List[Fraction] = []
    for n in range(1, n_max + 1):
        total = (
            Fraction(n, 6) * math.comb(n, 2) * (2 * n - 1) * fraction_mu0_simple(n)
        )
        for jj in range(1, n - 1):
            total += (
                2 * (2 * n - 1)
                * (n - jj) * jj * jj
                * math.comb(2 * n - 2, 2 * jj - 2)
                * fraction_mu0_simple(jj) * mu1[n - jj - 1]
            )
        mu1.append(total)
    return mu1


def tree_series_by_powers(n_max: int) -> List[int]:
    """n! [x^n] w^2/(1-w)^2 for n = 0..n_max, as the sum over k >= 2 of
    (k - 1) w^k, each power W_k of the tree series w stepped by one
    binomial convolution with t[d] = d! [x^d] w."""
    t = [math.factorial(d) * c for d, c in enumerate(formulas.tree_coeffs(n_max))]
    if any(c.denominator != 1 for c in t):
        raise CertificationError("the tree series has a non-integral d! [x^d] w")
    t = [int(c) for c in t]
    wpow = [1] + [0] * n_max
    tree = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        wpow = [
            sum(math.comb(d, i) * wpow[i] * t[d - i] for i in range(d + 1))
            for d in range(n_max + 1)
        ]
        if k >= 2:
            # w^2/(1-w)^2 = sum_{k>=2} (k-1) w^k
            for d in range(n_max + 1):
                tree[d] += (k - 1) * wpow[d]
    return tree


def fraction_a_sequence(n_max: int) -> List[int]:
    """a_n = 24 n f1_simple(n) for n = 1..n_max, its direct route in
    Fractions, checked against its recurrence and the power-sum series."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    direct = [24 * n * formulas.f1_simple(n) for n in range(1, n_max + 1)]
    rec: List[int] = []
    for n in range(1, n_max + 1):
        s = (n - 1) * n ** (n - 1)
        for jj in range(1, n - 1):
            s += math.comb(n, jj) * jj ** (jj - 1) * rec[n - jj - 1]
        rec.append(s)
    tree = tree_series_by_powers(n_max)
    out: List[int] = []
    for n in range(1, n_max + 1):
        a, b, c = direct[n - 1], rec[n - 1], tree[n]
        if not (a == b == c) or a.denominator != 1:
            raise CertificationError(
                f"a_{n} disagrees across routes: direct {a}, recurrence {b}, "
                f"series {c}"
            )
        out.append(int(a))
    return out


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def fraction_recurrence_checks() -> list:
    """`verify --suite recurrence`'s checks with every value a Fraction."""
    checks = []
    try:
        fraction_a_sequence(12)
        checks.append(_check("a_n triple equality n<=12", True))
    except CertificationError as err:
        checks.append(_check("a_n triple equality n<=12", False, str(err)))
    mu1 = fraction_pg_mu1(10)
    for n in range(2, 11):
        want = Fraction(math.factorial(2 * n)) * formulas.f1_simple(n) \
            / math.factorial(n)
        ok = mu1[n - 1] == want
        checks.append(_check(
            f"torus recurrence n={n}", ok,
            "" if ok else f"recurrence {mu1[n - 1]} vs direct {want}"
        ))
    return checks


def fraction_oracle_checks(engine, n_max: int) -> list:
    """`verify --suite oracle`'s checks with every f a Fraction, scaled to
    a count by `formulas.hurwitz`, which refuses a non-count by raising."""
    checks = []
    for n in range(1, n_max + 1):
        for alpha in partitions(n):
            for g in range(0, 3):
                c_oracle = oracle.c_count(alpha, g)
                if not is_cell(alpha.m, g):
                    f = formulas.f_genus0(alpha)
                    label = f"oracle {alpha} g={g} (formulas)"
                else:
                    f = e_value(engine.cell(alpha.m, g).f_e, alpha.parts)
                    label = f"oracle {alpha} g={g} (engine)"
                hc = formulas.hurwitz(alpha, g, f)
                ok = hc.c == c_oracle
                detail = "" if ok else (
                    f"counting route {Fraction(c_oracle)} vs "
                    f"extraction route {Fraction(hc.c)}"
                )
                checks.append(_check(label, ok, detail))
    for n in range(1, 7):
        alpha = Partition((1,) * n)
        mu_closed = fraction_mu0_simple(n)
        mu_oracle = oracle.mu_count(alpha, 0)
        ok = mu_closed == mu_oracle
        checks.append(_check(
            f"genus-0 mu at 1^{n}", ok,
            "" if ok else f"closed {mu_closed} vs oracle {mu_oracle}"
        ))
    return checks


def fraction_count_scale(alpha: Partition, g: int) -> Fraction:
    """c / f = j! prod_i a_i^a_i / (a_i - 1)!, one Fraction per part."""
    scale = Fraction(math.factorial(alpha.j_for_genus(g)))
    for a in alpha.parts:
        scale *= Fraction(a ** a, math.factorial(a - 1))
    return scale


def fraction_hurwitz(alpha: Partition, g: int, f: Fraction) -> Tuple[int, Fraction]:
    """(c, mu) from f in Fractions, refused with `hurwitz`'s message."""
    c = fraction_count_scale(alpha, g) * f
    if c.denominator != 1 or c < 0:
        raise CertificationError(
            f"f = {f} at {alpha}, g={g} scales to non-count {c}"
        )
    return int(c), Fraction(class_size_by_multiplicities(alpha) * int(c),
                            math.factorial(alpha.n))


def class_size_by_multiplicities(alpha: Partition) -> int:
    """n! / prod_a a^(k_a) k_a!, with k_a the multiplicity of the part a."""
    z = 1
    for a, k in Counter(alpha.parts).items():
        z *= a ** k * math.factorial(k)
    return math.factorial(alpha.n) // z


def partitions_by_generator(n: int) -> Iterator[Partition]:
    """All partitions of n in descending-lex order, as `partitions` gave
    them when it was a generator: a new Partition per part tuple, per call."""
    for p in parts_of_weight(n):
        yield Partition(p)
