"""The cut-and-join pipeline: assemble K, solve the scaled equation,
extract the symmetric polynomial.

Every cell (m, g) with g >= 1 satisfies

    (sum_i w_i d/dw_i + m + 2g - 2) Psi = K

where K collects four kinds of lower-order data: a diagonal limit of the
cell one genus down with one extra variable (T1), a two-variable merge
with an exact division by y_r - y_s (T2), and symmetrized products
pairing a genus-0 cell (T3) or a positive-genus split (T4) against the
rest.  K is symmetric, and it is assembled in orbit form, one coefficient
per weakly decreasing exponent, straight from the orbit terms of the
lower cells.  Each summand's builder adds it to one accumulator
{tail: {exponent of the special variable: numerator}}, the tail being
the sorted exponents of the other slots, keeping only the terms whose
symmetric blocks are sorted: x d/dx of a cell is read off its orbit
terms, T1's two derivatives and diagonal limit and T2's division are
closed forms, products are convolved over their shared variable one
pair of blocks at a time straight into their tail, and each symmetric
pair is taken once: T1's and T2's two slots, T4's splits.  Each term
goes in scaled to one common denominator and weighted by the placements
of the S and T blocks that read it at one arrangement of its tail; the
placement sum then adds each (tail, exponent) once to its orbit, times
the number of slots the special variable may take there.  The assembled
K must vanish at y_1 = 1, as (sum w d/dw + c) Psi does.  `apply_xdx`,
`diag_fold` and `divide_ydiff` now serve only the dense reference route
of the tests and the benchmark's layer hooks.

In y itself the operator is triangular: w d/dw sends y^u to
u y^(u+1) - u y^u, so the part of K of degree d + 1 fixes the part of
Psi of degree d once the higher parts are known.  The solve reads Psi
off K by one back-substitution on the orbit forms, from the top degree
the caps allow down to the constant term, with no change of
coordinates, and then verifies the equation exactly.  The verification
is the residual of Psi against K, taken on the orbit forms: sum w d/dw
+ c commutes with permuting the variables, so it is zero exactly when
the dense residual is, and no step of the pipeline expands an orbit
form.  That residual, not the degree bookkeeping, is what certifies the
result.  Both extractions read the orbit form and never expand it, and
like assembly and the solve they run on integer numerators over one
denominator.  The operator-basis route peels Psi's lex-leading terms
against the integer images of the x d/dx ladder, one exact division and
one subtraction per term of f (`xdx_basis_convert`), and then rewrites f
in the e-basis by subtracting integer Pieri expansions (`to_e_basis`).
The sampling route reads f's values off Psi's x-coefficients by two
orbit sweeps (`series.sweep`), y -> u and u -> x, with no w-jet between
them and each capped at the sample plan's largest weight, and compares
each with f's value cross-multiplied, in integers.

Genus 0 cells come from the closed form (sum x_i d/dx_i)^(m-3) V_m, built
in orbit form, and never touch the solver.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import stat
from functools import lru_cache
from pathlib import Path
from typing import (
    Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

# apply_xdx, diag_fold and divide_ydiff are not called here: assembly
# applies them in closed form to rows of orbit terms.  They stay bound
# because the benchmark's layer hooks (perfbench/layers.py) wrap them on
# this module
from .algebra.operators import (
    apply_xdx,
    diag_fold,
    divide_ydiff,
    xdx_basis_convert,
)
from .algebra.poly import SparsePoly
# the four core_* jet passes, expand_y_to_w and x_coefficient are not
# called here; they stay bound because the benchmark's layer hooks
# (perfbench/layers.py) wrap them on this module
from .algebra.series import (
    core_u_to_w_jet,
    core_u_to_y,
    core_w_jet_to_u,
    core_y_to_u,
    expand_y_to_w,
    x_coefficient,
    x_orbit,
)
# fit_sym_e_poly is not called here; it stays bound because the
# benchmark's layer hooks (perfbench/layers.py) wrap it on this module
from .algebra.sym import (
    e_numerator,
    expand_orbits,
    fit_sym_e_poly,
    is_orbit_exponent,
    removals,
    to_e_basis,
    weighted_degree,
)
from .errors import (
    BudgetExceeded,
    CertificationError,
    ResidualNonzero,
    RouteDisagreement,
)
from .partitions import parts_of_length

__all__ = [
    "Cell",
    "psi0_base",
    "theta_symmetrize",
    "assemble_K",
    "solve_pde",
    "extract_f",
    "Engine",
    "DEFAULT_BUDGETS",
    "is_cell",
    "per_var_bound",
    "read_cell",
]

DEFAULT_BUDGETS = {0: 8, 1: 6, 2: 4, 3: 3, 4: 2}
# version 2 stores Psi in orbit form; version 1 stored it dense
CACHE_VERSION = 2
CELL_FILE = re.compile(r"psi_m([1-9][0-9]*)_g(0|[1-9][0-9]*)\.json")


def _cell_name(m: int, g: int) -> str:
    """The name of cell (m, g)'s cache file, which CELL_FILE matches."""
    return f"psi_m{m}_g{g}.json"


def is_cell(m: int, g: int) -> bool:
    """Whether (m, g) is a cell at all, whatever the budgets: the genus-0
    closed form n^(m-3) is a polynomial only from m = 3, and every other
    genus starts at one part."""
    return m >= (3 if g == 0 else 1)


def per_var_bound(m: int, g: int) -> int:
    """Per-variable y-degree bound for a positive-genus cell."""
    return 2 * m + 6 * g - 5


def total_bound(m: int, g: int) -> int:
    """Total y-degree bound: m more than the top per-variable excess."""
    return 3 * m + 6 * g - 6


class Cell:
    """One cell (m, g): Psi, or the right side K, in orbit form (its terms
    with weakly decreasing exponents), and f in the e-basis, `f_e`, None
    until `extract_f`.  No engine step reads the dense `poly`; it is
    expanded from the orbit form on first access, and kept."""

    __slots__ = ("m", "g", "orbit", "f_e", "_poly")

    def __init__(self, m: int, g: int, orbit: SparsePoly, f_e: Optional[SparsePoly] = None):
        self.m = m
        self.g = g
        self.orbit = orbit
        self.f_e = f_e
        self._poly: Optional[SparsePoly] = None

    @property
    def poly(self) -> SparsePoly:
        if self._poly is None:
            self._poly = expand_orbits(self.orbit)
        return self._poly


# ----- orbit-form building blocks ---------------------------------------
# Each builder adds one summand of K, straight from the orbit terms of the
# lower cells, to one accumulator `folded`, {tail: {exponent of the
# special variable: numerator}}.  x d/dx, the diagonal limit and the
# division by y_r - y_s act on the special slot alone, so each is a closed
# form on the factor rows of a cell.


def _factor_rows(orbit: SparsePoly) -> Dict[tuple, Dict[int, int]]:
    """x_1 d/dx_1 of the symmetric polynomial with orbit form `orbit`,
    times orbit.den, as {rest: {exponent of y_1: numerator}} with rest
    weakly decreasing.  Each distinct value v an orbit term gives y_1 is
    taken once, and x d/dx sends y^v to v (y^(v+2) - y^(v+1))."""
    rows: dict = {}
    for lam, c in orbit.num.items():
        for v, rest in removals(lam):
            if v:
                row = rows.setdefault(rest, {})
                row[v + 2] = row.get(v + 2, 0) + v * c
                row[v + 1] = row.get(v + 1, 0) - v * c
    return rows


def _diag_rows(folded: dict, orbit: SparsePoly, scale: int):
    """Add T1, with S empty, to `folded`: x_1 d/dx_1 x_2 d/dx_2 of the
    cell, then y_2 -> y_1.  Each term y_1^v1 y_2^v2 y^rest read off an
    orbit term (both nonzero) goes to p y^(s+2) (y - 1)^2, with
    s = v1 + v2 and p = v1 v2 c.  Both are symmetric in v1 and v2, so each
    unordered pair is read once (v2 at or after v1's first copy), doubled
    if v1 != v2; the p are summed by (rest, s) before one product by
    y^2 (y - 1)^2.  The tail is rest, and one placement of S reads each
    term there, so the weight is the scale alone."""
    sums: dict = {}
    for lam, c in orbit.num.items():
        for i, v1 in enumerate(lam):
            if not v1 or i and lam[i - 1] == v1:
                continue
            for j, v2 in enumerate(lam[i + 1:], i + 1):
                if v2 and (j == i + 1 or lam[j - 1] != v2):
                    row = sums.setdefault(lam[:i] + lam[i + 1:j] + lam[j + 1:], {})
                    row[v1 + v2] = row.get(v1 + v2, 0) + (2 if v2 < v1 else 1) * v1 * v2 * c
    for rest, by_s in sums.items():
        acc = folded.setdefault(rest, {})
        for s, p in by_s.items():
            p *= scale
            acc[s + 4] = acc.get(s + 4, 0) + p
            acc[s + 3] = acc.get(s + 3, 0) - 2 * p
            acc[s + 2] = acc.get(s + 2, 0) + p


def _merge_rows(folded: dict, orbit: SparsePoly, scale: int):
    """Add T2, with S = (s,), to `folded`: the quotient of
    (y_s - 1) y_r^2 G(y_r) - (y_r - 1) y_s^2 G(y_s) by y_r - y_s, G being
    x_1 d/dx_1 of the cell.  A term y^k of G, with A = k + 2, gives
    y_r y_s h_(A-2) - h_(A-1), h_n = sum_i y_r^i y_s^(n-i): at y_s^b that
    is y_r^(A-b) for 1 <= b < A, less y_r^(A-1-b) for 0 <= b < A.  The
    placement sum does not see the quotient's symmetry in r and s, so
    only its terms y_r^i y_s^b with i >= b are kept, doubled if i > b.
    The tail is rest with b inserted, and s may sit at any copy of b
    there: the weight is the multiplicity of b in the tail."""
    for rest, row in _factor_rows(orbit).items():
        by_s: dict = {}
        for k, c in row.items():
            a, c2 = k + 2, 2 * c
            for b in range(a // 2 + 1):
                r = by_s.setdefault(b, {})
                if b:
                    r[a - b] = r.get(a - b, 0) + (c2 if a - b > b else c)
                if a - 1 - b >= b:
                    r[a - 1 - b] = r.get(a - 1 - b, 0) - (c2 if a - 1 - b > b else c)
        for b, r in by_s.items():
            w = scale * (rest.count(b) + 1)
            acc = folded.setdefault(tuple(sorted(rest + (b,), reverse=True)), {})
            for k, c in r.items():
                acc[k] = acc.get(k, 0) + w * c


def _product_rows(folded: dict, a: SparsePoly, b: SparsePoly, scale: int):
    """Add A(y_0, y_S) B(y_0, y_T) to `folded`, A and B being x_0 d/dx_0
    of the two cells: each pair of factor rows is convolved over the
    shared special slot straight into its tail, bS + bT sorted, and the
    product is never built.  S and T split the tail's slots in
    aut(tail) / (aut(bS) aut(bT)) ways that read the pair's terms, aut(e)
    being the product of the factorials of e's multiplicities."""
    b_rows = [(bt, _aut(bt), rb) for bt, rb in _factor_rows(b).items()]
    for bs, ra in _factor_rows(a).items():
        aut_s = _aut(bs)
        for bt, aut_t, rb in b_rows:
            tail = tuple(sorted(bs + bt, reverse=True))
            w = scale * _aut(tail) // (aut_s * aut_t)
            acc = folded.setdefault(tail, {})
            for p, x in ra.items():
                x *= w
                for q, y in rb.items():
                    acc[p + q] = acc.get(p + q, 0) + x * y


def _aut(e: Sequence[int]) -> int:
    """The order of the stabilizer of e: prod over values of mult!."""
    n = 1
    run = 0
    for i, v in enumerate(e):
        run = run + 1 if i and e[i - 1] == v else 1
        n *= run
    return n


def theta_symmetrize(folded: Mapping[tuple, Mapping[int, int]], m: int,
                     den: int) -> SparsePoly:
    """Orbit form of the sum of a summand over every placement (r; S; T):
    r one of the m slots and S, T the other slots split in increasing
    order.

    The summand comes folded by tail, {tail: {k: c}}: c / den is the sum
    of its coefficients at y_r^k y_S^bS y_T^bT over the blocks bS and bT
    whose sorted union is the tail, each weighted by the number of
    (S, T) placements that read it at one arrangement of the tail.  It
    lands on the orbit of lam = sort(tail + (k,)) once more for each
    position r may take among the copies of k in lam, so each distinct
    (tail, k) is placed once, with weight mult(k in tail) + 1.  Summands
    of several S lengths may share one accumulator.
    """
    out: dict = {}
    for tail, acc in folded.items():
        for k, c in acc.items():
            lam = tuple(sorted(tail + (k,), reverse=True))
            out[lam] = out.get(lam, 0) + (tail.count(k) + 1) * c
    return SparsePoly.from_core("Y", m, out, den)


def _vanishes_at_one(orbit: SparsePoly) -> bool:
    """Whether the symmetric polynomial with orbit form `orbit` vanishes
    at y_1 = 1: the coefficient of y_rest there sums the orbit
    coefficients at sort(k, rest) over every k: each distinct entry of
    an orbit term is removed once."""
    acc: dict = {}
    get = acc.get
    for lam, c in orbit.num.items():
        prev = None
        for i, v in enumerate(lam):
            if v != prev:
                rest = lam[:i] + lam[i + 1:]
                acc[rest] = get(rest, 0) + c
                prev = v
    return not any(acc.values())


# ----- base cells ---------------------------------------------------------

def psi0_base(m: int) -> Cell:
    """Genus 0: (sum_i x_i d/dx_i)^(m-3) applied to prod (y_i - 1).

    A symmetric operator applied to a symmetric polynomial, built in orbit
    form: sum_i x_i d/dx_i is the placement sum of x_1 d/dx_1 over the
    choices of the first variable.  The dense view is expanded on access."""
    if m < 3:
        raise ValueError("genus-0 cells start at three variables")
    orbit = SparsePoly.from_core(
        "Y", m, {(1,) * j + (0,) * (m - j): (-1) ** (m - j) for j in range(m + 1)})
    for _ in range(m - 3):
        orbit = theta_symmetrize(_factor_rows(orbit), m, orbit.den)
    return Cell(m, 0, orbit)


# ----- assembly -----------------------------------------------------------

K11 = SparsePoly.from_core("Y", 1, {(4,): 3, (3,): -4, (0,): 1}, 24)


def _summands(m: int, g: int) -> Iterator[tuple]:
    """(divisor, builder, input cell keys) of each summand of K for
    cell (m, g), g >= 1 but (1, 1): the one statement of the recursion,
    which assembly reads and the dependency walk `_deps` follows."""
    # T1: two derivatives of the (m+1, g-1) cell, then diagonal y_2 -> y_1
    yield (2, _diag_rows, ((m + 1, g - 1),))
    # T2: merge two variables through the exact division by y_r - y_s; the
    # quotient is symmetric in r and s, so the sum over ordered pairs
    # (r; s) counts each unordered pair twice
    if m >= 2:
        yield (2, _merge_rows, ((m - 1, g),))
    # T3: genus-0 factor times the rest, all variable splits
    for k in range(3, m + 1):
        yield (1, _product_rows, ((k, 0), (m - k + 1, g)))
    # T4: positive-genus splits.  Swapping the factors swaps S and T, which
    # the sum over placements does not see, so each unordered pair
    # {(k, ga), (m-k+1, g-ga)} is taken once and only the pair that is its
    # own mirror is halved
    for ga in range(1, g):
        for k in range(1, m + 1):
            mirror = (g - ga, m - k + 1)
            if (ga, k) <= mirror:
                yield (2 if (ga, k) == mirror else 1, _product_rows,
                       ((k, ga), (m - k + 1, g - ga)))


def assemble_K(m: int, g: int, cells: Mapping[Tuple[int, int], Cell]) -> Cell:
    """Right-hand side for cell (m, g), g >= 1, in orbit form, from the
    orbit forms of lower cells.  Each summand (`_summands`) is scaled to one
    common denominator and folded into one accumulator, and all of them go
    through one placement sum."""
    if g < 1:
        raise ValueError("assembly applies to positive genus")
    if (m, g) == (1, 1):
        return Cell(1, 1, K11)

    def cell(key: Tuple[int, int]) -> SparsePoly:
        try:
            return cells[key].orbit
        except KeyError:
            raise BudgetExceeded("assembly of ({},{}) needs cell ({},{})".format(m, g, *key))

    parts = [(div, make, [cell(key) for key in keys]) for div, make, keys in _summands(m, g)]
    dens = [div * math.prod(f.den for f in fs) for div, _, fs in parts]
    den = math.lcm(*dens)
    folded: dict = {}
    for d, (_, make, fs) in zip(dens, parts):
        make(folded, *fs, den // d)
    K = theta_symmetrize(folded, m, den)

    # K = (sum w d/dw + c) Psi keeps Psi's root y_1 = 1: w_1 d/dw_1 sends
    # y_1^k to k y_1^k (y_1 - 1), and the other terms act on other slots
    if not _vanishes_at_one(K):
        raise CertificationError(f"assembled K for ({m},{g}) does not vanish at y_1 = 1")
    return Cell(m, g, K)


# ----- solver -------------------------------------------------------------

def _back_substitute(korbit: SparsePoly, c: int, pv: int, tot: int) -> SparsePoly:
    """Solve (sum w d/dw + c) Psi = K for Psi in {per-variable <= pv,
    total <= tot}, orbit form in and out, with no change of coordinates.

    By degree the equation reads (c - d) Psi_d + R(Psi_{d-1}) = K_d.  R
    raises the first copy of each distinct nonzero value u of an orbit
    term lam to u + 1, with weight u times the multiplicity of u + 1 in
    the raised term (as in `_orbit_residual`).  Its lex-leading image
    raises lam[0], with weight lam[0]; the other images keep lam's first
    entry.  So from degree d = tot + 1 down, with Psi_d known, the terms
    still owed at degree d are taken bucket by bucket, by first entry b
    from the top: each mu with b - 1 >= mu[1] gives Psi at
    lam = (b - 1,) + mu[1:], owed / (b - 1), and lam's other images are
    subtracted in bucket b - 1, which comes later.  Walking the buckets,
    not a snapshot of K's terms, reaches the terms that those
    subtractions create.  The constant term is K_0 / c.

    Psi's numerators over K.den * lcm(c .. c + tot) are integers when a
    solution exists (in the w coordinates the solve divides each w^beta
    by |beta| + c, and the changes of coordinates are integral), so
    every division is then exact.  A term owed
    that no Psi in the region produces is left owed, and a division with
    a remainder means there is no solution; either way the residual gate
    refuses the result."""
    m = korbit.arity
    scale = math.lcm(*range(c, c + tot + 1))
    owed: dict = {}  # (degree, first entry) -> {orbit term: numerator}
    for lam, x in korbit.num.items():
        if lam[-1] < 0 or not is_orbit_exponent(lam):
            raise ValueError(f"K term {lam} is not an orbit term of a polynomial")
        owed.setdefault((sum(lam), lam[0]), {})[lam] = x * scale
    psi: dict = {}
    for d in range(tot + 1, 1, -1):
        for b in range(min(d, pv + 1), 1, -1):
            bucket = owed.pop((d, b), None)
            if not bucket:
                continue
            a = b - 1
            same = owed.setdefault((d, a), {})
            low = owed.setdefault((d - 1, a), {})
            for mu, t in bucket.items():
                if not t or (m > 1 and mu[1] > a):
                    continue
                lam = (a,) + mu[1:]
                x = t // a
                psi[lam] = x
                low[lam] = low.get(lam, 0) - (c - d + 1) * x
                for i in range(1, m):
                    u = lam[i]
                    if not u or lam[i - 1] == u:
                        continue
                    nu = lam[:i] + (u + 1,) + lam[i + 1:]
                    same[nu] = same.get(nu, 0) - u * nu.count(u + 1) * x
    zero = (0,) * m
    psi[zero] = korbit.num.get(zero, 0) * scale // c
    return SparsePoly.from_core("Y", m, psi, korbit.den * scale)


def _orbit_residual(orbit: SparsePoly, korbit: SparsePoly, c: int) -> SparsePoly:
    """Orbit form of (sum_i w_i d/dw_i + c) Psi - K, from the orbit forms
    of Psi and K; the operator commutes with permuting the variables, so
    this is zero exactly when the dense residual is.

    w d/dw sends y^u to u (y^(u+1) - y^u).  Each orbit term lam of Psi
    gives (c - |lam|) at lam; for each distinct nonzero value u of lam,
    raising its first copy keeps the exponent sorted, and the raised
    orbit mu collects u times the number of copies of u + 1 in mu, one
    for each entry of mu that lowers back to lam.  Its own integer loop,
    so that the solve gate shares no code with `series.sweep` or
    `removals`."""
    acc: dict = {}
    dk, dp = korbit.den, orbit.den
    for lam, x in orbit.num.items():
        x *= dk
        acc[lam] = acc.get(lam, 0) + (c - sum(lam)) * x
        for i, u in enumerate(lam):
            if not u or (i and lam[i - 1] == u):
                continue
            mu = lam[:i] + (u + 1,) + lam[i + 1:]
            acc[mu] = acc.get(mu, 0) + u * mu.count(u + 1) * x
    for lam, x in korbit.num.items():
        acc[lam] = acc.get(lam, 0) - dp * x
    return SparsePoly.from_core("Y", orbit.arity, acc, dk * dp)


def solve_pde(K: Cell) -> Cell:
    """Back-substitution on the orbit form (`_back_substitute`), with
    the exact equation check on the orbit forms (`_orbit_residual`) as
    the gate.  The facts every cell has, vanishing at y_1 = 1 and its
    degrees, are checked where a cell is taken in, fresh or cached
    (`_check_orbit_form`), once per cell."""
    m, g = K.m, K.g
    c = m + 2 * g - 2
    if c < 1:
        raise ValueError("scaling constant must be positive")
    pv, tot = per_var_bound(m, g), total_bound(m, g)
    orbit = _back_substitute(K.orbit, c, pv, tot)
    if not _orbit_residual(orbit, K.orbit, c).is_zero():
        raise ResidualNonzero(
            f"no y-polynomial solution for ({m},{g}) within degree caps "
            f"{pv} per variable, {tot} total"
        )
    return Cell(m, g, orbit)


# ----- checks every cell passes, fresh or cached ---------------------------
# Psi = f(x d/dx) V_m with f of weighted degree m + 3g - 3 (ELSV), which gives
# Psi total degree total_bound and, through f's e1 power, per_var_bound.

def _check_orbit_form(orbit: SparsePoly, m: int, g: int):
    """Raise CertificationError unless `orbit` is a canonical orbit form
    over m variables with the degrees every solved cell (m, g) attains:
    total degree total_bound(m, g) and, for g >= 1, per-variable degree
    per_var_bound(m, g), which is the first exponent of some term.  It
    must also vanish at y_1 = 1, as every cell does: the sampling route
    reads only the terms whose exponents are all positive, and a change
    to any one term with a zero exponent breaks the vanishing."""
    if orbit.kind != "Y" or orbit.arity != m:
        raise CertificationError(f"psi is not a Y-form in {m} variables")
    for e in orbit.num:
        if (not all(type(k) is int for k in e) or e[-1] < 0
                or not is_orbit_exponent(e)):
            raise CertificationError(f"exponent {e} is not an orbit representative")
    if orbit.total_degree() != total_bound(m, g):
        raise CertificationError(f"psi misses the total degree {total_bound(m, g)}")
    if g and max(e[0] for e in orbit.num) != per_var_bound(m, g):
        raise CertificationError(
            f"psi misses the per-variable degree {per_var_bound(m, g)}")
    if not _vanishes_at_one(orbit):
        raise CertificationError("psi does not vanish at y_1 = 1")


def _check_f(f_e: SparsePoly, m: int, g: int):
    """Raise CertificationError unless `f_e` is an e-basis polynomial in
    m variables of weighted degree exactly m + 3g - 3."""
    if (f_e.kind != "E" or f_e.arity != m
            or not all(type(k) is int and k >= 0 for e in f_e.num for k in e)):
        raise CertificationError(f"f is not an E-polynomial in {m} variables")
    want = m + 3 * g - 3
    if max(map(weighted_degree, f_e.num), default=None) != want:
        raise CertificationError(f"f misses the weighted degree {want}")


# ----- extraction ---------------------------------------------------------

def _sample_plan(m: int, wdeg: int) -> List[tuple]:
    """The parts of the m-part partitions of weight m .. m + wdeg: the
    points 1^m + lam with lam of at most m parts and |lam| <= wdeg.

    By conjugation there are as many of them as e-monomials of weighted
    degree <= wdeg in m variables, and on them the symmetrized binomial
    basis sum_sigma prod_i C(lam_i, mu_sigma(i)) is triangular under
    containment with a nonzero diagonal, so every e-polynomial of
    weighted degree <= wdeg is determined by its values on this plan,
    and no point of it is redundant.
    """
    return [p for n in range(m, m + wdeg + 1) for p in parts_of_length(n, m)]


def _check_samples(orbit: SparsePoly, f_e: SparsePoly, m: int, g: int):
    """Raise RouteDisagreement unless `f_e` takes, at every point of
    `_sample_plan`, the value read off the cell's x-coefficients.  The
    plan is the 1^m + lam points, one per e-monomial of f's weighted
    degree wdeg and unisolvent for them, so for an `f_e` that passes
    `_check_f` this is exactly agreement with the polynomial the samples
    determine.

    The values come from one x-orbit form of the cell (`series.x_orbit`,
    two sweeps: y -> u, then u -> x), which holds
    xs[parts] = Psi.den prod a! [x^parts] Psi at every alpha with entries
    in 1 .. amax, the plan's largest part, and total at most nmax, its
    largest weight (amax = wdeg + 1, nmax = m + wdeg).  Both sweeps drop
    every term of total above nmax, which no plan point reads.  f at
    parts is [x^parts] Psi prod a!/a^a.  So the check is the integer
    identity num_f(parts) Psi.den prod a^a = xs[parts] f_e.den, num_f
    being f_e's numerator at the elementary values of parts
    (`sym.e_numerator`, the evaluator behind every printed value of f)."""
    plan = _sample_plan(m, max(m + 3 * g - 3, 0))
    xs = x_orbit(orbit, max(p[0] for p in plan), max(map(sum, plan)))
    for parts in plan:
        num_f = e_numerator(f_e, parts)
        if (num_f * orbit.den * math.prod([a ** a for a in parts])
                != xs.get(parts, 0) * f_e.den):
            raise RouteDisagreement(
                f"operator-basis extraction misses the sampled value at "
                f"{parts} of ({m},{g})"
            )


def _certified_cell(m: int, g: int, orbit: SparsePoly, f_e: SparsePoly) -> Cell:
    """Cell (m, g) of `orbit` and `f_e` once f passes `_check_f`, then
    `_check_samples`: the gates of a fresh (`extract_f`) and a cached cell."""
    _check_f(f_e, m, g)
    _check_samples(orbit, f_e, m, g)
    return Cell(m, g, orbit, f_e)


def extract_f(cell: Cell) -> Cell:
    """Pull out the symmetric polynomial behind a cell, and check it, in
    integer numerators over one denominator throughout, into a new Cell:
    `cell` is left as it is, since engines share decoded cells.

    The operator-basis route peels the cell over the x d/dx basis
    (`xdx_basis_convert`) and rewrites the result in the e-basis
    (`to_e_basis`) as a symmetric polynomial f, which must pass
    `_check_f`.  The sampling route reads f's value at every point of
    `_sample_plan` off the cell's x-coefficients, and f must take each
    of those values (`_check_samples`).  Both read the orbit form; a
    mismatch is fatal.  `_certified_cell` runs the two gates.
    """
    num, den = xdx_basis_convert(cell.orbit)
    return _certified_cell(cell.m, cell.g, cell.orbit, to_e_basis(num, den, cell.m))


# ----- disk cache ---------------------------------------------------------

def read_cell(path: Path) -> Optional[Cell]:
    """The cell stored in a cache file, decoded and checked, without
    expanding Psi; None when the file is a miss.  A name that is not a
    cell file is a miss; the cell it names is read by `_read_cell_file`,
    the one read `Engine._load` makes too."""
    name = CELL_FILE.fullmatch(path.name)
    if name is None:
        return None
    return _read_cell_file(path, int(name[1]), int(name[2]))


def _read_cell_file(path, m: int, g: int) -> Optional[Cell]:
    """Cell (m, g) from the file at `path` (a str or a Path), or None for a
    miss.  A file that cannot be read and one that is not regular (opened
    without blocking, so that a FIFO waits for no writer) are misses; the
    bytes read to end of file go to `_decode_cell`, on every call."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                return None
            data = b"".join(iter(lambda: os.read(fd, st.st_size + 1), b""))
        finally:
            os.close(fd)
    except OSError:
        return None
    return _decode_cell(m, g, data)


@lru_cache(maxsize=64)
def _decode_cell(m: int, g: int, data: bytes) -> Optional[Cell]:
    """Cell (m, g) from the bytes of its cache file, or None for a miss:
    JSON malformed or nested too deeply to parse, malformed fields, another
    version or cell, a Psi that fails `_check_orbit_form`, or an f that
    fails the gates a fresh f passes (`_certified_cell`), so that `f` is
    tied to the `Psi` it came from.

    The result is a function of (m, g, data) alone, so it is memoised on
    exactly those: a process decodes and checks each file's bytes once,
    a rewritten file is decoded afresh, and a cached cell is trusted no
    more than a fresh decode.  Engines share the returned objects; none
    mutates them, and a Cell's dense view is a function of its orbit
    form."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError):
        return None
    try:
        if not isinstance(obj, dict) or obj.get("version") != CACHE_VERSION:
            return None
        if obj.get("m") != m or obj.get("g") != g:
            return None
        orbit = SparsePoly.from_obj(obj["psi"])
        _check_orbit_form(orbit, m, g)
        return _certified_cell(m, g, orbit, SparsePoly.from_obj(obj["f_e"]))
    except (KeyError, TypeError, ValueError, ArithmeticError, RouteDisagreement):
        return None


# ----- orchestration ------------------------------------------------------

def _deps(m: int, g: int) -> List[Tuple[int, int]]:
    """The cells assembly of (m, g) reads, each once, in the order of
    `_summands`: the order `Engine.cell` computes them in."""
    if g == 0 or (m, g) == (1, 1):
        return []
    return list(dict.fromkeys(key for _, _, keys in _summands(m, g) for key in keys))


class Engine:
    """Cell cache plus the induction order, optionally disk-backed."""

    def __init__(self, budgets: Optional[Dict[int, int]] = None,
                 cache_dir: Optional[str] = None):
        self.budgets = dict(DEFAULT_BUDGETS)
        if budgets:
            self.budgets.update(budgets)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._cells: Dict[Tuple[int, int], Cell] = {}

    # -- budget and cache plumbing

    def _check_budget(self, m: int, g: int):
        """Refuse a pair that is no cell (`is_cell`) or lies past its
        genus's budget; a genus without a budget has no cell in it."""
        if not is_cell(m, g) or m > self.budgets.get(g, 0):
            done = sorted(self._cells)
            raise BudgetExceeded(
                f"cell ({m},{g}) is outside the budget {self.budgets}; "
                f"cells computed so far: {done}"
            )

    def _cache_path(self, m: int, g: int) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / _cell_name(m, g)

    def _load(self, m: int, g: int) -> bool:
        """Read a cached cell through `_read_cell_file`, as `read_cell`
        reads the file of the same name; a miss there is a miss here.  The
        path is `_cache_path`'s, joined as a str with no Path parsed."""
        if self.cache_dir is None:
            return False
        hit = _read_cell_file(os.path.join(self.cache_dir, _cell_name(m, g)), m, g)
        if hit is None:
            return False
        self._cells[(m, g)] = hit
        return True

    def _save(self, m: int, g: int):
        path = self._cache_path(m, g)
        if path is None:
            return
        cell = self._cells[(m, g)]
        obj = {
            "version": CACHE_VERSION,
            "m": m,
            "g": g,
            "psi": cell.orbit.to_obj(),
            "f_e": cell.f_e.to_obj(),
        }
        # a reader never sees a half-written file: write aside, then rename
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
            os.replace(tmp, path)
        except OSError:  # the answer stands; a later run computes it again
            with contextlib.suppress(OSError):
                tmp.unlink()

    # -- public access

    def f_result(self, m: int, g: int) -> Cell:
        """The same as `cell`; the benchmark's worker reads it."""
        return self.cell(m, g)

    def cell(self, m: int, g: int) -> Cell:
        key = (m, g)
        if key not in self._cells:
            self._check_budget(m, g)
            if not self._load(m, g):
                for dm, dg in _deps(m, g):
                    self.cell(dm, dg)
                if g == 0:
                    rep = psi0_base(m)
                else:
                    rep = solve_pde(assemble_K(m, g, self._cells))
                # the one check of a fresh cell's form, degrees and vanishing, as a
                # cache read's; only a cell that passes _certified_cell is stored
                _check_orbit_form(rep.orbit, m, g)
                self._cells[key] = extract_f(rep)
                self._save(m, g)
        return self._cells[key]

    def computed_cells(self) -> List[Tuple[int, int]]:
        return sorted(self._cells)
