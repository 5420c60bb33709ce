"""The cut-and-join pipeline: assemble K, solve the scaled equation,
extract the symmetric polynomial.

Every cell (m, g) with g >= 1 satisfies

    (sum_i w_i d/dw_i + m + 2g - 2) Psi = K

where K collects four kinds of lower-order data: a diagonal limit of the
cell one genus down with one extra variable (T1), a two-variable merge
with an exact division by y_r - y_s (T2), and symmetrized products
pairing a genus-0 cell (T3) or a positive-genus split (T4) against the
rest.  K is symmetric, and it is assembled in orbit form, one coefficient
per weakly decreasing exponent, straight from the orbit forms of the
lower cells: each factor keeps only the terms whose symmetric blocks are
sorted, products are convolved over their shared variable one pair of
blocks at a time, and the sum over placements adds each term to its
orbit as often as a placement reads it there.  The assembled K must
vanish at y_1 = 1, as (sum w d/dw + c) Psi does.

The scaling substitution w -> t w turns the equation into a
per-monomial division, so the solve is: take a w-jet of K on a region
known to contain the answer, divide each w^beta by |beta| + m + 2g - 2,
lift back to a y-polynomial, and verify the equation exactly.  Every
jet pass is an orbit sweep (`series.sweep`) from orbit form to orbit
form, and so are both extractions.  The verification is the residual of
Psi against K, taken on the orbit forms: sum w d/dw + c commutes with
permuting the variables, so it is zero exactly when the dense residual
is, and no step of the pipeline expands an orbit form.  That residual,
not the degree bookkeeping, is what certifies the result.

Genus 0 cells come from the closed form (sum x_i d/dx_i)^(m-3) V_m, built
in orbit form, and never touch the solver.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from .algebra.operators import (
    apply_xdx,
    diag_fold,
    divide_ydiff,
    xdx_basis_convert,
)
from .algebra.poly import SparsePoly
from .algebra.series import (
    core_u_to_w_jet,
    core_u_to_y,
    core_w_jet_to_u,
    core_y_to_u,
    expand_y_to_w,
    x_coefficient,
)
# fit_sym_e_poly is not called here; it stays bound because the
# benchmark's layer hooks (perfbench/layers.py) wrap it on this module
from .algebra.sym import (
    e_value,
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
from .partitions import Partition, partitions_of_length

__all__ = [
    "PsiRep",
    "RhsRep",
    "FResult",
    "psi0_base",
    "theta_symmetrize",
    "assemble_K",
    "solve_pde",
    "extract_f",
    "Engine",
    "DEFAULT_BUDGETS",
    "INPUT_N_MAX",
    "INPUT_J_MAX",
    "per_var_bound",
    "read_cell",
]

DEFAULT_BUDGETS = {0: 8, 1: 6, 2: 4, 3: 3, 4: 2}
# Largest weight n and transposition count j = n + m + 2g - 2 a request may
# ask for.  At j = 160 the slowest closed form, one part at genus 55 to 75,
# takes about 0.05 s; every count printed stays far below the 4,300 digits
# CPython will convert to a string.
INPUT_N_MAX = 160
INPUT_J_MAX = 160
# version 2 stores Psi in orbit form; version 1 stored it dense
CACHE_VERSION = 2
CELL_FILE = re.compile(r"psi_m([1-9][0-9]*)_g(0|[1-9][0-9]*)\.json")


def per_var_bound(m: int, g: int) -> int:
    """Per-variable y-degree bound for a positive-genus cell."""
    return 2 * m + 6 * g - 5


def total_bound(m: int, g: int) -> int:
    """Total y-degree bound: m more than the top per-variable excess."""
    if g == 0:
        return 3 * m - 6
    return 3 * m + 6 * g - 6


class PsiRep:
    """A solved cell, held in orbit form: the terms of the symmetric Psi
    with weakly decreasing exponents.  No engine step reads the dense
    `poly`; it is expanded from the orbit form on first access, for
    callers that want the whole polynomial, and kept."""

    __slots__ = ("m", "g", "orbit", "_poly")

    def __init__(self, m: int, g: int, orbit: SparsePoly):
        self.m = m
        self.g = g
        self.orbit = orbit
        self._poly: Optional[SparsePoly] = None

    @property
    def poly(self) -> SparsePoly:
        if self._poly is None:
            self._poly = expand_orbits(self.orbit)
        return self._poly


class RhsRep(PsiRep):
    """The right side K of cell (m, g), in orbit form like a cell, with
    the same lazy dense `poly`."""

    __slots__ = ()


class FResult(NamedTuple):
    m: int
    g: int
    f_e: SparsePoly


# ----- orbit-form building blocks ---------------------------------------
# A factor of K is held as the terms of a polynomial whose slots after the
# special ones form symmetric blocks, keeping only the terms whose blocks
# are weakly decreasing.  apply_xdx, diag_fold and divide_ydiff act on the
# special slots alone, so they map these terms to each other unchanged.

Rows = Iterable[Tuple[tuple, tuple, Dict[int, int]]]


def _block_view(orbit: SparsePoly, k: int) -> SparsePoly:
    """The terms of the symmetric polynomial with orbit form `orbit` whose
    exponents weakly decrease after the first k slots, each once."""
    num: dict = {}
    for lam, c in orbit.num.items():
        heads = [((), lam)]
        for _ in range(k):
            heads = [(h + (v,), rest) for h, tail in heads
                     for v, rest in removals(tail)]
        for h, rest in heads:
            num[h + rest] = c
    return SparsePoly.from_core(orbit.kind, orbit.arity, num, orbit.den)


def _rows(f: SparsePoly, i: int) -> Rows:
    """f's terms as (S block, T block, {special exponent: numerator}),
    reading f's slots as (special, S = the next i, T = the rest)."""
    rows: dict = {}
    for e, c in f.num.items():
        rows.setdefault((e[1:i + 1], e[i + 1:]), {})[e[0]] = c
    return [(bs, bt, row) for (bs, bt), row in rows.items()]


def _product_rows(a: SparsePoly, b: SparsePoly) -> Rows:
    """The rows of a(y_0, y_S) b(y_0, y_T), one pair of blocks at a time:
    the two factors are convolved over the shared special slot and the
    product is never built."""
    b_rows = _rows(b, 0)
    for bs, _, ra in _rows(a, a.arity - 1):
        for _, bt, rb in b_rows:
            row: dict = {}
            for p, x in ra.items():
                for q, y in rb.items():
                    row[p + q] = row.get(p + q, 0) + x * y
            yield bs, bt, row


def _aut(e: Sequence[int]) -> int:
    """The order of the stabilizer of e: prod over values of mult!."""
    n = 1
    run = 0
    for i, v in enumerate(e):
        run = run + 1 if i and e[i - 1] == v else 1
        n *= run
    return n


def theta_symmetrize(rows: Rows, m: int, den: int = 1) -> SparsePoly:
    """Orbit form of the sum of a summand over every placement (r; S; T):
    r one of the m slots and S, T the other slots split in increasing
    order, with |S| the length of the summand's S blocks.

    The summand comes as rows (bS, bT, {k: c}): its coefficient at
    y_r^k y_S^bS y_T^bT is c / den, for weakly decreasing bS and bT.  It
    must be symmetric within S and within T, so that these rows fix it.
    A term lands on the orbit of its sorted exponent lam once for every
    placement that reads it there: aut(lam) / (aut(bS) aut(bT)) times,
    aut(e) being the product of the factorials of e's multiplicities.
    That is aut(bS + bT) / (aut(bS) aut(bT)) times the multiplicity of k
    in lam.  There are m C(m-1, |S|) placements in all.
    """
    acc: dict = {}
    for bs, bt, row in rows:
        tail = bs + bt
        w = _aut(sorted(tail)) // (_aut(bs) * _aut(bt))
        for k, c in row.items():
            lam = tuple(sorted(tail + (k,), reverse=True))
            acc[lam] = acc.get(lam, 0) + w * (tail.count(k) + 1) * c
    return SparsePoly.from_core("Y", m, acc, den)


def _vanishes_at_one(orbit: SparsePoly) -> bool:
    """Whether the symmetric polynomial with orbit form `orbit` vanishes
    at y_1 = 1: the coefficient of y_rest there sums the orbit
    coefficients at sort(k, rest) over every k."""
    acc: dict = {}
    for lam, c in orbit.num.items():
        for _, rest in removals(lam):
            acc[rest] = acc.get(rest, 0) + c
    return not any(acc.values())


# ----- base cells ---------------------------------------------------------

def psi0_base(m: int) -> PsiRep:
    """Genus 0: (sum_i x_i d/dx_i)^(m-3) applied to prod (y_i - 1).

    A symmetric operator applied to a symmetric polynomial, built in orbit
    form: sum_i x_i d/dx_i is the placement sum of x_1 d/dx_1 over the
    choices of the first variable.  The dense view is expanded on access."""
    if m < 3:
        raise ValueError("genus-0 cells start at three variables")
    orbit = SparsePoly.from_core(
        "Y", m, {(1,) * j + (0,) * (m - j): (-1) ** (m - j) for j in range(m + 1)})
    for _ in range(m - 3):
        f = apply_xdx(_block_view(orbit, 1), 0)
        orbit = theta_symmetrize(_rows(f, 0), m, f.den)
    return PsiRep(m, 0, orbit)


# ----- assembly -----------------------------------------------------------

K11 = SparsePoly(
    "Y", 1, {(4,): Fraction(1, 8), (3,): Fraction(-1, 6), (0,): Fraction(1, 24)}
)


def assemble_K(m: int, g: int, psi_cache: Mapping[Tuple[int, int], PsiRep]) -> RhsRep:
    """Right-hand side for cell (m, g), g >= 1, in orbit form, from the
    orbit forms of lower cells."""
    if g < 1:
        raise ValueError("assembly applies to positive genus")
    if (m, g) == (1, 1):
        return RhsRep(1, 1, K11)

    def factor(mm: int, gg: int, k: int = 1) -> SparsePoly:
        """x_1 d/dx_1 of cell (mm, gg), block-sorted after k slots."""
        try:
            orbit = psi_cache[(mm, gg)].orbit
        except KeyError:
            raise BudgetExceeded(f"assembly of ({m},{g}) needs cell ({mm},{gg})")
        return apply_xdx(_block_view(orbit, k), 0)

    def theta(f: SparsePoly, i: int) -> SparsePoly:
        return theta_symmetrize(_rows(f, i), m, f.den)

    def theta2(a: SparsePoly, b: SparsePoly) -> SparsePoly:
        return theta_symmetrize(_product_rows(a, b), m, a.den * b.den)

    half = Fraction(1, 2)

    # T1: two derivatives of the (m+1, g-1) cell, then diagonal y_2 -> y_1
    folded = diag_fold(apply_xdx(factor(m + 1, g - 1, 2), 1), 0, 1)
    K = theta(folded, 0).scale(half)

    # T2: merge two variables through the exact-division kernel; the
    # quotient is symmetric in its first two slots, so the sum over ordered
    # pairs (r; s) counts each unordered pair twice
    if m >= 2:
        xg = factor(m - 1, g)
        gr = xg.embed(m, [0] + list(range(2, m)))
        gs = xg.embed(m, [1] + list(range(2, m)))
        y_r = SparsePoly.variable("Y", m, 0)
        y_s = SparsePoly.variable("Y", m, 1)
        one = SparsePoly.const("Y", m, 1)
        num = (y_s - one) * y_r * y_r * gr - (y_r - one) * y_s * y_s * gs
        K = K + theta(divide_ydiff(num, 0, 1), 1).scale(half)

    # T3: genus-0 factor times the rest, all variable splits
    for k in range(3, m + 1):
        K = K + theta2(factor(k, 0), factor(m - k + 1, g))

    # T4: positive-genus splits, halved for the double count
    for ga in range(1, g):
        for k in range(1, m + 1):
            K = K + theta2(factor(k, ga), factor(m - k + 1, g - ga)).scale(half)

    # K = (sum w d/dw + c) Psi keeps Psi's root y_1 = 1: w_1 d/dw_1 sends
    # y_1^k to k y_1^k (y_1 - 1), and the other terms act on other slots
    if not _vanishes_at_one(K):
        raise CertificationError(f"assembled K for ({m},{g}) does not vanish at y_1 = 1")
    return RhsRep(m, g, K)


# ----- solver -------------------------------------------------------------

def _integral_solve(korbit: SparsePoly, c: int, pv: int, tot: int) -> SparsePoly:
    """Solve (sum w d/dw + c) Psi = K for the jet region
    {per-variable <= pv, total <= tot}, orbit form in and out; exact on
    that region.  Dividing w^beta by |beta| + c is symmetric, so it
    acts on the orbit terms as they are."""
    m = korbit.arity
    core = core_y_to_u(korbit.num, m)
    jet = core_u_to_w_jet(core, m, pv, tot)
    scale = math.lcm(*range(c, tot + c + 1))
    jet = {e: v * (scale // (sum(e) + c)) for e, v in jet.items()}
    ucore = core_w_jet_to_u(jet, m, pv, tot)
    ycore = core_u_to_y(ucore, m)
    return SparsePoly.from_core("Y", m, ycore, korbit.den * scale)


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


def _validate_psi(orbit: SparsePoly, m: int, g: int):
    """The orbit form is symmetric by construction, so vanishing at
    y_1 = 1 is vanishing at every y_i = 1, and its first exponents carry
    the per-variable degree."""
    if not _vanishes_at_one(orbit):
        raise CertificationError(f"cell ({m},{g}) does not vanish at y_1 = 1")
    if g >= 1:
        bound = per_var_bound(m, g)
        if max((e[0] for e in orbit.num), default=0) > bound:
            raise CertificationError(
                f"cell ({m},{g}) breaks the per-variable bound {bound}"
            )


def solve_pde(K: RhsRep) -> PsiRep:
    """Scaled-integral solve on the orbit form, with the exact equation
    check on the orbit forms as the gate."""
    m, g = K.m, K.g
    c = m + 2 * g - 2
    if c < 1:
        raise ValueError("scaling constant must be positive")
    pv, tot = per_var_bound(m, g), total_bound(m, g)
    orbit = _integral_solve(K.orbit, c, pv, tot)
    if not _orbit_residual(orbit, K.orbit, c).is_zero():
        raise ResidualNonzero(
            f"no y-polynomial solution for ({m},{g}) within degree caps "
            f"{pv} per variable, {tot} total"
        )
    _validate_psi(orbit, m, g)
    return PsiRep(m, g, orbit)


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

def _sample_plan(m: int, wdeg: int) -> List[Partition]:
    """The m-part partitions of weight m .. m + wdeg + 2.

    They include every 1^m + lam with |lam| <= wdeg, and on those points
    the symmetrized binomial basis sum_sigma prod_i C(lam_i, mu_sigma(i))
    is triangular under containment with a nonzero diagonal, so every
    e-polynomial of weighted degree <= wdeg is determined by its values
    on this one plan.
    """
    return [p for n in range(m, m + wdeg + 3) for p in partitions_of_length(n, m)]


def _sampled_values(orbit: SparsePoly, m: int, wdeg: int) -> List[Tuple[tuple, Fraction]]:
    """(parts, f at parts) for every partition of `_sample_plan`, each
    value read off an x-coefficient of the cell."""
    samples = _sample_plan(m, wdeg)
    nmax = max(p.n for p in samples)
    amax = max(p.parts[0] for p in samples)
    jet = expand_y_to_w(orbit, amax, nmax, allow_truncation=True)
    memo: dict = {}
    evals = []
    for p in samples:
        coeff = x_coefficient(jet, p.parts, memo)
        scale = Fraction(1)
        for a in p.parts:
            scale *= Fraction(math.factorial(a), a ** a)
        evals.append((p.parts, scale * coeff))
    return evals


def _check_samples(orbit: SparsePoly, f_e: SparsePoly, m: int, g: int):
    """Raise RouteDisagreement unless `f_e` takes, at every partition of
    `_sample_plan`, the value read off the cell's x-coefficients.  The
    plan is unisolvent for e-polynomials of f's weighted degree, so for
    an `f_e` that passes `_check_f` this is exactly agreement with the
    polynomial the samples fit."""
    for parts, value in _sampled_values(orbit, m, max(m + 3 * g - 3, 0)):
        if e_value(f_e, parts) != value:
            raise RouteDisagreement(
                f"operator-basis extraction misses the sampled value at "
                f"{parts} of ({m},{g})"
            )


def extract_f(psi: PsiRep) -> FResult:
    """Pull out the symmetric polynomial behind a cell, and check it.

    The operator-basis route rewrites the cell over the x d/dx basis as
    a symmetric polynomial f, which must pass `_check_f`.  The sampling
    route reads f's value at every partition of `_sample_plan` off the
    cell's x-coefficients, and f must take each of those values
    (`_check_samples`).  Both read the orbit form; a mismatch is fatal.
    """
    m, g = psi.m, psi.g
    f_e = to_e_basis(xdx_basis_convert(psi.orbit, m), m)
    _check_f(f_e, m, g)
    _check_samples(psi.orbit, f_e, m, g)
    return FResult(m, g, f_e)


# ----- disk cache ---------------------------------------------------------

def read_cell(path: Path) -> Optional[Tuple[PsiRep, FResult]]:
    """The cell stored in a cache file, decoded and checked, without
    expanding Psi; None when the file is a miss.  A name that is not a
    cell file and a file that cannot be read are misses; the bytes read
    go to `_decode_cell`."""
    name = CELL_FILE.fullmatch(path.name)
    if name is None:
        return None
    try:
        data = path.read_bytes()
    except OSError:
        return None
    return _decode_cell(int(name[1]), int(name[2]), data)


@lru_cache(maxsize=64)
def _decode_cell(m: int, g: int, data: bytes) -> Optional[Tuple[PsiRep, FResult]]:
    """Cell (m, g) from the bytes of its cache file, or None for a miss:
    malformed JSON or fields, another version or cell, a Psi that fails
    `_check_orbit_form`, or an f that fails `_check_f` or does not take
    the values the sampling route reads off that Psi (`_check_samples`),
    so that `f` is tied to the `Psi` it came from.

    The result is a function of (m, g, data) alone, so it is memoised on
    exactly those: a process decodes and checks each file's bytes once,
    a rewritten file is decoded afresh, and a cached cell is trusted no
    more than a fresh decode.  Engines share the returned objects; none
    mutates them, and a PsiRep's dense view is a function of its orbit
    form."""
    try:
        obj = json.loads(data)
        if not isinstance(obj, dict) or obj.get("version") != CACHE_VERSION:
            return None
        if obj.get("m") != m or obj.get("g") != g:
            return None
        orbit = SparsePoly.from_obj(obj["psi"])
        _check_orbit_form(orbit, m, g)
        f_e = SparsePoly.from_obj(obj["f_e"])
        _check_f(f_e, m, g)
        _check_samples(orbit, f_e, m, g)
    except (KeyError, TypeError, ValueError, ArithmeticError, RouteDisagreement):
        return None
    return PsiRep(m, g, orbit), FResult(m, g, f_e)


# ----- orchestration ------------------------------------------------------

def _deps(m: int, g: int) -> List[Tuple[int, int]]:
    if g == 0 or (m, g) == (1, 1):
        return []
    out = [(m + 1, g - 1)]
    if m >= 2:
        out.append((m - 1, g))
    for k in range(3, m + 1):
        out.append((k, 0))
        out.append((m - k + 1, g))
    for ga in range(1, g):
        for k in range(1, m + 1):
            out.append((k, ga))
            out.append((m - k + 1, g - ga))
    seen = set()
    uniq = []
    for d in out:
        if d not in seen and d != (m, g):
            seen.add(d)
            uniq.append(d)
    return uniq


class Engine:
    """Cell cache plus the induction order, optionally disk-backed."""

    def __init__(self, budgets: Optional[Dict[int, int]] = None,
                 cache_dir: Optional[str] = None):
        self.budgets = dict(DEFAULT_BUDGETS)
        if budgets:
            self.budgets.update(budgets)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._psi: Dict[Tuple[int, int], PsiRep] = {}
        self._f: Dict[Tuple[int, int], FResult] = {}

    # -- budget and cache plumbing

    def _check_budget(self, m: int, g: int):
        lim = self.budgets.get(g)
        if lim is None or m < 1 or m > lim or (g == 0 and m < 3):
            done = sorted(self._psi)
            raise BudgetExceeded(
                f"cell ({m},{g}) is outside the budget {self.budgets}; "
                f"cells computed so far: {done}"
            )

    def _cache_path(self, m: int, g: int) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"psi_m{m}_g{g}.json"

    def _load(self, m: int, g: int) -> bool:
        """Read a cached cell; a file `read_cell` rejects is a miss."""
        path = self._cache_path(m, g)
        hit = None if path is None else read_cell(path)
        if hit is None:
            return False
        self._psi[(m, g)], self._f[(m, g)] = hit
        return True

    def _save(self, m: int, g: int):
        path = self._cache_path(m, g)
        if path is None:
            return
        psi = self._psi[(m, g)]
        f = self._f[(m, g)]
        obj = {
            "version": CACHE_VERSION,
            "m": m,
            "g": g,
            "psi": psi.orbit.to_obj(),
            "f_e": f.f_e.to_obj(),
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

    def psi(self, m: int, g: int) -> PsiRep:
        return self.cell(m, g)[0]

    def f_result(self, m: int, g: int) -> FResult:
        return self.cell(m, g)[1]

    def cell(self, m: int, g: int) -> Tuple[PsiRep, FResult]:
        key = (m, g)
        if key not in self._f:
            self._check_budget(m, g)
            if not self._load(m, g):
                for dm, dg in _deps(m, g):
                    self.cell(dm, dg)
                if g == 0:
                    rep = psi0_base(m)
                else:
                    rep = solve_pde(assemble_K(m, g, self._psi))
                # as a cache read does; extract_f runs _check_f before _f marks it done
                _check_orbit_form(rep.orbit, m, g)
                self._psi[key] = rep
                self._f[key] = extract_f(rep)
                self._save(m, g)
        return self._psi[key], self._f[key]

    def computed_cells(self) -> List[Tuple[int, int]]:
        return sorted(self._f)
