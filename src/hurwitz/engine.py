"""The cut-and-join pipeline: assemble K, solve the scaled equation,
extract the symmetric polynomial.

Every cell (m, g) with g >= 1 satisfies

    (sum_i w_i d/dw_i + m + 2g - 2) Psi = K

where K collects four kinds of lower-order data: a diagonal limit of the
cell one genus down with one extra variable (T1), a two-variable merge
with an exact division by y_r - y_s (T2), and symmetrized products
pairing a genus-0 cell (T3) or a positive-genus split (T4) against the
rest.  The scaling substitution w -> t w turns the equation into a
per-monomial division, so the solve is: take a w-jet of K on a region
known to contain the answer, divide each w^beta by |beta| + m + 2g - 2,
lift back to a y-polynomial, and verify the equation exactly.  The
verification step, not the degree bookkeeping, is what certifies the
result.

Genus 0 cells come from the closed form (sum x_i d/dx_i)^(m-3) V_m and
never touch the solver.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from .algebra.operators import (
    apply_xdx,
    core_apply_xdx,
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
    w_power_x_table,
)
from .algebra.sym import (
    expand_orbits,
    fit_sym_e_poly,
    is_orbit_exponent,
    orbit_form,
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
    with weakly decreasing exponents.  The dense `poly` is expanded from
    the orbit form on first access and kept; a freshly solved cell passes
    its dense poly in, so only cells read from the cache expand."""

    __slots__ = ("m", "g", "orbit", "_poly")

    def __init__(self, m: int, g: int, orbit: SparsePoly,
                 poly: Optional[SparsePoly] = None):
        self.m = m
        self.g = g
        self.orbit = orbit
        self._poly = poly

    @classmethod
    def from_dense(cls, m: int, g: int, poly: SparsePoly) -> "PsiRep":
        """Wrap a dense Psi that is known to be symmetric."""
        return cls(m, g, orbit_form(poly), poly)

    @property
    def poly(self) -> SparsePoly:
        if self._poly is None:
            self._poly = expand_orbits(self.orbit)
        return self._poly


@dataclass(frozen=True)
class RhsRep:
    m: int
    g: int
    poly: SparsePoly


@dataclass(frozen=True)
class FResult:
    m: int
    g: int
    f_e: SparsePoly


# ----- base cells ---------------------------------------------------------

def psi0_base(m: int) -> PsiRep:
    """Genus 0: (sum_i x_i d/dx_i)^(m-3) applied to prod (y_i - 1).

    A symmetric operator applied to a symmetric polynomial, so the result
    is symmetric by construction."""
    if m < 3:
        raise ValueError("genus-0 cells start at three variables")
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
    return PsiRep.from_dense(m, 0, poly)


# ----- assembly -----------------------------------------------------------

def _sum_permuted(f: SparsePoly, perms) -> SparsePoly:
    """Sum of f.permute(perm) over perms, accumulated on integer numerators."""
    acc: dict = {}
    for perm in perms:
        for e, c in f.permute(perm).num.items():
            acc[e] = acc.get(e, 0) + c
    return SparsePoly.from_core(f.kind, f.arity, acc, f.den)


def theta_symmetrize(f: SparsePoly, i: int, m: int) -> SparsePoly:
    """Sum f over all placements (r; S; T) with |S| = i, S and T sorted.

    f's slots are read as (special, S block, T block); it must already be
    symmetric inside each block for the sum to be placement-independent.
    """
    if f.arity != m:
        raise ValueError("arity mismatch")
    if not 0 <= i <= m - 1:
        raise ValueError("block size out of range")
    perms = []
    for r in range(m):
        rest = [v for v in range(m) if v != r]
        for S in combinations(rest, i):
            sset = set(S)
            perms.append([r] + list(S) + [v for v in rest if v not in sset])
    return _sum_permuted(f, perms)


K11 = SparsePoly(
    "Y", 1, {(4,): Fraction(1, 8), (3,): Fraction(-1, 6), (0,): Fraction(1, 24)}
)


def _pair_product(a: SparsePoly, b: SparsePoly, m: int) -> SparsePoly:
    """Embed two first-slot-differentiated cells sharing the special
    variable and multiply: slots (0; 1..k-1; k..m-1)."""
    k = a.arity
    ae = a.embed(m, [0] + list(range(1, k)))
    be = b.embed(m, [0] + list(range(k, m)))
    return ae * be


def assemble_K(m: int, g: int, psi_cache: Mapping[Tuple[int, int], PsiRep]) -> RhsRep:
    """Right-hand side for cell (m, g), g >= 1, from lower cells."""
    if g < 1:
        raise ValueError("assembly applies to positive genus")
    if (m, g) == (1, 1):
        return RhsRep(1, 1, K11)

    def cell(mm: int, gg: int) -> SparsePoly:
        try:
            return psi_cache[(mm, gg)].poly
        except KeyError:
            raise BudgetExceeded(f"assembly of ({m},{g}) needs cell ({mm},{gg})")

    half = Fraction(1, 2)

    # T1: two derivatives of the (m+1, g-1) cell, then diagonal y_{m+1} -> y_i
    src = cell(m + 1, g - 1)
    folded = diag_fold(apply_xdx(apply_xdx(src, 0), m), 0, m)
    K = theta_symmetrize(folded, 0, m).scale(half)

    # T2: merge two variables through the exact-division kernel
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

    # T3: genus-0 factor times the rest, all variable splits
    for k in range(3, m + 1):
        a = apply_xdx(cell(k, 0), 0)
        b = apply_xdx(cell(m - k + 1, g), 0)
        K = K + theta_symmetrize(_pair_product(a, b, m), k - 1, m)

    # T4: positive-genus splits, halved for the double count
    for ga in range(1, g):
        for k in range(1, m + 1):
            a = apply_xdx(cell(k, ga), 0)
            b = apply_xdx(cell(m - k + 1, g - ga), 0)
            K = K + theta_symmetrize(_pair_product(a, b, m), k - 1, m).scale(half)

    if not K.is_symmetric():
        raise CertificationError(f"assembled K for ({m},{g}) is not symmetric")
    return RhsRep(m, g, K)


# ----- solver -------------------------------------------------------------

def _integral_solve(kpoly: SparsePoly, c: int, pv: int, tot: int) -> SparsePoly:
    """Solve (sum w d/dw + c) Psi = K for the jet region
    {per-variable <= pv, total <= tot}; exact on that region."""
    m = kpoly.arity
    core = core_y_to_u(kpoly.num, m)
    jet = core_u_to_w_jet(core, m, pv, tot)
    scale = math.lcm(*range(c, tot + c + 1))
    jet = {e: v * (scale // (sum(e) + c)) for e, v in jet.items()}
    ucore = core_w_jet_to_u(jet, m, pv, tot)
    ycore = core_u_to_y(ucore, m)
    return SparsePoly.from_core("Y", m, ycore, kpoly.den * scale)


def _residual(psi: SparsePoly, kpoly: SparsePoly, c: int) -> SparsePoly:
    """(sum_i w_i d/dw_i + c) psi - K, by its own integer loop so that the
    solve gate does not share code with apply_wdw."""
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


def _validate_psi(poly: SparsePoly, m: int, g: int):
    if not poly.is_symmetric():
        raise CertificationError(f"cell ({m},{g}) is not symmetric")
    for var in range(m):
        if not poly.substitute_one(var).is_zero():
            raise CertificationError(
                f"cell ({m},{g}) does not vanish at y_{var+1} = 1"
            )
    if g >= 1:
        bound = per_var_bound(m, g)
        if any(d > bound for d in poly.per_var_degrees()):
            raise CertificationError(
                f"cell ({m},{g}) breaks the per-variable bound {bound}"
            )


def solve_pde(K: RhsRep) -> PsiRep:
    """Scaled-integral solve with an exact equation check as the gate."""
    m, g = K.m, K.g
    c = m + 2 * g - 2
    if c < 1:
        raise ValueError("scaling constant must be positive")
    pv, tot = per_var_bound(m, g), total_bound(m, g)
    psi = _integral_solve(K.poly, c, pv, tot)
    if not _residual(psi, K.poly, c).is_zero():
        raise ResidualNonzero(
            f"no y-polynomial solution for ({m},{g}) within degree caps "
            f"{pv} per variable, {tot} total"
        )
    # the orbit form drops terms, so it is taken only once symmetry holds
    _validate_psi(psi, m, g)
    return PsiRep.from_dense(m, g, psi)


# ----- checks every cell passes, fresh or cached ---------------------------
# Psi = f(x d/dx) V_m with f of weighted degree m + 3g - 3 (ELSV), which gives
# Psi total degree total_bound and, through f's e1 power, per_var_bound.

def _check_orbit_form(orbit: SparsePoly, m: int, g: int):
    """Raise CertificationError unless `orbit` is a canonical orbit form
    over m variables with the degrees every solved cell (m, g) attains:
    total degree total_bound(m, g) and, for g >= 1, per-variable degree
    per_var_bound(m, g), which is the first exponent of some term."""
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
    is triangular under containment with a nonzero diagonal, so the fit
    is always determined by this one plan.
    """
    return [p for n in range(m, m + wdeg + 3) for p in partitions_of_length(n, m)]


def _extract_by_samples(psi: SparsePoly, m: int, wdeg: int) -> SparsePoly:
    samples = _sample_plan(m, wdeg)
    nmax = max(p.n for p in samples)
    amax = max(p.parts[0] for p in samples)
    jet = expand_y_to_w(psi, amax, nmax, allow_truncation=True)
    table = w_power_x_table(amax, amax)
    evals = []
    for p in samples:
        coeff = x_coefficient(jet, p.parts, table)
        scale = Fraction(1)
        for a in p.parts:
            scale *= Fraction(math.factorial(a), a ** a)
        evals.append((p.parts, scale * coeff))
    return fit_sym_e_poly(evals, m, wdeg)


def extract_f(psi: PsiRep) -> FResult:
    """Pull out the symmetric polynomial behind a cell, two ways.

    Route one rewrites the cell over the x d/dx operator basis as a
    symmetric polynomial; route two samples x-coefficients at partitions
    and fits.  A disagreement is fatal, and so is a failed `_check_f`.
    """
    m, g = psi.m, psi.g
    f_basis = to_e_basis(xdx_basis_convert(psi.poly, m), m)
    f_fit = _extract_by_samples(psi.poly, m, max(m + 3 * g - 3, 0))
    if f_basis != f_fit:
        raise RouteDisagreement(
            f"operator-basis and sampling extractions differ at ({m},{g})"
        )
    _check_f(f_basis, m, g)
    return FResult(m, g, f_basis)


# ----- disk cache ---------------------------------------------------------

def read_cell(path: Path) -> Optional[Tuple[PsiRep, FResult]]:
    """The cell stored in a cache file, decoded and checked, without
    expanding Psi.  None when the file is a miss: a name that is not a
    cell file, an unreadable or malformed file, another version or cell,
    or a Psi or f that fails `_check_orbit_form` or `_check_f`."""
    name = CELL_FILE.fullmatch(path.name)
    if name is None:
        return None
    m, g = int(name[1]), int(name[2])
    try:
        obj = json.loads(path.read_text())
        if not isinstance(obj, dict) or obj.get("version") != CACHE_VERSION:
            return None
        if obj.get("m") != m or obj.get("g") != g:
            return None
        orbit = SparsePoly.from_obj(obj["psi"])
        _check_orbit_form(orbit, m, g)
        f_e = SparsePoly.from_obj(obj["f_e"])
        _check_f(f_e, m, g)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError):
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
