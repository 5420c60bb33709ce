"""Truncated series, the tree function, and exact jet transforms.

The coordinate chain is x -> w -> y:

    w = x e^w                 (tree function, [x^n]w = n^(n-1)/n!)
    y = 1/(1 - w),  so  y - 1 = w/(1 - w)

Every polynomial and jet here is symmetric and held in orbit form: the
terms with weakly decreasing exponents, one per orbit of the symmetric
group (see `sym`).  Every change of coordinates is one triangular
integer table applied to every variable by `sweep`, which maps an orbit
form straight to the orbit form of the image and never expands it; the
four jet passes differ only in the table, built once per call (u = y - 1,
so w = u/(1 + u)):

    y -> u   y^k = sum_{l <= k} C(k, l) u^l
    u -> y   u^l = sum_{k <= l} (-1)^(l-k) C(l, k) y^k
    u -> w   u^l = sum_{j >= l} C(j-1, l-1) w^j              (l >= 1)
    w -> u   w^j = sum_{l >= j} (-1)^(l-j) C(l-1, j-1) u^l   (j >= 1)

The last two are unitriangular and inverse to each other, so converting
between y-polynomials and w-jets needs no divisions and inverts exactly
on any downward-closed exponent region (a per-variable cap together with
a total-degree cap).  This is what makes the jet fits in the solver
trustworthy: coefficients recovered inside the region are the true ones
unconditionally.  The transforms run on the integer numerators of a
SparsePoly; its shared denominator passes through unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .poly import SparsePoly
from .sym import is_orbit_exponent, removals

__all__ = [
    "TruncSeries",
    "tree_coeffs",
    "expand_y_to_w",
    "x_coefficient",
]

Core = Dict[tuple, int]


# ----- truncated series ---------------------------------------------------

class TruncSeries:
    """A symmetric jet: polynomial data valid only inside explicit caps,
    with `base` in orbit form.

    Exponents absent from `base` are zero inside the caps and unknown
    outside them.
    """

    __slots__ = ("base", "per_var_cap", "total_cap")

    def __init__(self, base: SparsePoly, per_var_cap: int, total_cap: int):
        self.base = base
        self.per_var_cap = per_var_cap
        self.total_cap = total_cap
        for e in base.num:
            if any(k < 0 or k > per_var_cap for k in e) or sum(e) > total_cap:
                raise ValueError(f"stored exponent {e} violates the caps")
            if not is_orbit_exponent(e):
                raise ValueError(f"stored exponent {e} is not an orbit representative")

    @property
    def kind(self) -> str:
        return self.base.kind

    @property
    def arity(self) -> int:
        return self.base.arity

    def coeff(self, exps) -> Fraction:
        exps = tuple(exps)
        if any(k > self.per_var_cap for k in exps) or sum(exps) > self.total_cap:
            raise KeyError(f"{exps} lies outside the caps of this jet")
        return self.base.coeff(sorted(exps, reverse=True))


def tree_coeffs(nmax: int) -> list:
    """[x^n] w for n = 0..nmax."""
    out = [Fraction(0)]
    for n in range(1, nmax + 1):
        out.append(Fraction(n ** (n - 1), math.factorial(n)))
    return out


# ----- the orbit sweep ------------------------------------------------------

def sweep(core: Core, arity: int, rows, total: int | None = None) -> Core:
    """Apply one triangular table to every variable of a symmetric
    polynomial, given and returned in orbit form.

    rows[k] lists (l, a) pairs in ascending l: every exponent k becomes
    sum a * (exponent l), the other exponents riding along.  With
    `total`, targets beyond total minus the other exponents are dropped.

    A state S + U joins the swept block S to the unswept block U, both
    weakly decreasing.  One step takes each distinct v of U once (the
    arrangements of an orbit differ in which value goes where, not in
    which copy) and appends each target l <= min(S), so that S stays
    sorted: a term with an unsorted S lies off the orbit form.  After
    `arity` steps S is the exponent of the image.
    """
    if not all(map(is_orbit_exponent, core)):
        raise ValueError("sweep wants an orbit form: weakly decreasing exponents")
    for i in range(arity):
        out: Core = {}
        get = out.get
        unswept: dict = {}  # removals of each unswept block, made once
        for e, c in core.items():
            u = e[i:]
            rem = unswept.get(u)
            if rem is None:
                rem = unswept[u] = removals(u)
            head = e[:i]
            top = e[i - 1] if i else math.inf
            room = math.inf if total is None else total - sum(e)
            for v, rest in rem:
                cap = room + v
                if cap > top:
                    cap = top
                for l, a in rows[v]:
                    if l > cap:
                        break
                    key = head + (l,) + rest
                    out[key] = get(key, 0) + a * c
        core = {e: c for e, c in out.items() if c}
    return core


def top_exponent(core: Core) -> int:
    """The largest exponent in core, which sizes a sweep table.  A table
    would read a negative exponent from its far end, so it is refused."""
    if min(map(min, filter(None, core)), default=0) < 0:
        raise ValueError("negative exponent has no polynomial form")
    return max(map(max, filter(None, core)), default=0)


# ----- the four jet passes ------------------------------------------------

def core_y_to_u(core: Core, arity: int) -> Core:
    """Rewrite y-monomials in u = y - 1: y^k = sum_l C(k, l) u^l."""
    rows = [[(l, math.comb(k, l)) for l in range(k + 1)]
            for k in range(top_exponent(core) + 1)]
    return sweep(core, arity, rows)


def core_u_to_y(core: Core, arity: int) -> Core:
    """Inverse of core_y_to_u: u^l = (y - 1)^l."""
    rows = [[(k, (-1) ** (l - k) * math.comb(l, k)) for k in range(l + 1)]
            for l in range(top_exponent(core) + 1)]
    return sweep(core, arity, rows)


def core_u_to_w_jet(core: Core, arity: int, per_var: int, total: int) -> Core:
    """w-jet of a u-polynomial on {e_i <= per_var, |e| <= total}.

    The per-variable map u^l -> sum_{j >= l} C(j-1, l-1) w^j only raises
    exponents, so truncating during the sweep loses nothing inside the
    region.
    """
    rows = [[(0, 1)]] + [[(j, math.comb(j - 1, l - 1)) for j in range(l, per_var + 1)]
                         for l in range(1, top_exponent(core) + 1)]
    return sweep(core, arity, rows, total)


def core_w_jet_to_u(core: Core, arity: int, per_var: int, total: int) -> Core:
    """Invert core_u_to_w_jet on the same region.

    From w = u/(1 + u), w^j = sum_{l >= j} (-1)^(l-j) C(l-1, j-1) u^l for
    j >= 1; this map too only raises exponents.
    """
    rows = [[(0, 1)]] + [[(l, (-1) ** (l - j) * math.comb(l - 1, j - 1))
                          for l in range(j, per_var + 1)]
                         for j in range(1, top_exponent(core) + 1)]
    return sweep(core, arity, rows, total)


# ----- public conversions -------------------------------------------------

def expand_y_to_w(
    p: SparsePoly,
    per_var_cap: int,
    total_cap: int | None = None,
    *,
    allow_truncation: bool = False,
) -> TruncSeries:
    """w-jet of a symmetric polynomial in y, both in orbit form.

    By default the cap must dominate the per-variable degree of p, so the
    jet determines p.  The sampling extraction passes allow_truncation=True
    to take deliberately partial jets on a downward-closed region.
    """
    if p.kind != "Y":
        raise ValueError("expand_y_to_w wants a Y polynomial")
    if not allow_truncation and any(d > per_var_cap for d in p.per_var_degrees()):
        raise ValueError(
            f"per-variable cap {per_var_cap} is below the degree of the input; "
            "a fit from this jet would be underdetermined"
        )
    if total_cap is None:
        total_cap = per_var_cap * p.arity
    core = core_y_to_u(p.num, p.arity)
    core = core_u_to_w_jet(core, p.arity, per_var_cap, total_cap)
    jet = SparsePoly.from_core("W", p.arity, core, p.den)
    return TruncSeries(jet, per_var_cap, total_cap)


# ----- x-coordinates ------------------------------------------------------

@lru_cache(maxsize=None)
def _x_column(a: int) -> Tuple[tuple, int]:
    """(col, den) with [x^a] w^d = col[d] / den for d <= a.

    [x^a] w^d = d a^(a-d-1) / (a-d)! for 1 <= d <= a (Lagrange), which
    is d a!/(a-d)! a^(a-d) over a a!; it vanishes for d > a and, at
    a >= 1, for d = 0."""
    if not a:
        return (1,), 1
    fa = math.factorial(a)
    return tuple(d * (fa // math.factorial(a - d)) * a ** (a - d)
                 for d in range(a + 1)), a * fa


def x_coefficient(jet: TruncSeries, alpha, memo: dict | None = None) -> Fraction:
    """[x^alpha] of the symmetric function behind a w-jet.

    Needs the jet to cover the box {e <= alpha componentwise}; beyond it
    nothing contributes since [x^a] w^d = 0 for d > a.  The orbit jet G
    is contracted one part a of alpha at a time, on integers:
    G'[U minus v] += G[U] col[v] over the distinct v of U, with the
    column of `_x_column(a)`.  Calls on one jet that share a `memo`
    dict share the contraction of a common prefix of alpha.
    """
    if jet.kind != "W":
        raise ValueError("x_coefficient wants a W jet")
    alpha = tuple(alpha)
    if len(alpha) != jet.arity:
        raise ValueError("alpha length must match jet arity")
    if any(a > jet.per_var_cap for a in alpha) or sum(alpha) > jet.total_cap:
        raise ValueError("jet caps too small for this x-coefficient")
    if memo is None:
        memo = {}
    level, den = jet.base.num, jet.base.den
    for i, a in enumerate(alpha):
        col, d = _x_column(a)
        den *= d
        nxt = memo.get(alpha[:i + 1])
        if nxt is None:
            nxt = {}
            for e, c in level.items():
                for v, rest in removals(e):
                    if v <= a and col[v]:
                        nxt[rest] = nxt.get(rest, 0) + c * col[v]
            memo[alpha[:i + 1]] = nxt
        level = nxt
    return Fraction(level.get((), 0), den)
