"""Truncated series, the tree function, and exact jet transforms.

The coordinate chain is x -> w -> y:

    w = x e^w                 (tree function, [x^n]w = n^(n-1)/n!)
    y = 1/(1 - w),  so  y - 1 = w/(1 - w)

Every polynomial and jet here is symmetric and held in orbit form: the
terms with weakly decreasing exponents, one per orbit of the symmetric
group (see `sym`).  Every change of coordinates is one triangular
integer table applied to every variable by `sweep`, which maps an orbit
form straight to the orbit form of the image and never expands it.  It
sweeps the slots right to left, so a target is never below the targets
already placed to its right, and a total cap drops every image term of
total above it for any table, raising or lowering.  The four jet passes
differ only in the table, built once per call (u = y - 1, so
w = u/(1 + u)):

    y -> u   y^k = sum_{l <= k} C(k, l) u^l
    u -> y   u^l = sum_{k <= l} (-1)^(l-k) C(l, k) y^k
    u -> w   u^l = sum_{j >= l} C(j-1, l-1) w^j              (l >= 1)
    w -> u   w^j = sum_{l >= j} (-1)^(l-j) C(l-1, j-1) u^l   (j >= 1)

The last two are unitriangular and inverse to each other, so converting
between y-polynomials and w-jets needs no divisions and inverts exactly
on any downward-closed exponent region (a per-variable cap together with
a total-degree cap): coefficients recovered inside the region are the
true ones unconditionally.  The transforms run on the integer numerators
of a SparsePoly; its shared denominator passes through unchanged.

The sampling extraction skips w.  `x_orbit` reads x-coefficients off a
y-polynomial by two sweeps under one total cap, y -> u restricted to
exponents 1 .. amax, then the raising table

    u -> x   a! [x^a] u^l = l (a-1)! sum_{i=0}^{a-l} C(l+i, i) a^(a-l-i) / (a-l-i)!

(`u_to_x_rows`, for 1 <= l <= a), which is Lagrange inversion of
w = x e^w with u = w/(1 - w).  The engine solves in y and calls none of
the four jet passes; `expand_y_to_w` and `x_coefficient` remain as the
w-jet route the sampling values are tested against.
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
    "u_to_x_rows",
    "x_orbit",
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
    `total`, the image terms of total above it are dropped.

    The slots are swept right to left.  A state U + T joins the unswept
    block U to the swept tail T, both weakly decreasing.  One step takes
    each distinct v of U once (the arrangements of an orbit differ in
    which value goes where, not in which copy) and puts each target
    l >= T[0] in front of T, so that T stays sorted: a term with an
    unsorted T lies off the orbit form.  After `arity` steps T is the
    exponent of the image.

    At slot i the i slots left of the new target all end at l or above,
    so every image of the state has total at least sum(T) + (i + 1) l,
    whatever the table: with `total`, a target above
    (total - sum(T)) // (i + 1) is dropped.  Two more caps are read off
    the table itself.  A raising table (no target below its source)
    keeps the unswept exponents at or above where they are, so it also
    drops a target above total minus the other exponents.  A lowering
    table (no target above its source) can bring no unswept exponent up
    to l unless it is already there, so it drops a target above the
    least of the others.  `core` must be an orbit form; it is checked
    once per whole polynomial, in `top_exponent`, not here.
    """
    raising = total is not None and all(not r or r[0][0] >= k for k, r in enumerate(rows))
    lowering = all(not r or r[-1][0] <= k for k, r in enumerate(rows))
    for i in range(arity - 1, -1, -1):
        out: Core = {}
        get = out.get
        unswept: dict = {}  # removals of each unswept block, made once
        for e, c in core.items():
            u = e[:i + 1]
            rem = unswept.get(u)
            if rem is None:
                rem = unswept[u] = removals(u)
            tail = e[i + 1:]
            low = tail[0] if tail else 0
            cap = math.inf if total is None else (total - sum(tail)) // (i + 1)
            if raising:
                room = total - sum(e)
            for v, rest in rem:
                top = cap
                if raising and room + v < top:
                    top = room + v
                if lowering and rest and rest[-1] < top:
                    top = rest[-1]
                for l, a in rows[v]:
                    if l < low:
                        continue
                    if l > top:
                        break
                    key = rest + (l,) + tail
                    out[key] = get(key, 0) + a * c
        core = {e: c for e, c in out.items() if c}
    return core


def top_exponent(core: Core) -> int:
    """The largest exponent in core, which sizes a sweep table.  A negative
    exponent (a table reads it from its far end) and one off the orbit
    form (its sweep loses its orbit's other terms) are refused."""
    if min(map(min, filter(None, core)), default=0) < 0:
        raise ValueError("negative exponent has no polynomial form")
    if not all(map(is_orbit_exponent, core)):
        raise ValueError("sweep wants an orbit form: weakly decreasing exponents")
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
    jet determines p.  allow_truncation=True takes a deliberately partial
    jet on a downward-closed region, such as the box the sampling values
    are read from by `x_coefficient` (the route `x_orbit` is tested
    against).
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


@lru_cache(maxsize=None)
def u_to_x_rows(amax: int) -> tuple:
    """The u -> x raising table up to x^amax, as sweep rows: rows[l]
    lists (a, a! [x^a] u^l) for l <= a <= amax.

    By Lagrange inversion of w = x e^w, [x^a] H(w) is
    (1/a) [w^(a-1)] H'(w) e^(aw); for H = u^l = (w/(1 - w))^l,
    H' = l w^(l-1) (1 - w)^-(l+1), so

        a! [x^a] u^l = l (a-1)! sum_{i=0}^{a-l} C(l+i, i) a^(a-l-i) / (a-l-i)!

    and every term is an integer, since a - l - i <= a - 1 for l >= 1.
    Row 0 is u^0 = x^0."""
    rows = [((0, 1),)]
    for l in range(1, amax + 1):
        rows.append(tuple(
            (a, l * sum(math.comb(l + i, i) * a ** (a - l - i)
                        * (math.factorial(a - 1) // math.factorial(a - l - i))
                        for i in range(a - l + 1)))
            for a in range(l, amax + 1)))
    return tuple(rows)


def x_orbit(p: SparsePoly, amax: int, total: int) -> Core:
    """The x-coefficients of a symmetric y-polynomial at every exponent
    alpha with entries in 1 .. amax and |alpha| <= total, in orbit form:
    alpha maps to p.den prod_i alpha_i! [x^alpha] p, an integer.

    Two sweeps, both capped at `total`.  y -> u keeps only the targets
    1 <= l <= amax: [x^a] u^0 vanishes at a >= 1, and u^l reaches only
    x^a with a >= l, so the dropped terms reach no such alpha.  So row 0
    is empty, and the terms with a zero exponent are left out before the
    sweep.  For the same reason a u-term of total above `total` reaches
    only alpha of total above it, so the first sweep drops those too.
    u -> x (`u_to_x_rows`) only raises exponents, and its cap drops
    exactly the alpha outside the region.
    """
    if p.kind != "Y":
        raise ValueError("x_orbit wants a Y polynomial")
    rows = [[(l, math.comb(k, l)) for l in range(1, min(k, amax) + 1)]
            for k in range(top_exponent(p.num) + 1)]
    core = sweep({e: c for e, c in p.num.items() if not e or e[-1]}, p.arity, rows, total)
    return sweep(core, p.arity, u_to_x_rows(amax), total)
