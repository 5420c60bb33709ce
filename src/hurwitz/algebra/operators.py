"""Differential operators on y-polynomials and the operator-basis decomposition.

With w = x e^w and y = 1/(1-w), the two derivations act monomially:

    x d/dx:  y^k -> k (y^(k+2) - y^(k+1))      (raises degree by 2)
    w d/dw:  y^k -> k (y^(k+1) - y^k)          (raises degree by 1)

Both rules hold for every integer k, negative included.

The decomposition half of this module inverts the triangular family

    P_j = (x d/dx)^j (y - 1)          degree 2j+1, leading (2j-1)!!
    Q_j = (w d/dw)(x d/dx)^(j-1)(y-1)  degree 2j,  j >= 1

Per variable these span all polynomials vanishing at y = 1, one basis
element per degree (odd degrees are P, even are Q; note Q_j = P_j / y).
A multivariate polynomial vanishing on every y_i = 1 hyperplane therefore
decomposes uniquely into products of P's and Q's; terms that are pure P
are images of monomials in the x_i d/dx_i applied to V_m = prod (y_i - 1),
which is exactly the shape the extracted symmetric forms take.

`xdx_basis_convert` reads that decomposition off without a table of y^k
over the basis: the lex-leading term of a product of P's is the product
of their leading terms, and every other term lies componentwise below
it, so the decomposition is peeled off the leading term down, each step
one exact division and one subtraction of an integer P-image.  A leading
term with an even or zero exponent is a Q factor or a constant residue,
and is refused there.

The images are built one slot at a time over sub-multisets of j, the
least exponent in the last slot.  The j met in one peel share most of
their sub-multisets, so each sub-image is built once per call, and
dropped once the peel has passed every j that contains it.  P_v has the
sign (-1)^(l+1) at every degree l, so every product summed into the
coefficient of an image at e has the sign (-1)^(|e|+m): no coefficient
of an image cancels to zero, and none is filtered out.
"""

from __future__ import annotations

import math
from functools import lru_cache
from heapq import heappop, heappush
from typing import Dict, Tuple

from ..errors import NonzeroRemainder, NotVanishing
from .poly import SparsePoly
from .sym import is_orbit_exponent, removals

__all__ = [
    "apply_xdx",
    "diag_fold",
    "divide_ydiff",
    "xdx_basis_convert",
    "p_ladder",
]

Core = Dict[tuple, int]


# ----- the two derivations, on integer numerators ---------------------------

def core_apply_xdx(core: Core, var: int) -> Core:
    out: Core = {}
    for e, c in core.items():
        k = e[var]
        if not k:
            continue
        kc = k * c
        up2 = e[:var] + (k + 2,) + e[var + 1:]
        up1 = e[:var] + (k + 1,) + e[var + 1:]
        out[up2] = out.get(up2, 0) + kc
        out[up1] = out.get(up1, 0) - kc
    return out


def _check_var(poly: SparsePoly, var: int) -> None:
    if poly.kind != "Y":
        raise ValueError("operator acts on Y polynomials")
    if not 0 <= var < poly.arity:
        raise IndexError("variable index out of range")


def apply_xdx(poly: SparsePoly, var: int) -> SparsePoly:
    """x_var d/dx_var in y-coordinates."""
    _check_var(poly, var)
    return SparsePoly.from_core("Y", poly.arity, core_apply_xdx(poly.num, var), poly.den)


def diag_fold(poly: SparsePoly, keep: int, drop: int) -> SparsePoly:
    """Set y_drop = y_keep and remove the drop slot (arity falls by one)."""
    if keep == drop:
        raise ValueError("keep and drop must differ")
    out: Core = {}
    for e, c in poly.num.items():
        le = list(e)
        le[keep] += le[drop]
        del le[drop]
        ne = tuple(le)
        out[ne] = out.get(ne, 0) + c
    return SparsePoly.from_core(poly.kind, poly.arity - 1, out, poly.den)


# ----- exact division by (y_i - y_j) --------------------------------------

def divide_ydiff(poly: SparsePoly, i: int, j: int) -> SparsePoly:
    """Exact quotient poly / (y_i - y_j).

    Descending over the y_i exponent k, the level-k slice P_k of the
    working dividend gives the quotient slice at k-1, and y_j * P_k is
    pushed down one level.  Whatever remains at level zero is the
    remainder and must vanish.
    """
    buckets: dict = {}
    for e, c in poly.num.items():
        buckets.setdefault(e[i], {})[e] = c
    if not buckets:
        return SparsePoly.from_core(poly.kind, poly.arity, {}, poly.den)
    if min(buckets) < 0:
        # the descent stops at level zero and would drop these terms
        raise ValueError(f"Laurent input in y_{i+1} is outside this division")
    out: Core = {}
    for k in range(max(buckets), 0, -1):
        cur = buckets.pop(k, None)
        if not cur:
            continue
        lower = buckets.setdefault(k - 1, {})
        for e, c in cur.items():
            if not c:
                continue
            q = e[:i] + (k - 1,) + e[i + 1:]
            out[q] = out.get(q, 0) + c
            r = q[:j] + (q[j] + 1,) + q[j + 1:]
            lower[r] = lower.get(r, 0) + c
    left = buckets.get(0)
    if left and any(left.values()):
        bad = next(e for e, c in left.items() if c)
        raise NonzeroRemainder(f"division by y_{i+1} - y_{j+1} leaves remainder at {bad}")
    return SparsePoly.from_core(poly.kind, poly.arity, out, poly.den)


# ----- operator basis -----------------------------------------------------

def p_ladder(jmax: int) -> list:
    """P_0 .. P_jmax as univariate integer dicts {degree: coeff}, with
    P[j] = (x d/dx)^j (y-1).  The peel needs no Q_j: an even leading
    degree is refused, not divided out."""
    P = [{1: 1, 0: -1}]
    for _ in range(jmax):
        nxt = core_apply_xdx({(k,): c for k, c in P[-1].items()}, 0)
        P.append({e[0]: c for e, c in nxt.items() if c})
    return P


@lru_cache(maxsize=None)
def _ladder_rows(jmax: int) -> tuple:
    """P_0 .. P_jmax as rows: rows[j] lists P_j's (degree,
    coefficient) pairs in ascending degree."""
    return tuple(tuple(sorted(P.items())) for P in p_ladder(jmax))


def xdx_basis_convert(p: SparsePoly) -> Tuple[Dict[tuple, int], int]:
    """The symmetric p in its m = p.arity variables as sum_j c_j prod_i
    (x_i d/dx_i)^(j_i) V_m, both in orbit form: p's terms and the returned
    j have weakly decreasing exponents.  The c_j come as integer numerators
    over one denominator, ({j: c_j den}, den), not reduced.

    A leading-term peel.  The lex-greatest remaining exponent d must
    have every entry odd, d = 2j + 1: it is then the leading term of
    the image of j alone, so its coefficient is divided out exactly and
    the image subtracted.  A zero entry means p does not vanish at
    y_1 = 1 (so at no y_i = 1), and an even entry a w d/dw factor;
    either way p is not f(x d/dx) V_m for any f, and NotVanishing is
    raised.  The peel ends only when every term has been subtracted
    away exactly, which certifies p = f(x d/dx) V_m, and by
    triangularity the c_j are unique.  A leading coefficient the
    divisor does not divide scales the remaining work, the numerators
    already emitted and the denominator up, so no step rounds.

    The image of a multiset S over the ladder, in orbit form, is the sum
    over the distinct values v of S of P_v placed in the last slot, at
    each exponent l <= e[-1] of each term e of the image of S - v.  The
    sub-images, of the proper sub-multisets, are kept in a memo for this
    call; the full images are used once and not kept.  Every image term
    lies componentwise below its leading term, so the peel meets the j
    in strictly falling lex order.  An entry S of length k is dropped
    once j[:k] falls lex below S: a later j' has j'[:k] <= j[:k], while
    one that contains S has j'[:k] >= S entry by entry, so no later j
    contains S.  The memo only saves work; a miss rebuilds the entry.
    """
    if p.kind != "Y":
        raise ValueError("xdx_basis_convert wants a Y polynomial")
    if not all(map(is_orbit_exponent, p.num)):
        raise ValueError("xdx_basis_convert wants an orbit form: weakly decreasing exponents")
    if any(e and e[-1] < 0 for e in p.num):
        raise ValueError("negative exponent has no polynomial form")
    m, work, den = p.arity, dict(p.num), p.den
    out: Dict[tuple, int] = {}
    rows = _ladder_rows(max((e[0] for e in work if e), default=0) // 2)
    memo: Dict[tuple, Core] = {}
    held: list = [[] for _ in range(m)]  # memo keys by length, lex-greatest first

    def image_of(s: tuple) -> Core:
        """prod_i P_(s_i) over the orbit of s, in orbit form."""
        if not s:
            return {(): 1}
        acc: Core = {}
        get = acc.get
        for v, rest in removals(s):
            sub = memo.get(rest)
            if sub is None:
                sub = memo[rest] = image_of(rest)
                heappush(held[len(rest)], (tuple(-k for k in rest), rest))
            row = rows[v]
            for e, c in sub.items():
                low = e[-1] if e else math.inf
                for l, a in row:
                    if l > low:
                        break
                    key = e + (l,)
                    acc[key] = get(key, 0) + a * c
        return acc

    while work:
        d = max(work)
        c = work.pop(d)
        if 0 in d:
            raise NotVanishing("input does not vanish at y_1 = 1")
        if any(k % 2 == 0 for k in d):
            raise NotVanishing(f"term {d} carries a w d/dw factor")
        j = tuple(k // 2 for k in d)
        for k in range(1, m):
            heap, head = held[k], j[:k]
            while heap and heap[0][1] > head:
                del memo[heappop(heap)[1]]
        # prod_i (x_i d/dx_i)^(j_i) V_m over the orbit of j: its leading
        # term is at d with coefficient prod_i (2j_i - 1)!!, and every
        # other term lies componentwise below d
        image = image_of(j)
        lead = image[d]
        if c % lead:
            s = lead // math.gcd(c, lead)
            work = {e: s * v for e, v in work.items()}
            out = {e: s * v for e, v in out.items()}
            den *= s
            c *= s
        q = c // lead
        out[j] = q
        for e, a in image.items():
            if e != d:
                v = work.get(e, 0) - q * a
                if v:
                    work[e] = v
                else:
                    del work[e]
    return out, den
