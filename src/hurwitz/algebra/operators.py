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
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from ..errors import NonzeroRemainder, NotVanishing
from .poly import SparsePoly
from .series import sweep, top_exponent

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

def p_ladder(jmax: int) -> Tuple[list, list]:
    """(P, Q) ladders as univariate integer dicts {degree: coeff}.

    P[j] = (x d/dx)^j (y-1), Q[j] = P[j] shifted down one degree (valid
    since w d/dw = (1/y) x d/dx on monomials); Q[0] is unused.
    """
    P = [{1: 1, 0: -1}]
    for _ in range(jmax):
        nxt = core_apply_xdx({(k,): c for k, c in P[-1].items()}, 0)
        P.append({e[0]: c for e, c in nxt.items() if c})
    Q = [None]
    for j in range(1, jmax + 1):
        Q.append({k - 1: c for k, c in P[j].items()})
    return P, Q


# row d writes y^d over the P/Q basis in Fractions; it depends on the rows
# below it alone, so one table serves every dmax and grows on demand
_BASIS: list = [{0: Fraction(1)}]


@lru_cache(maxsize=None)
def _basis_rows(dmax: int) -> Tuple[tuple, int]:
    """rows[k] writes y^k over the per-variable basis, scaled by L.

    Label d >= 1 is the P/Q element of degree d and label 0 the constant
    residue.  The rows come from one triangular elimination in
    Fractions, made once per process up to the largest dmax asked for;
    each dmax multiplies rows 0 .. dmax by the lcm L of their
    denominators.  Kept per dmax: the cells' extractions share a few
    tables.
    """
    if len(_BASIS) <= dmax:
        P, Q = p_ladder(dmax // 2 + 1)
        for d in range(len(_BASIS), dmax + 1):
            B = P[(d - 1) // 2] if d % 2 else Q[d // 2]
            lead = B[d]
            row = {d: Fraction(1, lead)}
            for deg, bc in B.items():
                if deg == d:
                    continue
                for lab, t in _BASIS[deg].items():
                    row[lab] = row.get(lab, 0) - Fraction(bc, lead) * t
            _BASIS.append(row)
    table = _BASIS[:dmax + 1]
    L = math.lcm(*(t.denominator for row in table for t in row.values()))
    return tuple(tuple(sorted((lab, t.numerator * (L // t.denominator))
                              for lab, t in row.items() if t))
                 for row in table), L


def xdx_basis_convert(p: SparsePoly, m: int) -> Dict[tuple, Fraction]:
    """The symmetric p as sum_j c_j prod_i (x_i d/dx_i)^(j_i) V_m, both
    in orbit form: p's terms and the returned {j: c_j} have weakly
    decreasing exponents.

    The reduction over the P/Q basis is triangular by degree in each
    variable, so it is unique and exact, and it is one orbit sweep.  A p
    that does not vanish at y_1 = 1 (so at no y_i = 1), or has a term
    with a w d/dw (Q) factor, is not f(x d/dx) V_m for any f, and raises
    NotVanishing.
    """
    if p.kind != "Y":
        raise ValueError("xdx_basis_convert wants a Y polynomial")
    if p.arity != m:
        raise ValueError("arity mismatch")
    rows, L = _basis_rows(top_exponent(p.num))
    labels = sweep(p.num, m, rows)
    den = p.den * L ** m
    if any(0 in lab for lab in labels):
        raise NotVanishing("input does not vanish at y_1 = 1")
    for lab in labels:
        if any(d % 2 == 0 for d in lab):
            raise NotVanishing(f"term {lab} carries a w d/dw factor")
    return {tuple((d - 1) // 2 for d in lab): Fraction(c, den)
            for lab, c in labels.items()}
