"""Closed forms, recurrences, and the embedded coefficient tables.

The genus 1..4 tables express f_m^(g) through weighted divided-difference
polynomials Delta_k in the elementary symmetric functions of the part
sizes:

    d_g * f_m = e1^(m-1) e1 Delta_1 + e1^(m-2) e2 Delta_2 + ... + e_m Delta_m

Delta data is embedded as literal integer constants guarded by a
checksum; no parsing happens at runtime.  Three independent routes for
the torus sequence a_n = 24 n f1_simple(n) cross-check each other inside
a_sequence.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence

from .algebra.poly import SparsePoly
from .algebra.series import tree_coeffs
from .algebra.sym import elementary_values
from .errors import BudgetExceeded, CertificationError
from .partitions import Partition, class_size

__all__ = [
    "AppendixTable",
    "HurwitzCount",
    "f_genus0",
    "f_one_part",
    "f1_simple",
    "f1_conjecture",
    "f_table",
    "f_table_eval",
    "appendix_table",
    "hurwitz",
    "count_scale",
    "mu0_simple",
    "pg_mu1",
    "a_sequence",
    "TABLE_M_MAX",
]

TABLE_M_MAX = {1: 6, 2: 4, 3: 3, 4: 2}

# Delta_k as {(e1-exp, e2-exp, e3-exp): coefficient}; genus 1 Delta_1
# carries the Laurent term -1/e1, which cancels against the e1^m factor.
_DELTAS: Dict[int, List[Dict[tuple, int]]] = {
    1: [
        {(0, 0, 0): 1, (-1, 0, 0): -1},
        {(0, 0, 0): -1},
        {(0, 0, 0): -1},
        {(0, 0, 0): -2},
        {(0, 0, 0): -6},
        {(0, 0, 0): -24},
    ],
    2: [
        {(3, 0, 0): 5, (2, 0, 0): -12, (1, 0, 0): 7},
        {(3, 0, 0): -10, (1, 1, 0): 9, (2, 0, 0): 12, (0, 1, 0): -2},
        {(3, 0, 0): -18, (1, 1, 0): 18, (0, 0, 1): -3, (2, 0, 0): 16,
         (0, 1, 0): -6},
        {(3, 0, 0): -36, (1, 1, 0): 60, (0, 0, 1): -12, (2, 0, 0): 38,
         (0, 1, 0): -24},
    ],
    3: [
        {(6, 0, 0): 35, (5, 0, 0): -147, (4, 0, 0): 205, (3, 0, 0): -93},
        {(6, 0, 0): -105, (4, 1, 0): 189, (2, 2, 0): -135, (5, 0, 0): 294,
         (3, 1, 0): -321, (1, 2, 0): 90, (4, 0, 0): -205, (2, 1, 0): 74,
         (0, 2, 0): -16},
        {(6, 0, 0): -273, (4, 1, 0): 594, (3, 0, 1): 153, (2, 2, 0): -405,
         (1, 1, 1): 135, (0, 0, 2): -27, (5, 0, 0): 642, (3, 1, 0): -912,
         (2, 0, 1): -111, (1, 2, 0): 360, (0, 1, 1): -66, (4, 0, 0): -353,
         (2, 1, 0): 270, (1, 0, 1): 64, (0, 2, 0): -80},
    ],
    4: [
        {(9, 0, 0): 1925, (8, 0, 0): -12320, (7, 0, 0): 29854,
         (6, 0, 0): -32032, (5, 0, 0): 12573},
        {(9, 0, 0): -7700, (7, 1, 0): 20790, (5, 2, 0): -29700,
         (3, 3, 0): 17325, (8, 0, 0): 36960, (6, 1, 0): -74316,
         (4, 2, 0): 72600, (2, 3, 0): -23100, (7, 0, 0): -59708,
         (5, 1, 0): 77814, (3, 2, 0): -44880, (1, 3, 0): 10780,
         (6, 0, 0): 32032, (4, 1, 0): -18260, (2, 2, 0): 8800,
         (0, 3, 0): -1584},
    ],
}

_D_G = {
    1: 24,
    2: 5760,
    3: 2903040,
    4: math.factorial(12) * 2 ** 5,
}

_TABLE_DIGEST = "f300528680f4895e04f354d1d963a6e792150be88c35f7c34678a16d9580d756"


def _compute_digest() -> str:
    h = hashlib.sha256()
    for g in sorted(_DELTAS):
        h.update(f"g={g};d={_D_G[g]};".encode())
        for k, delta in enumerate(_DELTAS[g], start=1):
            h.update(f"D{k}:".encode())
            for e in sorted(delta):
                h.update(f"{e}>{delta[e]};".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class AppendixTable:
    g: int
    d: int
    deltas: tuple  # SparsePoly (E, arity 3) for Delta_1 .. Delta_mMax


@lru_cache(maxsize=None)
def appendix_table(g: int) -> AppendixTable:
    if g not in _DELTAS:
        raise BudgetExceeded(f"no table for genus {g}")
    if _compute_digest() != _TABLE_DIGEST:
        raise CertificationError("table constants fail their transcription checksum")
    deltas = tuple(SparsePoly("E", 3, d) for d in _DELTAS[g])
    return AppendixTable(g, _D_G[g], deltas)


@lru_cache(maxsize=None)
def f_table(g: int, m: int) -> SparsePoly:
    """f_m^(g) from the embedded tables, as a polynomial in e_1 .. e_m."""
    tab = appendix_table(g)
    if not 1 <= m <= len(tab.deltas):
        raise BudgetExceeded(f"genus {g} table stops at m = {len(tab.deltas)}")
    total: dict = {}
    for k in range(1, m + 1):
        for e3, c in tab.deltas[k - 1].num.items():
            # e1^(m-k) * e_k * Delta_k term, embedded at arity m
            e = [0] * m
            e[0] += m - k + e3[0]
            e[k - 1] += 1
            if len(e3) > 1 and e3[1]:
                if m < 2:
                    raise CertificationError("table term does not fit arity")
                e[1] += e3[1]
            if len(e3) > 2 and e3[2]:
                if m < 3:
                    raise CertificationError("table term does not fit arity")
                e[2] += e3[2]
            key = tuple(e)
            total[key] = total.get(key, 0) + c
    poly = SparsePoly.from_core("E", m, total, tab.d)
    if any(v < 0 for v in poly.min_exponents()):
        raise CertificationError("Laurent term survived table assembly")
    return poly


def f_table_eval(g: int, alpha: Partition) -> Fraction:
    m = alpha.m
    poly = f_table(g, m)
    return poly.evaluate([Fraction(v) for v in elementary_values(alpha.parts, m)])


# ----- closed forms -------------------------------------------------------

def f_genus0(alpha: Partition) -> Fraction:
    """n^(m-3); a genuine rational for m < 3."""
    return Fraction(alpha.n) ** (alpha.m - 3)


def f_one_part(n: int, g: int) -> Fraction:
    """One-part f: (1/4^g) n^(2g-2) [x^(2g)] (sinh x / x)^(n-1)."""
    if n < 1 or g < 0:
        raise ValueError("need n >= 1 and g >= 0")
    # series in t = x^2: A = sinh x / x = sum a_i t^i, a_i = 1/(2i+1)!, and
    # P = A^(n-1) by the power recurrence t P_t = sum (n i - t) a_i P_(t-i)
    # (from A P' = (n-1) A' P, using a_0 = 1)
    base = [Fraction(1, math.factorial(2 * i + 1)) for i in range(g + 1)]
    power = [Fraction(1)]
    for t in range(1, g + 1):
        power.append(sum(
            (n * i - t) * base[i] * power[t - i] for i in range(1, t + 1)
        ) / t)
    return Fraction(1, 4 ** g) * Fraction(n) ** (2 * g - 2) * power[g]


def f1_simple(n: int) -> Fraction:
    """Genus-1 f at alpha = 1^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    s = n ** n - n ** (n - 1)
    for i in range(2, n + 1):
        s -= math.comb(n, i) * math.factorial(i - 2) * n ** (n - i)
    return Fraction(s, 24)


def f1_conjecture(alpha: Partition) -> Fraction:
    """Genus-1 f for any alpha through elementary symmetric functions."""
    n, m = alpha.n, alpha.m
    e = elementary_values(alpha.parts, m)
    s = Fraction(n ** m - n ** (m - 1))
    for i in range(2, m + 1):
        s -= math.factorial(i - 2) * e[i - 1] * n ** (m - i)
    return s / 24


# ----- scaling chain ------------------------------------------------------

@dataclass(frozen=True)
class HurwitzCount:
    alpha: Partition
    g: int
    f: Fraction
    mu: Fraction
    c: int


def count_scale(alpha: Partition, g: int) -> Fraction:
    """The factor c / f: j! prod_i a_i^a_i / (a_i - 1)!."""
    scale = Fraction(math.factorial(alpha.j_for_genus(g)))
    for a in alpha.parts:
        scale *= Fraction(a ** a, math.factorial(a - 1))
    return scale


def hurwitz(alpha: Partition, g: int, f: Fraction) -> HurwitzCount:
    """Scale f back to the factorization count c and the weighted count mu."""
    c = count_scale(alpha, g) * f
    if c.denominator != 1 or c < 0:
        raise CertificationError(
            f"f = {f} at {alpha}, g={g} scales to non-count {c}"
        )
    mu = Fraction(class_size(alpha) * int(c), math.factorial(alpha.n))
    return HurwitzCount(alpha, g, f, mu, int(c))


def mu0_simple(n: int) -> Fraction:
    """Genus-0 mu at alpha = 1^n: (2n-2)! n^(n-3) / n!."""
    return Fraction(math.factorial(2 * n - 2) * n ** n, n ** 3 * math.factorial(n))


# ----- recurrences --------------------------------------------------------

def pg_mu1(n_max: int) -> List[Fraction]:
    """mu_n^(1) for n = 1..n_max by the genus-1 recurrence; entry n-1
    holds mu_n."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    mu1: List[Fraction] = []
    for n in range(1, n_max + 1):
        total = (
            Fraction(n, 6) * math.comb(n, 2) * (2 * n - 1) * mu0_simple(n)
        )
        for jj in range(1, n - 1):
            total += (
                2 * (2 * n - 1)
                * (n - jj) * jj * jj
                * math.comb(2 * n - 2, 2 * jj - 2)
                * mu0_simple(jj) * mu1[n - jj - 1]
            )
        mu1.append(total)
    return mu1


def a_sequence(n_max: int) -> List[int]:
    """a_n = 24 n f1_simple(n) for n = 1..n_max, checked three ways:
    direct, by its own recurrence, and through the tree series."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    direct = [24 * n * f1_simple(n) for n in range(1, n_max + 1)]
    rec: List[Fraction] = []
    for n in range(1, n_max + 1):
        s = Fraction((n - 1) * n ** (n - 1))
        for jj in range(1, n - 1):
            s += math.comb(n, jj) * jj ** (jj - 1) * rec[n - jj - 1]
        rec.append(s)
    # third route: n! [x^n] w^2/(1-w)^2 with w the tree series
    w = tree_coeffs(n_max)
    wpow = [Fraction(0)] * (n_max + 1)
    wpow[0] = Fraction(1)
    series = [Fraction(0)] * (n_max + 1)
    for k in range(1, n_max + 1):
        wpow = [
            sum(wpow[i] * w[d - i] for i in range(d + 1))
            for d in range(n_max + 1)
        ]
        if k >= 2:
            # w^2/(1-w)^2 = sum_{k>=2} (k-1) w^k
            for d in range(n_max + 1):
                series[d] += (k - 1) * wpow[d]
    tree = [math.factorial(n) * series[n] for n in range(1, n_max + 1)]
    out: List[int] = []
    for n in range(1, n_max + 1):
        a, b, c = direct[n - 1], rec[n - 1], tree[n - 1]
        if not (a == b == c) or a.denominator != 1:
            raise CertificationError(
                f"a_{n} disagrees across routes: direct {a}, recurrence {b}, "
                f"series {c}"
            )
        out.append(int(a))
    return out
