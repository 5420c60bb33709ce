"""Closed forms, recurrences, and the embedded coefficient tables.

The genus 1..4 tables express f_m^(g) through weighted divided-difference
polynomials Delta_k in the elementary symmetric functions of the part
sizes:

    d_g * f_m = e1^(m-1) e1 Delta_1 + e1^(m-2) e2 Delta_2 + ... + e_m Delta_m

Delta data is embedded as literal integer constants guarded by a
checksum; no parsing happens at runtime.  `f_table` is the one accessor
of the tables: it refuses an uncovered (g, m), then constants that fail
the checksum, then builds f_m^(g) from `_DELTAS` and `_D_G`.  One rule,
`f_closed_form`, says which closed form or table answers (alpha, g).  The
genus-1 formula is `f1_numerator` alone: `f1_simple` reads it at 1^n, where
a_sequence's three routes and the genus-1 recurrence check it.

The values that `compute` and `table --values` print are computed in
Python ints: each f over a denominator known in advance (a table's by
`sym.e_numerator`, which the sampling gate runs), and the count c by one
exact division by the integer scale `count_scale`.  The one Fraction of
each value is built where it is returned.  `verify`'s closed-form checks
compare integers too: a table's numerator against the integer cores
`f_one_part_ratio` and `f1_numerator`, cross-multiplied by the two
denominators.  The recurrences step in ints as well: `pg_twelve_mu1` in
12 mu1 and `two_mu0_simple`, and `a_sequence`'s three routes in a_n
itself; `pg_mu1` and `mu0_simple` build their Fractions on return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .algebra.poly import SparsePoly
from .algebra.series import tree_coeffs
from .algebra.sym import e_value, elementary_values
from .errors import BudgetExceeded, CertificationError
from .partitions import Partition, centralizer_order

__all__ = [
    "HurwitzCount",
    "f_genus0",
    "f_genus0_ratio",
    "f_one_part",
    "f_one_part_ratio",
    "f1_simple",
    "f1_conjecture",
    "f1_numerator",
    "f_table",
    "f_table_eval",
    "f_closed_form",
    "hurwitz",
    "count_scale",
    "mu0_simple",
    "two_mu0_simple",
    "pg_mu1",
    "pg_twelve_mu1",
    "a_sequence",
    "TABLE_M_MAX",
]

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

# the last m of each genus's table: f_m reads Delta_1 .. Delta_m
TABLE_M_MAX = {g: len(d) for g, d in _DELTAS.items()}

_D_G = {
    1: 24,
    2: 5760,
    3: 2903040,
    4: math.factorial(12) * 2 ** 5,
}

_TABLE_DIGEST = "f300528680f4895e04f354d1d963a6e792150be88c35f7c34678a16d9580d756"


def _sha256():
    """CPython's built-in SHA-256, which needs no OpenSSL; hashlib (which
    maps it) only where neither module exists."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython up to 3.11
        except ImportError:
            from hashlib import sha256
    return sha256()


def _compute_digest() -> str:
    h = _sha256()
    for g in sorted(_DELTAS):
        h.update(f"g={g};d={_D_G[g]};".encode())
        for k, delta in enumerate(_DELTAS[g], start=1):
            h.update(f"D{k}:".encode())
            for e in sorted(delta):
                h.update(f"{e}>{delta[e]};".encode())
    return h.hexdigest()


@lru_cache(maxsize=None)
def f_table(g: int, m: int) -> SparsePoly:
    """f_m^(g) from the embedded tables, as a polynomial in e_1 .. e_m.

    An uncovered (g, m) is refused unhashed; each build checks the checksum
    over the constants it reads, so a later change never reaches a new table."""
    if g not in _DELTAS:
        raise BudgetExceeded(f"no table for genus {g}")
    deltas = _DELTAS[g]
    if not 1 <= m <= len(deltas):
        raise BudgetExceeded(f"genus {g} table stops at m = {len(deltas)}")
    if _compute_digest() != _TABLE_DIGEST:
        raise CertificationError("table constants fail their transcription checksum")
    total: dict = {}
    for k in range(1, m + 1):
        for e3, c in deltas[k - 1].items():
            # e1^(m-k) * e_k * Delta_k term, embedded at arity m
            if any(e3[m:]):
                raise CertificationError("table term does not fit arity")
            e = list(e3[:m]) + [0] * (m - 3)
            e[0] += m - k
            e[k - 1] += 1
            e = tuple(e)
            total[e] = total.get(e, 0) + c
    poly = SparsePoly.from_core("E", m, total, _D_G[g])
    if any(v < 0 for e in poly.num for v in e):
        raise CertificationError("Laurent term survived table assembly")
    return poly


def f_table_eval(g: int, alpha: Partition) -> Fraction:
    return e_value(f_table(g, alpha.m), alpha.parts)


def f_closed_form(alpha: Partition, g: int) -> Fraction:
    """f by the closed forms: genus 0, then one part, else the genus-g
    table, whose `f_table` raises BudgetExceeded for an uncovered (g, m)."""
    if g == 0:
        return f_genus0(alpha)
    if alpha.m == 1:
        return f_one_part(alpha.n, g)
    return f_table_eval(g, alpha)


# ----- closed forms -------------------------------------------------------

def f_genus0(alpha: Partition) -> Fraction:
    """n^(m-3); a genuine rational for m < 3."""
    return Fraction(*f_genus0_ratio(alpha))


def f_genus0_ratio(alpha: Partition) -> Tuple[int, int]:
    """`f_genus0(alpha)` as the integers (num, den)."""
    k = alpha.m - 3
    return (alpha.n ** k, 1) if k >= 0 else (1, alpha.n ** -k)


def f_one_part(n: int, g: int) -> Fraction:
    """One-part f: (1/4^g) n^(2g-2) [x^(2g)] (sinh x / x)^(n-1)."""
    return Fraction(*f_one_part_ratio(n, g))


@lru_cache(maxsize=None)
def f_one_part_ratio(n: int, g: int) -> Tuple[int, int]:
    """`f_one_part(n, g)` as the integers (num, den), not reduced; a pure
    function of (n, g), kept once per process like `f_table`."""
    if n < 1 or g < 0:
        raise ValueError("need n >= 1 and g >= 0")
    # with r = n - 1 and p = 2g + r, expanding sinh^r x = 2^-r (e^x - e^-x)^r
    # gives [x^(2g)] (sinh x / x)^r = 2^-r / p! sum_k (-1)^k C(r,k) (r-2k)^p
    r = n - 1
    p = 2 * g + r
    s = sum((-1) ** k * math.comb(r, k) * (r - 2 * k) ** p for k in range(r + 1))
    den = 4 ** g * 2 ** r * math.factorial(p)
    if g == 0:
        return s, den * n * n
    return s * n ** (2 * g - 2), den


def f1_simple(n: int) -> Fraction:
    """Genus-1 f at alpha = 1^n: `f1_numerator` at e_i(1^n) = C(n, i) over
    24, so the recurrences that prove this case run the conjecture's code."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(f1_numerator([math.comb(n, i) for i in range(1, n + 1)], n), 24)


def f1_conjecture(alpha: Partition) -> Fraction:
    """Genus-1 f for any alpha through elementary symmetric functions:
    (n^m - n^(m-1) - sum_(i=2..m) (i-2)! e_i n^(m-i)) / 24."""
    return Fraction(f1_numerator(elementary_values(alpha.parts, alpha.m), alpha.n), 24)


def f1_numerator(e: Sequence[int], n: int) -> int:
    """The numerator of `f1_conjecture` over 24, at a partition of weight n
    whose elementary values are e = [e_1, ..., e_m]; the sum by Horner's
    rule in n."""
    s, fact = n - 1, 1
    for i in range(2, len(e) + 1):
        s = s * n - fact * e[i - 1]
        fact *= i - 1
    return s


# ----- scaling chain ------------------------------------------------------

class HurwitzCount(NamedTuple):
    alpha: Partition
    g: int
    f: Fraction
    mu: Fraction
    c: int


def count_scale(alpha: Partition, g: int) -> Tuple[int, int]:
    """The factor c / f = j! prod_i a_i^a_i / (a_i - 1)! as the integers
    (j! prod_i a_i^a_i, prod_i (a_i - 1)!), not reduced."""
    num, den = math.factorial(alpha.j_for_genus(g)), 1
    for a in alpha.parts:
        num *= a ** a
        den *= math.factorial(a - 1)
    return num, den


def hurwitz(alpha: Partition, g: int, f: Fraction) -> HurwitzCount:
    """Scale f back to the factorization count c and the weighted count
    mu = |C_alpha| c / n! = c / z_alpha.  c is one exact integer division,
    refused when it leaves a remainder or is negative."""
    num, den = count_scale(alpha, g)
    c, r = divmod(num * f.numerator, den * f.denominator)
    if r or c < 0:
        raise CertificationError(
            f"f = {f} at {alpha}, g={g} scales to non-count "
            f"{Fraction(num * f.numerator, den * f.denominator)}"
        )
    return HurwitzCount(alpha, g, f, Fraction(c, centralizer_order(alpha)), c)


def mu0_simple(n: int) -> Fraction:
    """Genus-0 mu at alpha = 1^n: (2n-2)! n^(n-3) / n!."""
    return Fraction(two_mu0_simple(n), 2)


def two_mu0_simple(n: int) -> int:
    """2 mu0_simple(n) = 2 (2n-2)! n^(n-3) / n!, an integer for every n >= 1:
    it is 2 C(2n-2, n-1) (n-1)! n^(n-4), an integer from n = 4 on, and 2, 1
    and 8 at n = 1, 2 and 3.  So the one floor division below is exact."""
    return 2 * math.factorial(2 * n - 2) * n ** n // (n ** 3 * math.factorial(n))


# ----- recurrences --------------------------------------------------------

def pg_mu1(n_max: int) -> List[Fraction]:
    """mu_n^(1) for n = 1..n_max by the genus-1 recurrence; entry n-1
    holds mu_n."""
    return [Fraction(t, 12) for t in pg_twelve_mu1(n_max)]


def pg_twelve_mu1(n_max: int) -> List[int]:
    """12 mu_n^(1) for n = 1..n_max, the genus-1 recurrence in ints; entry
    n-1 holds 12 mu_n.  With mu0_j = mu0_simple(j), the recurrence

        mu_n = (n/6) C(n,2) (2n-1) mu0_n
               + sum_(j=1..n-2) 2 (2n-1) (n-j) j^2 C(2n-2, 2j-2) mu0_j mu_(n-j)

    reads, in M_n = 12 mu_n and z_j = 2 mu0_j (`two_mu0_simple`),

        M_n = (2n-1) (n C(n,2) z_n + sum_j (n-j) j^2 C(2n-2, 2j-2) z_j M_(n-j))."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    z = [two_mu0_simple(n) for n in range(1, n_max + 1)]
    twelve_mu1: List[int] = []
    for n in range(1, n_max + 1):
        total = n * math.comb(n, 2) * z[n - 1]
        for jj in range(1, n - 1):
            total += ((n - jj) * jj * jj * math.comb(2 * n - 2, 2 * jj - 2)
                      * z[jj - 1] * twelve_mu1[n - jj - 1])
        twelve_mu1.append((2 * n - 1) * total)
    return twelve_mu1


def a_sequence(n_max: int) -> List[int]:
    """a_n = 24 n f1_simple(n) for n = 1..n_max, checked three ways:
    direct, by its own recurrence, and through the tree series."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    rec: List[int] = []
    for n in range(1, n_max + 1):
        s = (n - 1) * n ** (n - 1)
        for jj in range(1, n - 1):
            s += math.comb(n, jj) * jj ** (jj - 1) * rec[n - jj - 1]
        rec.append(s)
    # third route: n! [x^n] w^2/(1-w)^2 with w the tree series, in
    # exponential scaling t[d] = d! [x^d] w, where a product of two series
    # is a binomial convolution.  v = w/(1-w) solves v = w + w v, one
    # convolution sum per term, and w^2/(1-w)^2 = v^2 is one binomial
    # self-convolution of v.  Both read w itself, not the equation
    # w = x e^w, so a changed tree term gives the value that the power sum
    # sum_(k>=2) (k-1) w^k gives.  The sums start at 1: w has no constant
    # term (refused below), and so neither has v
    t = [math.factorial(d) * c for d, c in enumerate(tree_coeffs(n_max))]
    if any(c.denominator != 1 for c in t):
        raise CertificationError("the tree series has a non-integral d! [x^d] w")
    if t[0]:
        raise CertificationError("the tree series has a constant term")
    t = [c.numerator for c in t]
    v = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        v[d] = t[d] + sum(math.comb(d, i) * t[i] * v[d - i] for i in range(1, d))
    out: List[int] = []
    for n in range(1, n_max + 1):
        f = f1_simple(n)
        a, r = divmod(24 * n * f.numerator, f.denominator)
        b = rec[n - 1]
        c = sum(math.comb(n, i) * v[i] * v[n - i] for i in range(1, n))
        if r or not a == b == c:
            raise CertificationError(
                f"a_{n} disagrees across routes: direct "
                f"{Fraction(24 * n * f.numerator, f.denominator)}, "
                f"recurrence {b}, series {c}"
            )
        out.append(a)
    return out
