"""Symmetric polynomials: orbit forms, the elementary basis, exact fitting.

An E-kind SparsePoly over arity m stores powers of e_1 .. e_m; the
weighted degree of a term gives e_k weight k, matching the x-degree a
symmetric function of m variables inherits from its arguments.

The orbit form of a symmetric polynomial is an ordinary SparsePoly that
keeps only the terms with weakly decreasing exponents, one per orbit of
the symmetric group; its coefficients are the monomial-symmetric ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import CertificationError, InconsistentSystem, NotSymmetric
from .poly import SparsePoly

__all__ = [
    "is_orbit_exponent",
    "removals",
    "expand_orbits",
    "e_monomials_by_weight",
    "elementary_values",
    "e_numerator",
    "e_value",
    "e_monomial_expand",
    "to_e_basis",
    "fit_sym_e_poly",
    "weighted_degree",
]


def is_orbit_exponent(e: tuple) -> bool:
    """True when the tuple e is weakly decreasing: the representative of
    its orbit.  One sort and one tuple comparison, both at C level."""
    return e == tuple(sorted(e, reverse=True))


def removals(e: tuple) -> list:
    """(v, e with one v removed) for each distinct entry v of a weakly
    decreasing e, in order: the ways to take one variable's exponent
    from the orbit of e, each arrangement once."""
    return [(v, e[:i] + e[i + 1:]) for i, v in enumerate(e) if not i or e[i - 1] != v]


def _arrangements(e: tuple) -> Iterator[tuple]:
    """Each distinct reordering of e once, in lexicographic order.

    The next-permutation walk from the ascending arrangement skips
    repeated values, so the cost is linear in the number of arrangements
    (a multinomial coefficient) rather than in len(e)!.
    """
    a = sorted(e)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


@lru_cache(maxsize=None)
def _reorderings(runs: tuple) -> tuple:
    """One itemgetter per distinct reordering of an exponent whose runs of
    equal entries start at the positions in `runs` (one entry per slot)."""
    getters = []
    for r in _arrangements(runs):
        used: Dict[int, int] = {}
        idx = []
        for start in r:
            idx.append(start + used.get(start, 0))
            used[start] = used.get(start, 0) + 1
        getters.append(itemgetter(*idx))
    return tuple(getters)


def expand_orbits(orbit: SparsePoly) -> SparsePoly:
    """The symmetric polynomial whose orbit form is `orbit`.

    Every exponent with the same run lengths has the same reorderings, so
    they are read off through itemgetters made once per run pattern."""
    if orbit.arity < 2:
        return orbit
    num: Dict[tuple, int] = {}
    for e, c in orbit.num.items():
        runs = [0]
        for i in range(1, len(e)):
            runs.append(runs[-1] if e[i] == e[i - 1] else i)
        for get in _reorderings(tuple(runs)):
            num[get(e)] = c
    return SparsePoly.from_core(orbit.kind, orbit.arity, num, orbit.den)


def weighted_degree(beta: Sequence[int]) -> int:
    return sum((k + 1) * a for k, a in enumerate(beta))


def e_monomials_by_weight(m: int, wmax: int) -> List[tuple]:
    """All e-exponent tuples with weighted degree <= wmax, graded-lex order."""
    out: List[tuple] = []

    def rec(k: int, left: int, acc: list):
        if k == m:
            out.append(tuple(acc))
            return
        for a in range(left // (k + 1) + 1):
            rec(k + 1, left - a * (k + 1), acc + [a])

    rec(0, wmax, [])
    out.sort(key=lambda b: (weighted_degree(b), b))
    return out


def _times_e(orbit: Mapping[tuple, int], k: int) -> Dict[tuple, int]:
    """Orbit form of a symmetric polynomial times e_k, by the Pieri rule.

    m_lam e_k raises k entries of lam by one.  Raising j_r copies of each
    run of equal values v_r of lam, with sum j_r = k, gives each sorted
    mu once when the raised copies are the first of their run; mu's
    coefficient counts the k-sets of its entries that lower back to an
    arrangement of lam, prod_r C(multiplicity of v_r + 1 in mu, j_r).
    The v_r + 1 entries of mu are the j_r raised copies and, when
    v_(r-1) = v_r + 1, the unraised copies of the run before.
    """
    out: Dict[tuple, int] = {}
    for lam, c in orbit.items():
        runs = []  # [value, copies], in lam's (decreasing) order
        for i, v in enumerate(lam):
            if i and lam[i - 1] == v:
                runs[-1][1] += 1
            else:
                runs.append([v, 1])
        # partial states: (mu so far, raises left, weight, kept copies of
        # the last run, that run's value)
        states = [((), k, c, 0, None)]
        for v, n in runs:
            nxt = []
            for mu, left, w, kept, pv in states:
                up = kept if pv == v + 1 else 0
                for j in range(min(n, left) + 1):
                    nxt.append((mu + (v + 1,) * j + (v,) * (n - j), left - j,
                                w * math.comb(up + j, j), n - j, v))
            states = nxt
        for mu, left, w, _, _ in states:
            if not left:
                out[mu] = out.get(mu, 0) + w
    return out


@lru_cache(maxsize=None)
def e_monomial_expand(beta: tuple, m: int) -> Mapping[tuple, int]:
    """Orbit form of prod_k e_k^(beta_k) over m variables, as a dict.

    Built in orbit form, one factor at a time: the product with one
    factor e_k fewer (memoised too, so products share their prefixes)
    times e_k by the Pieri rule (`_times_e`).  No 0-1 vector of length m
    is enumerated, and the terms number at most the partitions of the
    weighted degree into at most m parts."""
    k = max((i for i, a in enumerate(beta) if a), default=None)
    if k is None:
        return {(0,) * m: 1}
    return _times_e(e_monomial_expand(beta[:k] + (beta[k] - 1,) + beta[k + 1:], m), k + 1)


def to_e_basis(num: Mapping[tuple, int], den: int, m: int) -> SparsePoly:
    """Rewrite a symmetric polynomial over m variables, given as the
    integer numerators of its orbit form over one denominator `den`, in
    the e-basis.

    Leading subtraction: the lex-greatest exponent lam of a symmetric
    polynomial is a partition, and prod e_k^(lam_k - lam_(k+1)) is the
    unique e-monomial with lex-leading term lam, coefficient one; its
    integer orbit terms are subtracted, so the numerators stay integers
    over `den` throughout.
    """
    work: Dict[tuple, int] = {e: c for e, c in num.items() if c}
    out: Dict[tuple, int] = {}
    while work:
        lam = max(work)
        if any(lam[i] < lam[i + 1] for i in range(m - 1)):
            raise NotSymmetric(f"lex-leading exponent {lam} is not a partition")
        c = work[lam]
        beta = tuple(
            lam[k] - (lam[k + 1] if k + 1 < m else 0) for k in range(m)
        )
        out[beta] = c
        terms = e_monomial_expand(beta, m)
        if terms.get(lam) != 1:  # else lam stays the leader and the loop never ends
            raise CertificationError(f"e-monomial {beta} does not lead with {lam}")
        for e, ec in terms.items():
            v = work.get(e, 0) - c * ec
            if v:
                work[e] = v
            elif e in work:
                del work[e]
    return SparsePoly.from_core("E", m, out, den)


def elementary_values(alpha: Sequence[int], m: int) -> List[int]:
    """[e_1(alpha), ..., e_m(alpha)]; part i touches only e_1 .. e_i."""
    e = [1] + [0] * m
    i = 0
    for a in alpha:
        if i < m:
            i += 1
        k = i
        while k:
            e[k] += a * e[k - 1]
            k -= 1
    return e[1:]


def e_numerator(f_e: SparsePoly, parts: Sequence[int],
                ev: Optional[List[int]] = None) -> int:
    """f_e.den times the e-polynomial f_e at (e_1(parts), ..., e_m(parts)).
    The first call refuses a negative exponent and keeps on f_e the terms
    grouped by their exponent past e_1; each group is summed over one list
    of e_1's powers, then raised by its powers of e_2 .. e_m.  A caller that
    reads the e-values itself passes them as `ev`, which must then equal
    `elementary_values(parts, f_e.arity)`."""
    try:
        groups, top = f_e._e_plan
    except AttributeError:
        by_rest: Dict[tuple, list] = {}
        for e, c in f_e.num.items():
            if any(a < 0 for a in e):
                raise ValueError(f"e-exponent {e} is negative")
            by_rest.setdefault(e[1:], []).append((e[0] if e else 0, c))
        groups = [([(k, a) for k, a in enumerate(rest, 1) if a], by_e1)
                  for rest, by_e1 in by_rest.items()]
        top = max((e[0] for e in f_e.num if e), default=0)
        f_e._e_plan = groups, top
    if ev is None:
        ev = elementary_values(parts, f_e.arity)
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * ev[0])
    total = 0
    for rest, by_e1 in groups:
        s = 0
        for a, c in by_e1:
            s += c * powers[a]
        for k, a in rest:
            s *= ev[k] ** a
        total += s
    return total


def e_value(f_e: SparsePoly, parts: Sequence[int]) -> Fraction:
    """`e_numerator` over f_e.den, the one Fraction built.  The sampling
    gate (`engine._check_samples`) checks the same numerators."""
    return Fraction(e_numerator(f_e, parts), f_e.den)


def fit_sym_e_poly(
    evals: Iterable[Tuple[Sequence[int], Fraction]],
    m: int,
    total_degree: int,
) -> SparsePoly:
    """Solve for the e-polynomial of weighted degree <= total_degree that
    matches every (partition, value) sample exactly.

    Requires the system to pin down all coefficients; redundant samples
    must agree.  Raises InconsistentSystem otherwise.

    The augmented rows are integers (values scaled by `scale`, the lcm of
    their denominators) and are reduced by Bareiss fraction-free elimination:
    after each pivot p, every later row becomes (row * p - f * pivot_row)
    // prev, where prev is the previous pivot.  By Sylvester's identity
    each entry is then a minor of the sample matrix, so every division is
    exact.  A column without a pivot is zero in every row not yet used as
    a pivot, so skipping it acts like moving it to the end.  Only the
    final back-substitution over the ncols pivot rows uses Fractions.
    """
    monos = e_monomials_by_weight(m, total_degree)
    ncols = len(monos)
    samples = [(tuple(alpha), Fraction(value)) for alpha, value in evals]
    scale = math.lcm(*(value.denominator for _, value in samples))
    rows: List[List[int]] = []
    tags: List[tuple] = []
    for alpha, value in samples:
        ev = elementary_values(alpha, m)
        row = [
            math.prod(ev[k] ** a for k, a in enumerate(beta) if a)
            for beta in monos
        ]
        row.append(value.numerator * (scale // value.denominator))
        rows.append(row)
        tags.append(alpha)

    pivot_cols: List[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivot_cols)
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        tags[r], tags[sel] = tags[sel], tags[r]
        pr = rows[r]
        p = pr[col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(x * p - f * y) // prev for x, y in zip(rows[i], pr)]
        prev = p
        pivot_cols.append(col)
    for i in range(len(pivot_cols), len(rows)):
        if rows[i][ncols]:
            raise InconsistentSystem(
                f"sample {tags[i]} disagrees with the fitted polynomial"
            )
    if len(pivot_cols) < ncols:
        missing = [monos[c] for c in range(ncols) if c not in pivot_cols]
        raise InconsistentSystem(
            f"samples leave {len(missing)} coefficients free, first {missing[0]}"
        )
    coef: List[Fraction] = [Fraction(0)] * ncols
    for k in range(ncols - 1, -1, -1):
        row = rows[k]
        acc = Fraction(row[ncols])
        for c in range(k + 1, ncols):
            if row[c]:
                acc -= row[c] * coef[c]
        coef[k] = acc / row[k]
    terms = {monos[c]: v / scale for c, v in enumerate(coef) if v}
    return SparsePoly("E", m, terms)
