"""Closed forms, embedded tables, recurrences, and the scaling chain."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import formulas
from hurwitz.errors import BudgetExceeded, CertificationError
from hurwitz.formulas import (
    TABLE_M_MAX,
    a_sequence,
    appendix_table,
    count_scale,
    f1_conjecture,
    f1_simple,
    f_genus0,
    f_one_part,
    f_table,
    f_table_eval,
    hurwitz,
    mu0_simple,
    pg_mu1,
)
from hurwitz.oracle import c_count, mu_count
from hurwitz.partitions import Partition, partitions
from reference import fraction_count_scale, fraction_f1_conjecture, fraction_hurwitz

alphas = st.lists(st.integers(1, 9), min_size=1, max_size=7).map(Partition.of)


def f1_two(n: int, r: int) -> Fraction:
    """Genus-1 f at alpha = (n-r, r), the two-part closed form checked
    against f1_conjecture."""
    if not 0 < r < n:
        raise ValueError("need 0 < r < n")
    return Fraction(n * n - (r + 1) * n + r * r, 24)


def f_one_part_by_convolution(n: int, g: int) -> Fraction:
    """One-part f with (sinh x / x)^(n-1) raised by n - 1 convolutions,
    a reference for the closed form in f_one_part."""
    base = [Fraction(1, math.factorial(2 * k + 1)) for k in range(g + 1)]
    power = [Fraction(1)] + [Fraction(0)] * g
    for _ in range(n - 1):
        power = [
            sum(power[i] * base[k - i] for i in range(k + 1))
            for k in range(g + 1)
        ]
    return Fraction(1, 4 ** g) * Fraction(n) ** (2 * g - 2) * power[g]


def f_one_part_by_recurrence(n: int, g: int) -> Fraction:
    """One-part f with (sinh x / x)^(n-1) raised by its power recurrence,
    a second reference for the closed form in f_one_part."""
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


def test_table_digest_is_current():
    assert formulas._compute_digest() == formulas._TABLE_DIGEST


def test_table_digest_is_sha256_without_openssl(monkeypatch):
    import hashlib

    assert type(formulas._sha256()).__module__ in ("_sha256", "_sha2")
    builtin = formulas._compute_digest()
    monkeypatch.setattr(formulas, "_sha256", hashlib.sha256)
    assert formulas._compute_digest() == builtin


def test_a_changed_table_constant_fails_the_checksum(monkeypatch):
    monkeypatch.setitem(formulas._DELTAS[1][0], (0, 0, 0), 2)
    formulas._table_certified.cache_clear()
    formulas.appendix_table.cache_clear()
    try:
        with pytest.raises(CertificationError):
            appendix_table(1)
    finally:
        formulas._table_certified.cache_clear()
        formulas.appendix_table.cache_clear()


def test_table_loads_for_all_genera():
    for g, mmax in TABLE_M_MAX.items():
        tab = appendix_table(g)
        assert len(tab.deltas) == mmax
        for m in range(1, mmax + 1):
            p = f_table(g, m)
            assert p.kind == "E" and p.arity == m
    with pytest.raises(BudgetExceeded):
        appendix_table(5)
    with pytest.raises(BudgetExceeded):
        f_table(1, 7)


def test_normalizing_denominators():
    assert appendix_table(1).d == 24
    assert appendix_table(2).d == 5760
    assert appendix_table(3).d == 2903040
    assert appendix_table(4).d == math.factorial(12) * 2 ** 5


def test_genus1_table_polynomials():
    e1 = {(1,): Fraction(1, 24), (0,): Fraction(-1, 24)}
    assert f_table(1, 1).terms == e1
    e2 = {
        (2, 0): Fraction(1, 24),
        (1, 0): Fraction(-1, 24),
        (0, 1): Fraction(-1, 24),
    }
    assert f_table(1, 2).terms == e2


def test_f_genus0():
    assert f_genus0(Partition.of([1])) == 1
    assert f_genus0(Partition.of([2, 1])) == Fraction(1, 3)
    assert f_genus0(Partition.of([1, 1, 1])) == 1
    assert f_genus0(Partition.of([2, 1, 1, 1])) == 5


def test_genus0_chain_vs_oracle():
    for parts in ([2, 1], [3, 1], [2, 2], [1, 1, 1], [2, 1, 1]):
        lam = Partition.of(parts)
        hc = hurwitz(lam, 0, f_genus0(lam))
        assert hc.c == c_count(lam, 0)


def test_one_part_values():
    assert f_one_part(2, 2) == Fraction(1, 480)
    assert f_one_part(1, 0) == 1
    # genus 0 single part reduces to n^(-2)
    for n in range(1, 8):
        assert f_one_part(n, 0) == Fraction(1, n * n)


def test_one_part_matches_convolution():
    grid = [(n, g) for n in range(1, 13) for g in range(0, 10)]
    grid += [(2, 40), (25, 20), (40, 7)]
    for n, g in grid:
        assert f_one_part(n, g) == f_one_part_by_convolution(n, g), (n, g)


# the edge of the compute bound j = n + 2g - 1 <= 160
ONE_PART_EDGE = [(53, 54), (40, 60), (10, 75), (100, 30), (80, 40)]


def test_one_part_matches_power_recurrence():
    grid = [(n, g) for n in range(1, 13) for g in range(0, 10)]
    for n, g in grid + ONE_PART_EDGE:
        assert f_one_part(n, g) == f_one_part_by_recurrence(n, g), (n, g)


def test_one_part_matches_tables():
    for g in range(1, 5):
        for n in range(1, 11):
            assert f_one_part(n, g) == f_table_eval(g, Partition.of([n]))


def test_genus1_family_consistency():
    # one formula per shape, all restrictions of the same polynomial
    for n in range(2, 9):
        assert f1_simple(n) == f1_conjecture(Partition.of([1] * n))
        for r in range(1, n):
            parts = sorted((n - r, r), reverse=True)
            assert f1_two(n, r) == f1_conjecture(Partition.of(parts))
    for m in range(1, 7):
        poly = f_table(1, m)
        for lam in partitions(m + 2):
            if lam.m == m:
                assert f1_conjecture(lam) == f_table_eval(1, lam)


def test_high_genus_two_part_vs_oracle():
    # pins the small genus-4 two-part table entries to raw counting
    hc = hurwitz(Partition.of([2, 1]), 4, f_table_eval(4, Partition.of([2, 1])))
    assert hc.c == 59048 == c_count(Partition.of([2, 1]), 4)
    hc = hurwitz(Partition.of([2, 2]), 4, f_table_eval(4, Partition.of([2, 2])))
    assert hc.c == 181395456 == c_count(Partition.of([2, 2]), 4)


def test_genus3_one_part_vs_oracle():
    lam = Partition.of([2])
    hc = hurwitz(lam, 3, f_one_part(2, 3))
    assert hc.c == c_count(lam, 3)


def test_hurwitz_chain_spot():
    hc = hurwitz(Partition.of([2, 1]), 1, Fraction(1, 6))
    assert hc.c == 80
    assert hc.mu == 40
    assert hc.f == Fraction(1, 6)


def test_hurwitz_rejects_non_count():
    with pytest.raises(ArithmeticError):
        hurwitz(Partition.of([2, 1]), 0, Fraction(1, 5))


def test_hurwitz_refusals_keep_their_messages():
    # the scale at (2,1), genus 0 is 3! 2^2 = 24: a remainder, then a sign
    alpha = Partition.of([2, 1])
    with pytest.raises(CertificationError) as err:
        hurwitz(alpha, 0, Fraction(1, 5))
    assert str(err.value) == "f = 1/5 at (2,1), g=0 scales to non-count 24/5"
    with pytest.raises(CertificationError) as err:
        hurwitz(alpha, 0, Fraction(-1, 3))
    assert str(err.value) == "f = -1/3 at (2,1), g=0 scales to non-count -8"
    assert hurwitz(alpha, 0, Fraction(0)).c == 0


@given(alphas, st.integers(0, 6))
def test_count_scale_matches_the_fraction_reference(alpha, g):
    num, den = count_scale(alpha, g)
    assert Fraction(num, den) == fraction_count_scale(alpha, g) and den > 0


@given(alphas, st.integers(0, 6), st.integers(0, 10 ** 12))
def test_hurwitz_matches_the_fraction_reference_on_counts(alpha, g, c):
    f = c / fraction_count_scale(alpha, g)
    hc = hurwitz(alpha, g, f)
    assert (hc.c, hc.mu) == fraction_hurwitz(alpha, g, f)
    assert hc.c == c and type(hc.c) is int and hc.f == f and hc.alpha == alpha


@given(alphas, st.integers(0, 6), st.fractions(max_denominator=10 ** 6))
def test_hurwitz_answers_and_refuses_as_the_fraction_reference(alpha, g, f):
    try:
        want = fraction_hurwitz(alpha, g, f)
    except CertificationError as ref_err:
        with pytest.raises(CertificationError) as err:
            hurwitz(alpha, g, f)
        assert str(err.value) == str(ref_err)
    else:
        hc = hurwitz(alpha, g, f)
        assert (hc.c, hc.mu) == want


@given(alphas)
def test_f1_conjecture_matches_the_fraction_reference(alpha):
    assert f1_conjecture(alpha) == fraction_f1_conjecture(alpha)


@given(st.integers(1, 14))
def test_f1_simple_matches_the_fraction_reference(n):
    assert f1_simple(n) == fraction_f1_conjecture(Partition((1,) * n))


@given(st.integers(1, 40))
def test_mu0_simple_matches_the_genus0_chain(n):
    ones = Partition((1,) * n)
    assert mu0_simple(n) == fraction_hurwitz(ones, 0, f_genus0(ones))[1]


@given(st.integers(2, 25))
@settings(deadline=None)
def test_pg_mu1_matches_the_genus1_chain(n_max):
    mu1 = pg_mu1(n_max)
    for n in range(2, n_max + 1):
        ones = Partition((1,) * n)
        assert mu1[n - 1] == fraction_hurwitz(ones, 1, f1_simple(n))[1], n


def test_mu0_simple_values():
    assert mu0_simple(3) == 4
    assert mu0_simple(4) == 120
    assert mu0_simple(5) == 8400
    assert mu0_simple(6) == 1088640


def test_mu0_simple_vs_oracle():
    for n in range(1, 7):
        assert mu0_simple(n) == mu_count(Partition.of([1] * n), 0)


def test_pg_recurrence_matches_genus1_closed_form():
    pg = pg_mu1(9)
    for n in range(1, 10):
        if n == 1:
            assert pg[0] == 0
            continue
        hc = hurwitz(Partition.of([1] * n), 1, f1_simple(n))
        assert pg[n - 1] == hc.mu
    assert pg[1] == Fraction(1, 2)


def test_a_sequence_frozen_values():
    seq = a_sequence(12)
    assert seq[0] == 0
    assert seq[1:4] == [2, 24, 312]
    assert seq[4:7] == [4720, 82800, 1662024]
    assert seq[11] == 27069937855488


def test_a_sequence_routes_disagree_loudly(monkeypatch):
    monkeypatch.setattr(formulas, "f1_simple", lambda n: Fraction(1))
    with pytest.raises(ArithmeticError):
        a_sequence(4)


@pytest.mark.parametrize("bump", [Fraction(1), Fraction(1, 2 * 720)])
def test_a_sequence_refuses_a_changed_tree_term(monkeypatch, bump):
    tree_coeffs = formulas.tree_coeffs

    def changed(n):
        w = tree_coeffs(n)
        w[6] += bump
        return w

    monkeypatch.setattr(formulas, "tree_coeffs", changed)
    with pytest.raises(CertificationError):
        a_sequence(8)


@given(st.integers(2, 30), st.integers(1, 29))
def test_f1_two_symmetric(n, r):
    if r >= n:
        r = n - 1
    assert f1_two(n, r) == f1_two(n, n - r)
