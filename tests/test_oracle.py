"""Counting transposition factorizations: enumeration vs recurrence vs sieve."""

import math
from fractions import Fraction

import pytest

from hurwitz.errors import BudgetExceeded, CertificationError
from hurwitz.oracle import (
    J_BUDGET,
    N_BUDGET,
    ClassVector,
    FactorizationTable,
    all_counts,
    c_count,
    cutjoin_step,
    dfs_count,
    mu_count,
    transitive_counts,
    _representative,
)
from hurwitz.partitions import Partition, class_size, partitions

from reference import log_sieve


def test_representative_layout():
    perm = _representative(Partition.of([3, 2]))
    # (0 1 2)(3 4) as a value array
    assert perm == (1, 2, 0, 4, 3)


def test_identity_base_case():
    t = all_counts(3, 4)
    assert t.count(3, 0, Partition.of([1, 1, 1])) == 1
    assert t.count(3, 0, Partition.of([3])) == 0
    # single transposition from the identity
    assert t.count(3, 1, Partition.of([2, 1])) == 1


def test_class_totals_mass():
    t = all_counts(4, 6)
    for n in range(1, 5):
        npairs = n * (n - 1) // 2
        for j in range(7):
            mass = sum(
                t.count(n, j, lam) * class_size(lam) for lam in partitions(n)
            )
            assert mass == npairs ** j


def test_parity_vanishing():
    # a product of j transpositions has sign (-1)^j, so counts vanish
    # unless j = n - m (mod 2)
    t = all_counts(4, 6)
    for (n, j, lam), c in t.entries.items():
        if c:
            assert (j - (n - lam.m)) % 2 == 0


def test_minimal_lengths():
    # reaching the class needs j >= n - m; transitivity needs j >= n + m - 2
    t = all_counts(4, 8)
    s = transitive_counts(t)
    for n in range(1, 5):
        for j in range(9):
            for lam in partitions(n):
                if j < n - lam.m:
                    assert t.count(n, j, lam) == 0
                if j < n + lam.m - 2:
                    assert s.count(n, j, lam) == 0


def test_cutjoin_step_conserves_mass():
    v = ClassVector(4, {Partition.of([1, 1, 1, 1]): 1})
    total = 1
    for _ in range(4):
        v = cutjoin_step(v)
        total *= 6
        assert sum(v.counts.values()) == total


def test_dfs_agrees_with_recurrence_both_modes():
    t = all_counts(N_BUDGET, J_BUDGET)
    s = transitive_counts(t)
    cases = [(n, j) for n in range(1, 6) for j in range(J_BUDGET + 1)]
    for n, j in cases + [(6, 10)]:
        for lam in partitions(n):
            assert dfs_count(lam, j, False) == t.count(n, j, lam)
            assert dfs_count(lam, j, True) == s.count(n, j, lam)


def test_full_cycle_is_automatically_transitive():
    # an n-cycle generates a transitive subgroup by itself, so the sieve
    # must not remove anything from those columns
    t = all_counts(4, 8)
    s = transitive_counts(t)
    for n in range(2, 5):
        lam = Partition.of([n])
        for j in range(9):
            assert t.count(n, j, lam) == s.count(n, j, lam)


def test_sieve_matches_log_reference():
    t = all_counts(8, 14)
    assert transitive_counts(t).entries == log_sieve(t)


def test_sieve_refuses_a_negative_count():
    # moving two tuples from the identity to the 3-cycles at (3, 2) keeps
    # the mass, but leaves fewer identity tuples than the three
    # non-transitive squares t t
    t = all_counts(3, 4)
    doctored = FactorizationTable("all", dict(t.entries))
    doctored.entries[(3, 2, Partition.of([1, 1, 1]))] -= 2
    doctored.entries[(3, 2, Partition.of([3]))] += 1
    with pytest.raises(CertificationError):
        transitive_counts(doctored)


def test_spot_counts():
    assert c_count(Partition.of([3]), 0) == 3
    assert c_count(Partition.of([2]), 1) == 1
    assert c_count(Partition.of([3]), 1) == 27
    assert c_count(Partition.of([2, 1]), 1) == 80
    assert c_count(Partition.of([1, 1, 1]), 1) == 240


def test_single_point_edge():
    # n = 1: only the empty factorization, and it is transitive
    assert c_count(Partition.of([1]), 0) == 1
    assert mu_count(Partition.of([1]), 0) == 1


def test_identity_class_genus_zero():
    assert c_count(Partition.of([1, 1, 1]), 0) == 24
    assert mu_count(Partition.of([1, 1, 1]), 0) == 4


def test_high_genus_checkpoints():
    # frozen from this recurrence and confirmed independently against the
    # genus-4 closed table through the engine chain (see acceptance tests)
    assert c_count(Partition.of([2, 1]), 4) == 59048
    assert c_count(Partition.of([2, 2]), 4) == 181395456


def test_budget_guards():
    with pytest.raises(BudgetExceeded):
        c_count(Partition.of([9]), 0)
    with pytest.raises(BudgetExceeded):
        c_count(Partition.of([8]), 4)  # j = 15
    with pytest.raises(BudgetExceeded):
        dfs_count(Partition.of([7]), 4, True)
    with pytest.raises(BudgetExceeded):
        dfs_count(Partition.of([2]), 15, True)
    with pytest.raises(BudgetExceeded):
        all_counts(9, 3)


def test_mu_is_count_over_factorial():
    lam = Partition.of([2, 1])
    assert mu_count(lam, 1) == Fraction(class_size(lam) * 80, math.factorial(3))
    assert mu_count(lam, 1) == 40
