"""Partition objects and conjugacy class sizes."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from hurwitz.partitions import Partition, class_size, partitions, partitions_of_length


def test_construction_and_normalization():
    assert Partition.of([1, 3, 2]).parts == (3, 2, 1)
    assert Partition.parse("1,3,2") == Partition.of([3, 2, 1])
    with pytest.raises(ValueError):
        Partition((1, 2))  # raw constructor insists on descending order
    with pytest.raises(ValueError):
        Partition.of([0, 1])
    with pytest.raises(ValueError):
        Partition.parse("x,1")
    with pytest.raises(ValueError):
        Partition.parse("")


def test_derived_quantities():
    lam = Partition.of([2, 1])
    assert lam.n == 3 and lam.m == 2
    assert lam.min_length == 3
    assert lam.j_for_genus(0) == 3
    assert lam.j_for_genus(1) == 5
    assert lam.key() == "2-1"
    assert str(lam) == "(2,1)"


def test_enumeration_counts():
    # partition numbers p(1..8)
    expect = [1, 2, 3, 5, 7, 11, 15, 22]
    for n, p in zip(range(1, 9), expect):
        assert len(list(partitions(n))) == p


def test_enumeration_order_and_uniqueness():
    seen = list(partitions(6))
    assert len(set(seen)) == len(seen)
    keys = [p.parts for p in seen]
    assert keys[0] == (6,)
    assert keys[-1] == (1,) * 6
    assert keys == sorted(keys, reverse=True)


def test_of_length():
    got = [p.parts for p in partitions_of_length(5, 2)]
    assert got == [(4, 1), (3, 2)]
    assert list(partitions_of_length(3, 4)) == []
    assert list(partitions_of_length(0, 0)) == [Partition(())]
    for n in range(9):
        for m in range(n + 2):
            assert list(partitions_of_length(n, m)) == [
                p for p in partitions(n) if p.m == m]


def test_class_sizes_small():
    assert class_size(Partition.of([1, 1, 1])) == 1
    assert class_size(Partition.of([2, 1])) == 3
    assert class_size(Partition.of([3])) == 2
    assert class_size(Partition.of([2, 2])) == 3


@given(st.integers(1, 9))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(p) for p in partitions(n)) == math.factorial(n)


def test_value_semantics():
    a, b, c = Partition((2, 1)), Partition.of([1, 2]), Partition((3,))
    assert a == b and hash(a) == hash(b) == hash(((2, 1),))
    assert a != c and a != (2, 1) and a != ((2, 1),)
    assert a < c and c > a and a <= b and sorted([c, a]) == [a, c]
    with pytest.raises(TypeError):
        a < ((3,),)
    assert repr(a) == "Partition(parts=(2, 1))" and str(a) == "(2,1)"
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.parts = (3,)
    with pytest.raises(AttributeError):
        del a.parts
