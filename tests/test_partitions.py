"""Partition objects and conjugacy class sizes."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from hurwitz.partitions import Partition, class_size, parts_of_length, partitions
from reference import partitions_by_generator


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


def test_parse_reads_ascii_digits_only():
    # spaces around a field and blank fields are allowed, as before
    assert Partition.parse(" 3 , 1 ,") == Partition.of([3, 1])
    assert Partition.parse(",2,,1") == Partition.of([2, 1])
    # int() alone reads each of these as a number
    for text in ("3_0,1", "+3,1", "\u0663,1", "3,\uff11"):
        with pytest.raises(ValueError, match="cannot parse"):
            Partition.parse(text)


def test_derived_quantities():
    lam = Partition.of([2, 1])
    assert lam.n == 3 and lam.m == 2
    assert lam.min_length == 3
    assert lam.j_for_genus(0) == 3
    assert lam.j_for_genus(1) == 5
    assert str(lam) == "(2,1)"


def test_enumeration_counts():
    # partition numbers p(1..8)
    expect = [1, 2, 3, 5, 7, 11, 15, 22]
    for n, p in zip(range(1, 9), expect):
        assert len(list(partitions(n))) == p


def test_partitions_is_one_shared_tuple_in_the_generators_order():
    # a tuple, so that no caller can change what every later caller reads
    for n in range(1, 13):
        got = partitions(n)
        assert type(got) is tuple and partitions(n) is got
        assert got == tuple(partitions_by_generator(n))


def test_enumeration_order_and_uniqueness():
    seen = list(partitions(6))
    assert len(set(seen)) == len(seen)
    keys = [p.parts for p in seen]
    assert keys[0] == (6,)
    assert keys[-1] == (1,) * 6
    assert keys == sorted(keys, reverse=True)


def test_of_length():
    assert list(parts_of_length(5, 2)) == [(4, 1), (3, 2)]
    assert list(parts_of_length(3, 4)) == []
    assert list(parts_of_length(0, 0)) == [()]
    for n in range(9):
        for m in range(n + 2):
            assert list(parts_of_length(n, m)) == [
                p.parts for p in partitions(n) if p.m == m]


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


def test_n_and_m_are_the_sum_and_length_of_the_parts():
    for n in range(13):
        for p in partitions(n):
            q = Partition.of(list(reversed(p.parts)))
            assert (p.n, p.m) == (q.n, q.m) == (n, len(p.parts))
            assert p.n == sum(p.parts)
        for m in range(n + 2):
            for p in map(Partition, parts_of_length(n, m)):
                assert (p.n, p.m) == (n, m) == (sum(p.parts), len(p.parts))
    lam = Partition.parse("4,1,1")
    assert (lam.n, lam.m, lam.min_length, lam.j_for_genus(2)) == (6, 3, 7, 11)


def test_n_and_m_cannot_be_assigned_or_deleted():
    a = Partition.of([2, 1])
    for name in ("n", "m"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.n, a.m) == (3, 2)


def test_pickling_hashing_and_equality_ignore_the_stored_sizes():
    a = Partition.of([3, 1, 1])
    assert a.__reduce__() == (Partition, ((3, 1, 1),))
    b = pickle.loads(pickle.dumps(a))
    assert b == a and hash(b) == hash(a) == hash(((3, 1, 1),))
    assert (b.n, b.m) == (5, 3)
    assert a != Partition.of([3, 2]) and a < Partition.of([3, 2])
