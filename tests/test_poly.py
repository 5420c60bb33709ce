"""Exact sparse polynomial kernel."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hurwitz.algebra.poly import SparsePoly


def yvar(i, arity=2, power=1):
    return SparsePoly.variable("Y", arity, i, power)


def small_fractions():
    return st.fractions(
        min_value=-8, max_value=8, max_denominator=6
    ).filter(lambda f: f != 0)


def polys(arity=2, max_exp=4, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * arity)
    return st.dictionaries(exps, small_fractions(), max_size=max_terms).map(
        lambda d: SparsePoly("Y", arity, d)
    )


def test_construct_drops_zeros():
    p = SparsePoly("Y", 1, {(2,): Fraction(0), (1,): Fraction(3)})
    assert len(p) == 1
    assert p.coeff((2,)) == 0
    assert p.coeff((1,)) == 3


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        SparsePoly("Y", 2, {(1,): Fraction(1)})


def test_kind_mismatch_rejected():
    a = SparsePoly.const("Y", 1, 1)
    b = SparsePoly.const("W", 1, 1)
    with pytest.raises(ValueError):
        a + b


def test_arithmetic_small():
    y1, y2 = yvar(0), yvar(1)
    p = (y1 + y2) * (y1 - y2)
    assert p == yvar(0, power=2) - yvar(1, power=2)
    assert (p - p).is_zero()


def test_scalar_mul_both_sides():
    p = yvar(0) + SparsePoly.const("Y", 2, 3)
    assert p.scale(2) == p * 2 == 2 * p


def test_degrees():
    p = SparsePoly("Y", 2, {(3, 1): Fraction(1), (0, 2): Fraction(-1)})
    assert p.total_degree() == 4
    assert p.per_var_degrees() == (3, 2)
    assert p.min_exponents() == (0, 0)
    assert SparsePoly.zero("Y", 2).total_degree() is None


def test_laurent_exponents_allowed():
    # negative powers are legal; degree helpers still report extremes
    p = SparsePoly("Y", 1, {(-2,): Fraction(1), (1,): Fraction(1)})
    assert p.min_exponents() == (-2,)
    assert p.total_degree() == 1


def test_permute_moves_variables():
    p = SparsePoly.monomial("Y", (2, 0, 1), 1)
    # old variable i lands at position perm[i]
    q = p.permute([1, 2, 0])
    assert q == SparsePoly.monomial("Y", (1, 2, 0), 1)


def test_embed():
    p = SparsePoly.monomial("Y", (2, 1), 5)
    q = p.embed(4, [3, 0])
    assert q == SparsePoly.monomial("Y", (1, 0, 0, 2), 5)


def test_substitute_one_kills_variable():
    # arity is kept, the exponent slot is zeroed
    p = (yvar(0) - SparsePoly.const("Y", 2, 1)) * yvar(1)
    assert p.substitute_one(0).is_zero()
    assert p.substitute_one(1) == yvar(0) - SparsePoly.const("Y", 2, 1)


def test_evaluate():
    p = SparsePoly("Y", 2, {(1, 1): Fraction(2), (0, 0): Fraction(1, 3)})
    assert p.evaluate([Fraction(1, 2), 4]) == 4 + Fraction(1, 3)


def test_is_symmetric():
    sym = yvar(0) * yvar(1) + yvar(0) + yvar(1)
    asym = yvar(0, power=2) + yvar(1)
    assert sym.is_symmetric()
    assert not asym.is_symmetric()


def test_sorted_terms_graded_lex():
    p = SparsePoly("Y", 2, {(0, 1): Fraction(1), (2, 0): Fraction(1), (1, 1): Fraction(1)})
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 1), (1, 1), (2, 0)]


def test_str_readable():
    p = SparsePoly("Y", 2, {(1, 0): Fraction(-1, 2), (0, 0): Fraction(1)})
    assert str(p) == "(-y1 + 2)/2"


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


@given(polys(arity=3))
def test_permute_composes(p):
    q = p.permute([1, 2, 0]).permute([1, 2, 0]).permute([1, 2, 0])
    assert q == p


@given(polys(arity=3), st.permutations(range(3)))
def test_permute_matches_evaluation(p, perm):
    vals = [Fraction(2), Fraction(3), Fraction(5)]
    moved = [vals[perm[i]] for i in range(3)]
    assert p.evaluate(moved) == p.permute(perm).evaluate(vals)


@given(polys())
def test_json_roundtrip(p):
    assert SparsePoly.from_obj(json.loads(p.to_json())) == p


@given(polys(arity=2))
def test_symmetrization_is_symmetric(p):
    s = p + p.permute([1, 0])
    assert s.is_symmetric()
