"""Exact sparse polynomial kernel."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hurwitz.algebra.poly import SparsePoly
from reference import (
    add,
    coeff,
    const,
    embed,
    evaluate,
    is_symmetric,
    mul,
    permute,
    scale,
    sub,
    substitute_one,
    var,
)


def yvar(i, arity=2, power=1):
    return var("Y", arity, i, power)


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
    assert coeff(p, (2,)) == 0
    assert coeff(p, (1,)) == 3


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        SparsePoly("Y", 2, {(1,): Fraction(1)})


def test_kind_mismatch_rejected():
    # a kind or an arity mismatch, by each binary operation
    for op in (add, sub, mul):
        for other in (const("W", 1, 1), const("Y", 2, 1)):
            with pytest.raises(ValueError, match="incompatible polynomials"):
                op(const("Y", 1, 1), other)


def test_arithmetic_small():
    y1, y2 = yvar(0), yvar(1)
    p = mul(add(y1, y2), sub(y1, y2))
    assert p == sub(yvar(0, power=2), yvar(1, power=2))
    assert sub(p, p).is_zero()
    q = add(y1, const("Y", 2, 3))
    assert scale(q, Fraction(2, 3)) == SparsePoly("Y", 2, {(1, 0): Fraction(2, 3), (0, 0): 2})


def test_scalar_mul_both_sides():
    p = add(yvar(0), const("Y", 2, 3))
    two = const("Y", 2, 2)
    assert scale(p, 2) == mul(p, two) == mul(two, p)


def test_degrees():
    p = SparsePoly("Y", 2, {(3, 1): Fraction(1), (0, 2): Fraction(-1)})
    assert p.total_degree() == 4
    assert p.per_var_degrees() == (3, 2)
    assert SparsePoly("Y", 2).total_degree() is None


def test_laurent_exponents_allowed():
    # negative powers are legal; the total degree is still the largest sum
    p = SparsePoly("Y", 1, {(-2,): Fraction(1), (1,): Fraction(1)})
    assert p.total_degree() == 1


def test_permute_moves_variables():
    p = SparsePoly("Y", 3, {(2, 0, 1): 1})
    # old variable i lands at position perm[i]
    q = permute(p, [1, 2, 0])
    assert q == SparsePoly("Y", 3, {(1, 2, 0): 1})


def test_embed():
    p = SparsePoly("Y", 2, {(2, 1): 5})
    assert embed(p, 4, [3, 0]) == SparsePoly("Y", 4, {(1, 0, 0, 2): 5})
    for positions in ([3], [0, 0], [0, 4]):
        with pytest.raises(ValueError):
            embed(p, 4, positions)


def test_substitute_one_kills_variable():
    # arity is kept, the exponent slot is zeroed
    p = mul(sub(yvar(0), const("Y", 2, 1)), yvar(1))
    assert substitute_one(p, 0).is_zero()
    assert substitute_one(p, 1) == sub(yvar(0), const("Y", 2, 1))


def test_evaluate():
    p = SparsePoly("Y", 2, {(1, 1): Fraction(2), (0, 0): Fraction(1, 3)})
    assert evaluate(p, [Fraction(1, 2), 4]) == 4 + Fraction(1, 3)
    with pytest.raises(ValueError):
        evaluate(p, [1])


def test_is_symmetric():
    sym = add(mul(yvar(0), yvar(1)), yvar(0), yvar(1))
    asym = add(yvar(0, power=2), yvar(1))
    assert is_symmetric(sym)
    assert not is_symmetric(asym)


def test_to_obj_terms_graded_lex():
    p = SparsePoly("Y", 2, {(0, 1): Fraction(1), (2, 0): Fraction(1), (1, 1): Fraction(1)})
    order = [e for e, _, _ in p.to_obj()["terms"]]
    assert order == [[0, 1], [1, 1], [2, 0]]


def test_str_readable():
    p = SparsePoly("Y", 2, {(1, 0): Fraction(-1, 2), (0, 0): Fraction(1)})
    assert str(p) == "(-y1 + 2)/2"


@given(polys(), polys(), polys(), small_fractions())
def test_ring_axioms(a, b, c, k):
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert mul(a, b) == mul(b, a)
    assert add(a, add(b, c)) == add(add(a, b), c)
    assert sub(add(a, b), b) == a
    # scaling is multiplication by a constant, on either side
    assert scale(a, k) == mul(a, const("Y", 2, k)) == mul(const("Y", 2, k), a)


@given(polys(arity=3))
def test_permute_composes(p):
    q = permute(permute(permute(p, [1, 2, 0]), [1, 2, 0]), [1, 2, 0])
    assert q == p


@given(polys(arity=3), st.permutations(range(3)))
def test_permute_matches_evaluation(p, perm):
    vals = [Fraction(2), Fraction(3), Fraction(5)]
    moved = [vals[perm[i]] for i in range(3)]
    assert evaluate(p, moved) == evaluate(permute(p, perm), vals)


@given(polys())
def test_json_roundtrip(p):
    assert SparsePoly.from_obj(json.loads(p.to_json())) == p


@given(polys(arity=2))
def test_symmetrization_is_symmetric(p):
    s = add(p, permute(p, [1, 0]))
    assert is_symmetric(s)
