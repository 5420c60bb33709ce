"""Symmetric polynomials: orbit forms and exact fitting in the elementary basis."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from hurwitz.algebra import sym
from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.sym import (
    e_monomial_expand,
    e_monomials_by_weight,
    e_numerator,
    e_value,
    elementary_values,
    expand_orbits,
    fit_sym_e_poly,
    is_orbit_exponent,
    to_e_basis,
)
from hurwitz.engine import _sample_plan
from hurwitz.errors import CertificationError, InconsistentSystem
from hurwitz.partitions import parts_of_length
from reference import (
    const,
    elementary_values_by_subsets,
    evaluate,
    mul,
    orbit_form,
    product_e_monomial_expand,
)


def known_poly(m, wdeg):
    """Every e-monomial of weighted degree <= wdeg, with coefficients of
    both signs over several denominators (some zero)."""
    monos = e_monomials_by_weight(m, wdeg)
    return SparsePoly("E", m, {
        beta: Fraction((-1) ** k * (k % 4), k % 7 + 1)
        for k, beta in enumerate(monos)
    })


def samples(poly, m, wdeg):
    return [
        (p, evaluate(poly, elementary_values(p, m)))
        for p in _sample_plan(m, wdeg)
    ]


@pytest.mark.parametrize("m,wdeg", [(1, 0), (1, 4), (2, 3), (3, 6), (4, 4)])
def test_fit_recovers_a_known_polynomial(m, wdeg):
    poly = known_poly(m, wdeg)
    assert fit_sym_e_poly(samples(poly, m, wdeg), m, wdeg) == poly


def test_fit_rejects_a_perturbed_redundant_sample():
    # the sample plan has one point per unknown; the weight m + wdeg + 1
    # partitions are redundant on top of it
    m, wdeg = 3, 4
    poly = known_poly(m, wdeg)
    evals = samples(poly, m, wdeg) + [
        (p, evaluate(poly, elementary_values(p, m)))
        for p in parts_of_length(m + wdeg + 1, m)
    ]
    assert len(evals) > len(e_monomials_by_weight(m, wdeg))
    alpha, value = evals[-1]
    evals[-1] = (alpha, value + Fraction(1, 5))
    with pytest.raises(InconsistentSystem, match="disagrees"):
        fit_sym_e_poly(evals, m, wdeg)


def test_fit_rejects_too_few_samples():
    m, wdeg = 3, 4
    evals = samples(known_poly(m, wdeg), m, wdeg)
    ncols = len(e_monomials_by_weight(m, wdeg))
    with pytest.raises(InconsistentSystem, match="free"):
        fit_sym_e_poly(evals[:ncols - 1], m, wdeg)
    with pytest.raises(InconsistentSystem, match="free"):
        fit_sym_e_poly([], m, wdeg)


def test_fit_handles_mixed_denominators():
    m, wdeg = 2, 2
    poly = SparsePoly("E", m, {
        (0, 0): Fraction(1, 3), (1, 0): Fraction(-5, 8),
        (2, 0): Fraction(2, 7), (0, 1): 4,
    })
    evals = samples(poly, m, wdeg)
    assert len({v.denominator for _, v in evals}) > 2
    assert fit_sym_e_poly(evals, m, wdeg) == poly


@pytest.mark.parametrize("orbits", [
    {(4,): -3, (0,): 1},
    {(3, 1): 1, (2, 2): 5, (0, 0): -2},
    {(3, 0, 0): Fraction(1, 3), (2, 1, 1): 1, (1, 1, 1): 7},
    {(3, 3, 1, 0): 2, (2, 2, 2, 2): 1, (1, 0, 0, 0): -1},
    {(4, 4, 0, 0, 0): 1, (2, 1, 1, 0, 0): Fraction(-5, 6)},
    {(5, 0, 0, 0, 0, 0): -1, (3, 3, 1, 0, 0, 0): 1, (2, 2, 1, 1, 0, 0): 4,
     (1, 1, 1, 1, 1, 1): 9},
])
def test_orbit_form_roundtrip(orbits):
    m = len(next(iter(orbits)))
    dense = SparsePoly("Y", m, {
        p: c for e, c in orbits.items() for p in set(permutations(e))})
    orbit = SparsePoly("Y", m, orbits)
    assert orbit_form(dense) == orbit
    expanded = expand_orbits(orbit)
    assert expanded == dense
    multinomials = [
        math.factorial(m) // math.prod(math.factorial(e.count(k)) for k in set(e))
        for e in orbits]
    assert len(expanded) == sum(multinomials)


@pytest.mark.parametrize("m,wdeg", [(1, 4), (3, 5), (5, 4), (6, 5), (7, 3)])
def test_e_monomials_expand_to_their_orbit_forms(m, wdeg):
    def e(k):
        return SparsePoly("Y", m, {
            p: 1 for p in set(permutations((1,) * k + (0,) * (m - k)))})

    for beta in e_monomials_by_weight(m, wdeg):
        dense = mul(const("Y", m, 1),
                    *(e(k + 1) for k, a in enumerate(beta) for _ in range(a)))
        got = e_monomial_expand(beta, m)
        assert SparsePoly("Y", m, got) == orbit_form(dense)
        assert got == product_e_monomial_expand(beta, m)


def test_to_e_basis_inverts_the_product_built_e_monomials():
    m = 8
    monos = e_monomials_by_weight(m, 6)
    assert len(monos) == 30
    for beta in monos:
        orbit = product_e_monomial_expand(beta, m)
        assert e_monomial_expand(beta, m) == orbit
        assert to_e_basis(orbit, 1, m) == SparsePoly("E", m, {beta: 1}), beta


@pytest.mark.parametrize("m,wdeg", [(1, 4), (3, 5), (5, 4)])
def test_to_e_basis_recovers_a_known_polynomial_over_its_denominator(m, wdeg):
    poly = known_poly(m, wdeg)
    assert poly.den > 1
    orbit: dict = {}
    for beta, c in poly.num.items():
        for e, ec in e_monomial_expand(beta, m).items():
            orbit[e] = orbit.get(e, 0) + c * ec
    assert to_e_basis(orbit, poly.den, m) == poly
    # the numerators need not be reduced against the denominator
    assert to_e_basis({e: 3 * c for e, c in orbit.items()}, 3 * poly.den, m) == poly


def test_an_expansion_that_misses_its_leading_term_is_refused(monkeypatch):
    # without the check the leading exponent would never leave the work dict
    monkeypatch.setattr(sym, "e_monomial_expand", lambda beta, m: {(0,) * m: 1})
    with pytest.raises(CertificationError, match="does not lead"):
        to_e_basis({(1, 0): 1}, 1, 2)


@given(st.lists(st.integers(-2, 2), max_size=6).map(tuple))
def test_the_orbit_test_is_the_pairwise_definition(e):
    # a narrow range, so that ties, zeros and negative entries are common
    assert is_orbit_exponent(e) == all(a >= b for a, b in zip(e, e[1:]))


@st.composite
def e_poly_at_parts(draw):
    """An e-basis polynomial of 0..4 variables with nonnegative exponents
    and any numerators over one denominator, and two lists of parts to
    evaluate it at (each as many as the arity or more)."""
    m = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 4)] * m)
    num = draw(st.dictionaries(exps, st.integers(-10 ** 6, 10 ** 6), max_size=12))
    den = draw(st.integers(1, 10 ** 4))
    parts = st.lists(st.integers(1, 12), min_size=m, max_size=m + 3).map(tuple)
    return SparsePoly.from_core("E", m, num, den), draw(parts), draw(parts)


@given(e_poly_at_parts())
def test_e_value_matches_the_fraction_reference(case):
    f_e, parts, other = case
    ev = elementary_values_by_subsets(parts, f_e.arity)
    assert elementary_values(parts, f_e.arity) == ev
    want = evaluate(f_e, ev)
    assert e_value(f_e, parts) == want
    # the plan the first call built is reused, at the same point and at
    # another; an equal but distinct copy builds its own
    assert e_value(f_e, parts) == want
    assert e_value(f_e, other) == evaluate(f_e, elementary_values_by_subsets(other, f_e.arity))
    copy = SparsePoly.from_core("E", f_e.arity, dict(f_e.num), f_e.den)
    assert copy == f_e and copy is not f_e
    assert e_value(copy, parts) == want
    assert e_numerator(f_e, parts) == want * f_e.den


def test_the_evaluator_takes_arity_zero_and_the_zero_polynomial():
    const6 = SparsePoly.from_core("E", 0, {(): 6}, 4)
    assert e_value(const6, ()) == e_value(const6, (2, 3)) == Fraction(3, 2)
    assert e_value(SparsePoly.from_core("E", 0, {}), ()) == 0
    assert e_value(SparsePoly.from_core("E", 3, {}), (1, 2, 3)) == 0


@pytest.mark.parametrize("e", [(-1, 0), (2, -1), (0, 0, -3)])
def test_the_evaluator_refuses_a_negative_exponent(e):
    # a table of e_1's powers would read powers[-1] and go on silently
    f_e = SparsePoly.from_core("E", len(e), {(0,) * len(e): 1, e: 5}, 3)
    for _ in range(2):  # a refused plan is not kept
        with pytest.raises(ValueError, match="negative"):
            e_value(f_e, (2,) * len(e))
