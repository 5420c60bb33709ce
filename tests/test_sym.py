"""Symmetric polynomials: orbit forms and exact fitting in the elementary basis."""

import math
from fractions import Fraction
from itertools import permutations

import pytest

from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.sym import (
    e_monomial_expand,
    e_monomials_by_weight,
    elementary_values,
    expand_orbits,
    fit_sym_e_poly,
)
from hurwitz.engine import _sample_plan
from hurwitz.errors import InconsistentSystem
from reference import orbit_form


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
        (p.parts, poly.evaluate(
            [Fraction(v) for v in elementary_values(p.parts, m)]))
        for p in _sample_plan(m, wdeg)
    ]


@pytest.mark.parametrize("m,wdeg", [(1, 0), (1, 4), (2, 3), (3, 6), (4, 4)])
def test_fit_recovers_a_known_polynomial(m, wdeg):
    poly = known_poly(m, wdeg)
    assert fit_sym_e_poly(samples(poly, m, wdeg), m, wdeg) == poly


def test_fit_rejects_a_perturbed_redundant_sample():
    m, wdeg = 3, 4
    evals = samples(known_poly(m, wdeg), m, wdeg)
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


@pytest.mark.parametrize("m,wdeg", [(1, 4), (3, 5), (5, 4)])
def test_e_monomials_expand_to_their_orbit_forms(m, wdeg):
    def e(k):
        return SparsePoly("Y", m, {
            p: 1 for p in set(permutations((1,) * k + (0,) * (m - k)))})

    for beta in e_monomials_by_weight(m, wdeg):
        dense = SparsePoly.const("Y", m, 1)
        for k, a in enumerate(beta):
            for _ in range(a):
                dense = dense * e(k + 1)
        assert SparsePoly("Y", m, e_monomial_expand(beta, m)) == orbit_form(dense)
