"""Monomial derivation rules, exact division, and the operator basis."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.algebra.operators import (
    apply_wdw,
    apply_xdx,
    diag_fold,
    divide_ydiff,
    p_ladder,
    xdx_basis_convert,
)
from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import expand_y_to_w, x_coefficient
from hurwitz.errors import NonzeroRemainder, NotVanishing
from reference import orbit_form


def ypolys(arity=2, max_exp=3, max_terms=4, min_exp=0):
    exps = st.tuples(*[st.integers(min_exp, max_exp)] * arity)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(
        lambda f: f != 0
    )
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: SparsePoly("Y", arity, d)
    )


def test_xdx_monomial_rule():
    # y^k -> k (y^(k+2) - y^(k+1))
    p = SparsePoly.variable("Y", 1, 0, 3)
    assert apply_xdx(p, 0) == SparsePoly("Y", 1, {(5,): Fraction(3), (4,): Fraction(-3)})
    assert apply_xdx(SparsePoly.const("Y", 1, 7), 0).is_zero()


def test_wdw_monomial_rule():
    # y^k -> k (y^(k+1) - y^k)
    p = SparsePoly.variable("Y", 1, 0, 2)
    assert apply_wdw(p, 0) == SparsePoly("Y", 1, {(3,): Fraction(2), (2,): Fraction(-2)})


def test_rules_extend_to_negative_powers():
    p = SparsePoly("Y", 1, {(-1,): Fraction(1)})
    assert apply_xdx(p, 0) == SparsePoly("Y", 1, {(1,): Fraction(-1), (0,): Fraction(1)})
    assert apply_wdw(p, 0) == SparsePoly("Y", 1, {(0,): Fraction(-1), (-1,): Fraction(1)})


@given(ypolys())
def test_xdx_is_y_times_wdw(p):
    y0 = SparsePoly.variable("Y", 2, 0)
    assert apply_xdx(p, 0) == y0 * apply_wdw(p, 0)


@given(ypolys())
def test_xdx_commutes_across_variables(p):
    a = apply_xdx(apply_xdx(p, 0), 1)
    b = apply_xdx(apply_xdx(p, 1), 0)
    assert a == b


@given(ypolys(arity=1, max_exp=2, max_terms=3))
@settings(deadline=None, max_examples=30)
def test_xdx_matches_x_coefficients(p):
    # x d/dx multiplies [x^a] by a
    q = apply_xdx(p, 0)
    cap = max(q.per_var_degrees()[0], 4)
    pj = expand_y_to_w(p, cap)
    qj = expand_y_to_w(q, cap)
    for a in range(1, 4):
        assert x_coefficient(qj, (a,)) == a * x_coefficient(pj, (a,))


@given(ypolys(arity=1, max_exp=3, max_terms=3))
@settings(deadline=None, max_examples=30)
def test_wdw_matches_w_coefficients(p):
    # w d/dw multiplies [w^b] by b
    q = apply_wdw(p, 0)
    cap = max(p.per_var_degrees()[0] + 1, 4)
    pj = expand_y_to_w(p, cap)
    qj = expand_y_to_w(q, cap)
    for b in range(cap + 1):
        assert qj.coeff((b,)) == b * pj.coeff((b,))


def test_diag_fold():
    p = SparsePoly.monomial("Y", (2, 3), 5) + SparsePoly.monomial("Y", (0, 1), 1)
    q = diag_fold(p, 0, 1)
    assert q == SparsePoly("Y", 1, {(5,): Fraction(5), (1,): Fraction(1)})


@given(ypolys(arity=2, max_exp=3))
def test_divide_ydiff_roundtrip(q):
    d = SparsePoly.variable("Y", 2, 0) - SparsePoly.variable("Y", 2, 1)
    assert divide_ydiff(q * d, 0, 1) == q


def test_divide_ydiff_rejects_nondivisible():
    p = SparsePoly.const("Y", 2, 1)
    with pytest.raises(NonzeroRemainder):
        divide_ydiff(p, 0, 1)


def test_divide_ydiff_rejects_laurent():
    # the descent stops at level zero and would drop this term
    p = SparsePoly("Y", 2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        divide_ydiff(p, 0, 1)


def test_p_ladder_degrees_and_leading_terms():
    P, Q = p_ladder(5)
    assert P[0] == {1: 1, 0: -1}
    dblfact = 1
    for j in range(1, 6):
        assert max(P[j]) == 2 * j + 1
        dblfact *= 2 * j - 1
        assert P[j][2 * j + 1] == dblfact
        assert Q[j] == {k - 1: c for k, c in P[j].items()}


def test_p_ladder_matches_iterated_xdx():
    P, _ = p_ladder(4)
    p = SparsePoly("Y", 1, {(1,): Fraction(1), (0,): Fraction(-1)})
    for j in range(5):
        assert p == SparsePoly("Y", 1, {(k,): Fraction(c) for k, c in P[j].items()})
        p = apply_xdx(p, 0)


def reconstruct_decomp(b_terms: dict, m: int) -> SparsePoly:
    """Expand a decomposition back to an explicit y-polynomial, as sums of
    products of the univariate P ladders; the reference that
    xdx_basis_convert is checked against."""
    P, _ = p_ladder(max((max(jt, default=0) for jt in b_terms), default=0) + 1)

    def product(univariates) -> SparsePoly:
        acc = SparsePoly.const("Y", m, 1)
        for var, table in enumerate(univariates):
            acc = acc * SparsePoly("Y", m, {
                (0,) * var + (k,) + (0,) * (m - var - 1): c
                for k, c in table.items()
            })
        return acc

    out = SparsePoly.zero("Y", m)
    for jt, c in b_terms.items():
        out = out + product([P[j] for j in jt]).scale(c)
    return out


def decomps(m, jmax=2):
    """Orbit forms of symmetric decompositions: weakly decreasing j."""
    jt = st.tuples(*[st.integers(0, jmax)] * m).map(
        lambda j: tuple(sorted(j, reverse=True)))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(
        lambda f: f != 0
    )
    return st.dictionaries(jt, coeffs, max_size=3)


@given(decomps(3))
@settings(deadline=None, max_examples=40)
def test_basis_convert_roundtrip(d):
    dense = {p: c for j, c in d.items() for p in set(permutations(j))}
    assert xdx_basis_convert(orbit_form(reconstruct_decomp(dense, 3)), 3) == d


def test_basis_convert_rejects_nonvanishing():
    with pytest.raises(NotVanishing):
        xdx_basis_convert(SparsePoly.const("Y", 1, 1), 1)


def _symmetrized(a: dict, b: dict) -> SparsePoly:
    """Orbit form of A(y1) B(y2) + B(y1) A(y2) for univariate {k: c}."""
    def prod(u, v):
        return SparsePoly("Y", 2, {(k, l): Fraction(c * d)
                                   for k, c in u.items() for l, d in v.items()})
    return orbit_form(prod(a, b) + prod(b, a))


def test_basis_convert_names_the_nonvanishing_variable():
    # (y1 - 1) y2 + y1 (y2 - 1) vanishes at no y_i = 1; symmetric, so the
    # first variable is named
    p = _symmetrized({1: 1, 0: -1}, {1: 1})
    with pytest.raises(NotVanishing, match="y_1"):
        xdx_basis_convert(p, 2)


def test_basis_convert_rejects_a_single_w_derivation():
    # P_1 x Q_1 carries one w d/dw factor, so it is not f(x d/dx) V_2
    P, Q = p_ladder(1)
    with pytest.raises(NotVanishing, match="w d/dw"):
        xdx_basis_convert(_symmetrized(P[1], Q[1]), 2)


def test_basis_convert_rejects_double_even():
    # Q_1 x Q_1 has two even labels, outside the decomposable cone
    _, Q = p_ladder(1)
    with pytest.raises(NotVanishing):
        xdx_basis_convert(_symmetrized(Q[1], Q[1]), 2)
