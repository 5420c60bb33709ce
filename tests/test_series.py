"""Change of coordinates between y, u, w and the tree function."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import (
    TruncSeries,
    core_u_to_w_jet,
    core_u_to_y,
    core_w_jet_to_u,
    core_y_to_u,
    expand_y_to_w,
    sweep,
    tree_coeffs,
    u_to_x_rows,
    x_coefficient,
    x_orbit,
)
from hurwitz.algebra.sym import expand_orbits, is_orbit_exponent
from reference import (
    coeff,
    compose_with_tree,
    dense_expand_y_to_w,
    dense_sweep,
    dense_y_to_u,
    jet_coeff,
    orbit_form,
    var,
    w_power_x_table,
)


def ypolys(arity=2, max_exp=3, max_terms=4):
    """Symmetric y-polynomials in orbit form: weakly decreasing exponents."""
    exps = st.tuples(*[st.integers(0, max_exp)] * arity).map(
        lambda e: tuple(sorted(e, reverse=True)))
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(
        lambda f: f != 0
    )
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: SparsePoly("Y", arity, d)
    )


def test_tree_coefficients():
    # [x^n] w = n^(n-1)/n!
    cs = tree_coeffs(6)
    assert cs[0] == 0
    for n in range(1, 7):
        assert cs[n] == Fraction(n ** (n - 1), math.factorial(n))


def test_tree_series_functional_equation():
    # w = x e^w, checked as w_{n} = [x^n] x*exp(w) order by order
    order = 8
    w = tree_coeffs(order)
    expw = [Fraction(1)] + [Fraction(0)] * order
    # exp via the derivative recurrence (expw)' = w' expw
    for n in range(1, order + 1):
        expw[n] = sum(k * w[k] * expw[n - k] for k in range(1, n + 1)) / n
    for n in range(1, order + 1):
        assert w[n] == expw[n - 1]


def test_trunc_series_cap_enforcement():
    base = SparsePoly("W", 1, {(2,): Fraction(1)})
    s = TruncSeries(base, 3, 3)
    assert jet_coeff(s, (2,)) == 1
    assert jet_coeff(s, (3,)) == 0
    with pytest.raises(ValueError):
        TruncSeries(SparsePoly("W", 1, {(5,): Fraction(1)}), 3, 3)


def test_y_series_in_w():
    # y = 1/(1-w): every w-coefficient is 1
    y = var("Y", 1, 0)
    jet = expand_y_to_w(y, 6)
    for k in range(7):
        assert jet_coeff(jet, (k,)) == 1


def test_y_squared_series_in_w():
    # y^2 = 1/(1-w)^2 has coefficients k+1
    p = var("Y", 1, 0, 2)
    jet = expand_y_to_w(p, 6)
    for k in range(7):
        assert jet_coeff(jet, (k,)) == k + 1


def test_expand_refuses_undetermined_cap():
    p = var("Y", 1, 0, 4)
    with pytest.raises(ValueError):
        expand_y_to_w(p, 3)
    jet = expand_y_to_w(p, 3, allow_truncation=True)
    assert jet.per_var_cap == 3


def test_expand_refuses_laurent():
    p = SparsePoly("Y", 1, {(-1,): Fraction(1)})
    with pytest.raises(ValueError):
        expand_y_to_w(p, 4)


def test_w_power_table_matches_convolution():
    table = w_power_x_table(4, 8)
    w = tree_coeffs(8)
    direct = [[Fraction(1)] + [Fraction(0)] * 8]
    for d in range(1, 5):
        row = [
            sum(direct[d - 1][i] * w[a - i] for i in range(a + 1))
            for a in range(9)
        ]
        direct.append(row)
    assert table == direct


def test_x_coefficient_of_y():
    # [x^n] 1/(1-w) = n^n/n!
    y = var("Y", 1, 0)
    jet = expand_y_to_w(y, 8)
    for n in range(1, 9):
        assert x_coefficient(jet, (n,)) == Fraction(n ** n, math.factorial(n))


def test_compose_with_tree_matches_x_coefficient():
    # y1^2 y2 + y1 y2^2 - 1, from its orbit form; alpha in either order
    p = SparsePoly("Y", 2, {(2, 1): 1, (0, 0): -1})
    wjet = expand_y_to_w(p, 5, 10)
    xjet = compose_with_tree(dense_expand_y_to_w(expand_orbits(p), 5, 10), 5)
    memo: dict = {}
    for a1 in range(1, 4):
        for a2 in range(1, 3):
            want = coeff(xjet, (a1, a2))
            assert want == x_coefficient(wjet, (a1, a2))
            assert want == x_coefficient(wjet, (a1, a2), memo)


@pytest.mark.parametrize("amax", range(16))
def test_u_to_x_rows_compose_u_to_w_with_the_tree_powers(amax):
    # u^l = sum_{j >= l} C(j-1, l-1) w^j, then [x^a] w^j from the table
    table = w_power_x_table(amax, amax)
    rows = u_to_x_rows(amax)
    assert rows[0] == ((0, 1),) and len(rows) == amax + 1
    for l in range(1, amax + 1):
        want = tuple(
            (a, math.factorial(a) * sum(math.comb(j - 1, l - 1) * table[j][a]
                                        for j in range(l, a + 1)))
            for a in range(l, amax + 1))
        assert rows[l] == want
        assert all(type(v) is int for _, v in rows[l])


@settings(max_examples=40, deadline=None)
@given(ypolys(arity=3, max_exp=4, max_terms=5))
def test_x_orbit_matches_the_dense_x_jet(p):
    _assert_x_orbit_is_the_dense_x_jet(p, 6, 6)


@settings(max_examples=40, deadline=None)
@given(ypolys(arity=3, max_exp=8, max_terms=5))
def test_x_orbit_in_the_engine_shape_matches_the_dense_x_jet(p):
    # the sampling gate's shape: amax = total - arity + 1, the largest
    # part of a plan point of weight total, with exponents of p past amax
    # that the total cap of the y -> u sweep drops
    _assert_x_orbit_is_the_dense_x_jet(p, 7 - p.arity + 1, 7)


def _assert_x_orbit_is_the_dense_x_jet(p, amax, total):
    # every exponent with entries in 1 .. amax and total <= total, nothing else
    xs = x_orbit(p, amax, total)
    xjet = compose_with_tree(dense_expand_y_to_w(expand_orbits(p), total, total), total)
    assert all(e[-1] >= 1 and e[0] <= amax and sum(e) <= total for e in xs)
    region = {e for e in xjet.terms if e[-1] >= 1 and e[0] <= amax and is_orbit_exponent(e)}
    for e in region | set(xs):
        want = coeff(xjet, e) * p.den * math.prod(map(math.factorial, e))
        assert xs.get(e, 0) == want, e


def test_x_orbit_of_terms_that_each_have_a_zero_exponent_is_empty():
    # y^0 reaches no x^a with a >= 1, and every alpha the sweep keeps has
    # all its entries >= 1
    p = SparsePoly("Y", 3, {(4, 2, 0): 3, (5, 0, 0): -2, (0, 0, 0): 1})
    assert x_orbit(p, 6, 12) == {}


def test_x_coefficient_bivariate_value():
    # [x1^2 x2^3] y1 y2 = (2^2/2!)(3^3/3!) since the variables separate
    p = SparsePoly("Y", 2, {(1, 1): 1})
    jet = expand_y_to_w(p, 6, 12)
    a = x_coefficient(jet, (2, 3))
    assert a == Fraction(2 ** 2, 2) * Fraction(3 ** 3, 6)


def test_y_to_u_refuses_negative_exponent():
    # a sweep table indexed by -1 would read its last row instead
    with pytest.raises(ValueError):
        core_y_to_u({(-1,): 1}, 1)


@given(ypolys(arity=1, max_exp=4))
def test_y_u_roundtrip_univariate(p):
    back = core_u_to_y(core_y_to_u(p.num, 1), 1)
    assert SparsePoly.from_core("Y", 1, back, p.den) == p


@given(ypolys(arity=2, max_exp=3))
@settings(deadline=None)
def test_y_u_roundtrip_bivariate(p):
    back = core_u_to_y(core_y_to_u(p.num, 2), 2)
    assert SparsePoly.from_core("Y", 2, back, p.den) == p


@given(ypolys(arity=2, max_exp=3))
@settings(deadline=None)
def test_u_w_jet_roundtrip(p):
    # truncated substitution is unitriangular, so a region covering the
    # degrees recovers the polynomial exactly
    ucore = core_y_to_u(p.num, 2)
    per, tot = 3, 6
    wcore = core_u_to_w_jet(ucore, 2, per, tot)
    back = core_w_jet_to_u(wcore, 2, per, tot)
    assert back == ucore


def test_sweep_refuses_an_exponent_off_the_orbit_form():
    # a dense polynomial swept as an orbit form would lose its other terms
    with pytest.raises(ValueError, match="orbit form"):
        core_y_to_u({(1, 2): 1}, 2)
    with pytest.raises(ValueError, match="orbit form"):
        x_orbit(SparsePoly("Y", 2, {(1, 2): Fraction(1)}), 3, 3)


@given(ypolys(arity=1, max_exp=4))
def test_sweep_at_one_variable_is_the_dense_sweep(p):
    assert core_y_to_u(p.num, 1) == dense_y_to_u(p.num, 1)


@pytest.mark.parametrize("total", [None, 5, 8])
@given(p=ypolys(arity=3, max_exp=4, max_terms=5))
@settings(deadline=None, max_examples=40)
def test_orbit_sweep_is_the_orbit_form_of_the_dense_sweep(p, total):
    # every table entry nonzero, so a dropped or doubled path shows
    rows = [[(l, (k + 2) ** l - l) for l in range(k, 7)] for k in range(5)]
    dense = expand_orbits(p)
    want = SparsePoly.from_core("Y", 3, dense_sweep(dense.num, 3, rows, total), p.den)
    got = SparsePoly.from_core("Y", 3, sweep(p.num, 3, rows, total), p.den)
    assert got == orbit_form(want)


# y -> u lowers every exponent; the other table moves each one down by
# at most one or up by two, so it is neither raising nor lowering
@pytest.mark.parametrize("table", [
    lambda k: [(l, math.comb(k, l)) for l in range(k + 1)],
    lambda k: [(l, (k + 2) ** l - l) for l in range(max(k - 1, 0), k + 3)],
], ids=["lowering", "mixed"])
@pytest.mark.parametrize("total", [0, 3, 6, 9])
@given(p=ypolys(arity=3, max_exp=5, max_terms=5))
@example(p=SparsePoly("Y", 3, {(2, 1, 0): 1}))  # a raising cap on the mixed table drops (2,1,0)
@settings(deadline=None, max_examples=30)
def test_a_capped_sweep_is_the_uncapped_dense_sweep_cut_at_the_total(p, table, total):
    # the cap drops the image terms of total above it, whatever the
    # table; the dense sweep's per-target cap is sound only for a
    # raising one, so the reference is cut after an uncapped sweep
    rows = [table(k) for k in range(6)]
    dense = dense_sweep(expand_orbits(p).num, 3, rows)
    want = {e: c for e, c in dense.items() if sum(e) <= total}
    want = SparsePoly.from_core("Y", 3, want, p.den)
    got = SparsePoly.from_core("Y", 3, sweep(p.num, 3, rows, total), p.den)
    assert got == orbit_form(want)
