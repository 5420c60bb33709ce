"""The PDE pipeline: seeds, assembly, solver, extraction, orchestration."""

import ast
import functools
import inspect
import json
import math
import os
import random
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.algebra import operators, series, sym
from hurwitz.algebra.operators import xdx_basis_convert
from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import tree_coeffs
from hurwitz.algebra.sym import (
    e_monomials_by_weight,
    e_value,
    elementary_values,
    expand_orbits,
    fit_sym_e_poly,
    is_orbit_exponent,
    weighted_degree,
)
from hurwitz import cli, engine
from hurwitz.engine import (
    CACHE_VERSION,
    Cell,
    DEFAULT_BUDGETS,
    Engine,
    K11,
    assemble_K,
    extract_f,
    is_cell,
    per_var_bound,
    psi0_base,
    solve_pde,
    theta_symmetrize,
    total_bound,
)
from hurwitz.errors import (
    BudgetExceeded,
    CertificationError,
    ResidualNonzero,
    RouteDisagreement,
)
from hurwitz.formulas import f_table
from hurwitz.oracle import c_count
from hurwitz.partitions import Partition
from reference import (
    add,
    apply_wdw,
    as_fractions,
    compose_with_tree,
    const,
    dense_assemble_K,
    dense_expand_y_to_w,
    dense_extract_f,
    dense_psi0,
    dense_residual,
    dense_sampled_values,
    dense_solve,
    evaluate,
    forward_basis_convert,
    mul,
    orbit_form,
    permute,
    sampled_values,
    scale,
    sub,
    var,
    w_jet_sampled_values,
)

PSI11 = SparsePoly("Y", 1, {
    (3,): Fraction(1, 24),
    (2,): Fraction(-1, 24),
    (1,): Fraction(-1, 24),
    (0,): Fraction(1, 24),
})

# First derivatives of the one- and two-variable genus-0 cells, which
# have no polynomial form: w1 = 1 - 1/y1, and the rational kernel
# y1^2 (y2 - 1)/(y1 - y2) - x2/(x1 - x2) as its y-numerator plus the
# (x1, x2) coefficients of the pure-x remainder's numerator.
XDX_PSI01 = SparsePoly("Y", 1, {(0,): Fraction(1), (-1,): Fraction(-1)})
XDX_PSI02_NUM = SparsePoly("Y", 2, {(2, 1): Fraction(1), (2, 0): Fraction(-1)})
XDX_PSI02_X_NUM = (0, -1)


def test_psi0_base_three_variables():
    v3 = psi0_base(3).poly
    one = const("Y", 3, 1)
    assert v3 == mul(*(sub(var("Y", 3, i), one) for i in range(3)))
    with pytest.raises(ValueError):
        psi0_base(2)


def test_genus0_extraction_is_power_of_e1():
    eng = Engine()
    for m in (3, 4, 5):
        fr = eng.f_result(m, 0)
        assert fr.f_e == SparsePoly("E", m, {
            (m - 3,) + (0,) * (m - 1): Fraction(1)
        })


def test_one_variable_seed_is_the_tree_function():
    seed = XDX_PSI01
    y = var("Y", 1, 0)
    assert mul(y, seed) == sub(y, const("Y", 1, 1))
    # numeric: at y = 1/(1-w) the seed takes the value w
    for w in (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)):
        yv = 1 / (1 - w)
        assert evaluate(seed, [yv]) == w


def test_one_variable_counts_close_the_loop():
    # [x^n] of the seed must be n^(n-1)/n!, which pins c_0((n)) = n^(n-2)
    for n in range(1, 8):
        assert c_count(Partition.of([n]), 0) == n ** max(n - 2, 0)


def _xjet_of_y_poly(p: SparsePoly, order: int) -> dict:
    xjet = compose_with_tree(dense_expand_y_to_w(p, order, 2 * order), order)
    return dict(xjet.terms)


def _trunc_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            if e[0] + e[1] > order:
                continue
            v = out.get(e, Fraction(0)) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def test_two_variable_seed_against_raw_counts():
    """The rational kernel num/(y1-y2) - x2/(x1-x2) holds at jet level.

    Multiply through by (x1 - x2): the left side becomes a genuine
    bivariate power series built from the divided difference
    (y1-y2)/(x1-x2), and the right side has coefficients read off raw
    transitive counts through the coefficient normalization.
    """
    order = 6
    num_jet = _xjet_of_y_poly(XDX_PSI02_NUM, order)

    # (y1-y2)/(x1-x2) = sum_n (n^n/n!) sum_{i+j=n-1} x1^i x2^j
    w = tree_coeffs(order + 1)
    dd = {}
    for n in range(1, order + 2):
        yc = Fraction(n ** n, math.factorial(n))
        for i in range(n):
            if i <= order and n - 1 - i <= order and n - 1 <= order:
                dd[(i, n - 1 - i)] = yc
    assert dd[(0, 0)] == 1  # unit, so the jet inverse below is exact

    inv = {(0, 0): Fraction(1)}
    for s in range(1, order + 1):
        for a in range(s + 1):
            e = (a, s - a)
            acc = Fraction(0)
            for (i, j), c in dd.items():
                if (i, j) != (0, 0) and i <= a and j <= s - a:
                    acc -= c * inv.get((a - i, s - a - j), Fraction(0))
            if acc:
                inv[e] = acc

    lhs = _trunc_mul(num_jet, inv, order)
    # subtract the pure-x remainder x2/(x1-x2) * (x1-x2) = x2
    x2 = XDX_PSI02_X_NUM
    lhs[(1, 0)] = lhs.get((1, 0), Fraction(0)) + x2[0]
    lhs[(0, 1)] = lhs.get((0, 1), Fraction(0)) + x2[1]

    # right side: (x1-x2) times the first-slot derivative series, whose
    # [x1^a x2^b] is a * c_0/(j! a b) = c_0/((a+b)! b)
    def gc(a: int, b: int) -> Fraction:
        if a < 1 or b < 1:
            return Fraction(0)
        lam = Partition.of(sorted((a, b), reverse=True))
        return Fraction(c_count(lam, 0), math.factorial(a + b) * b)

    for a in range(order + 1):
        for b in range(order + 1 - a):
            want = gc(a - 1, b) - gc(a, b - 1)
            assert lhs.get((a, b), Fraction(0)) == want

    # the product by (x1-x2) forces diagonal cancellation
    for s in range(order + 1):
        assert sum(lhs.get((a, s - a), Fraction(0)) for a in range(s + 1)) == 0


def test_theta_placements():
    # m=3, |S| = 1: the summand y_r y_s^2 lands on all ordered pairs r != s;
    # its tail (2, 0) has one copy of s's exponent 2, so its fold weight is 1
    got = theta_symmetrize({(2, 0): {1: 1}}, 3, 1)
    expect: dict = {}
    for r in range(3):
        for s in range(3):
            if r == s:
                continue
            e = [0, 0, 0]
            e[r] += 1
            e[s] += 2
            expect[tuple(e)] = expect.get(tuple(e), 0) + Fraction(1)
    assert expand_orbits(got) == SparsePoly("Y", 3, expect)
    # placement count: m * C(m-1, i), with |S| = 2 of the tail's 3 slots
    # folded in as C(3, 2)
    assert theta_symmetrize({(0, 0, 0): {0: math.comb(3, 2)}}, 4, 1) == const("Y", 4, 4 * 3)


def test_psi0_base_matches_the_dense_operator_loop():
    for m in range(3, 8):
        rep = psi0_base(m)
        assert all(is_orbit_exponent(e) for e in rep.orbit.num)
        assert rep.poly == dense_psi0(m)


def test_a_psi0_step_folded_with_weight_two_misses_the_dense_loop():
    # each x d/dx step folds the factor rows, whose S block is empty, with
    # the unit weight; m = 3 takes no step
    mutant = _mutated(
        "psi0_base", "_factor_rows(orbit)",
        "{t: {k: 2 * c for k, c in r.items()} for t, r in _factor_rows(orbit).items()}")
    assert mutant(3).poly == dense_psi0(3)
    assert all(mutant(m).poly != dense_psi0(m) for m in range(4, 8))


@pytest.fixture(scope="module")
def grid():
    """The cold_grid cells: every budgeted cell with m <= 5."""
    eng = Engine()
    for g, top in DEFAULT_BUDGETS.items():
        for m in range(1, min(top, 5) + 1):
            if is_cell(m, g):
                eng.f_result(m, g)
    return {k: eng.cell(*k) for k in eng.computed_cells()}


@pytest.fixture(scope="module")
def dense_K(grid):
    """The dense K of every solved grid cell but (1,1), whose K is K11."""
    return {(m, g): dense_assemble_K(m, g, grid)
            for m, g in grid if g >= 1 and (m, g) != (1, 1)}


@pytest.fixture(scope="module")
def staircase():
    """Every cell up to the top of each genus of the budgets below."""
    budgets = {0: 9, 1: 8, 2: 6, 3: 5, 4: 4}
    eng = Engine(budgets)
    for g, top in budgets.items():
        eng.cell(top, g)
    return {k: eng.cell(*k) for k in eng.computed_cells()}


def test_orbit_built_K_matches_the_dense_assembly(grid, dense_K, staircase):
    assert len(dense_K) == 13
    for (m, g), want in dense_K.items():
        assert assemble_K(m, g, grid).poly == want, (m, g)
    # past the grid: the deepest genus-1 cell the dense route builds in
    # seconds, and the top cells of genus 3 and 4, where T4 splits the
    # genus more than one way
    for m, g in ((6, 1), (4, 3), (3, 4)):
        want = dense_assemble_K(m, g, staircase)
        assert assemble_K(m, g, staircase).poly == want, (m, g)


def _drop_first_row(monkeypatch):
    rows = engine._factor_rows
    monkeypatch.setattr(engine, "_factor_rows",
                        lambda *args: dict(list(rows(*args).items())[1:]))


def _no_stabilizer_orders(monkeypatch):
    # `_aut`, which the products' fold weight reads, and T2's closed form
    # for its S block of one entry b: aut(tail) / aut(rest), the
    # multiplicity of b in the tail
    monkeypatch.setattr(engine, "_aut", lambda e: 1)
    monkeypatch.setattr(engine, "_merge_rows",
                        _mutated("_merge_rows", "rest.count(b) + 1", "1"))


@pytest.mark.parametrize("mutate", [_drop_first_row, _no_stabilizer_orders],
                         ids=["a-block-row-dropped", "no-stabilizer-orders"])
def test_a_mutated_orbit_sum_fails_the_vanishing_check(grid, monkeypatch, mutate):
    # with m = 2 every block has at most one entry, and no stabilizer is
    # bigger than one
    mutate(monkeypatch)
    for m, g in ((3, 1), (4, 1), (3, 2)):
        with pytest.raises(CertificationError, match="does not vanish at y_1 = 1"):
            assemble_K(m, g, grid)


# T4's self-mirrored pairs sit at odd m and even g: (1,2), (3,2), (1,4)
@pytest.mark.parametrize("name,old,new", [
    ("_summands", "2 if (ga, k) == mirror else 1", "1"),
    ("_summands", "if (ga, k) <= mirror:", "if True:"),
    ("_merge_rows", "if b:", "if True:"),
    ("_diag_rows", "- 2 * p", "- p"),
    ("_summands", "(2, _merge_rows", "(1, _merge_rows"),
    ("_diag_rows", "(2 if v2 < v1 else 1) * ", ""),
    ("_merge_rows", "2 * c", "c"),
    ("theta_symmetrize", "(tail.count(k) + 1) * c", "c"),
    ("_merge_rows", "rest.count(b) + 1", "1"),
    ("_diag_rows", "p *= scale", "p *= 2 * scale"),
    ("_product_rows", "_aut(tail)", "1"),
], ids=["self-mirrored-T4-unhalved", "mirrored-T4-pair-twice",
        "T2-one-h-term-too-many", "T1-middle-weight-one", "T2-unhalved",
        "T1-off-diagonal-undoubled", "T2-off-diagonal-undoubled",
        "placement-weight-one", "one-entry-S-fold-weight-one",
        "empty-S-fold-weight-two", "product-fold-without-tail-orders"])
def test_a_mutated_assembly_is_refused_or_misses_the_dense_K(
        grid, dense_K, monkeypatch, name, old, new):
    monkeypatch.setattr(engine, name, _mutated(name, old, new))
    caught = []
    for (m, g), want in dense_K.items():
        try:
            if engine.assemble_K(m, g, grid).poly != want:
                caught.append((m, g))
        except CertificationError:
            caught.append((m, g))
    assert caught


def test_orbit_solve_and_extraction_match_the_dense_references(grid):
    for (m, g), rep in grid.items():
        if g:
            K = assemble_K(m, g, grid)
            c, pv, tot = m + 2 * g - 2, per_var_bound(m, g), total_bound(m, g)
            want = orbit_form(dense_solve(K.poly, c, pv, tot))
            assert engine._back_substitute(K.orbit, c, pv, tot) == want, (m, g)
        assert extract_f(rep).f_e == dense_extract_f(rep.poly, m, g), (m, g)


def _each_copy(e):
    """`removals` without its distinct-value skip."""
    return [(v, e[:i] + e[i + 1:]) for i, v in enumerate(e)]


def test_a_sweep_taking_each_copy_of_a_value_fails_extraction(monkeypatch):
    # a repeated exponent is swept once per copy, which multiplies its
    # terms.  The peel sweeps nothing, so it still reads the true f; the
    # sampling sweeps then read values that f does not take, at the first
    # cell extracted
    monkeypatch.setattr(series, "removals", _each_copy)
    with pytest.raises(RouteDisagreement, match=r"at \(1, 1, 1\) of \(3,0\)$") as err:
        Engine().cell(1, 2)
    assert type(err.value) is RouteDisagreement


def _peel_matches_the_forward_route(rep, m):
    num, den = xdx_basis_convert(rep.orbit)
    assert all(type(c) is int for c in num.values()) and type(den) is int
    return as_fractions(num, den) == forward_basis_convert(rep.orbit, m)


def test_the_peel_matches_the_dense_forward_route_on_every_grid_cell(grid):
    assert len(grid) == 18
    for (m, g), rep in grid.items():
        assert _peel_matches_the_forward_route(rep, m), (m, g)


def test_the_peel_matches_the_dense_forward_route_on_the_staircase(staircase):
    assert len(staircase) == 30
    for (m, g), rep in staircase.items():
        assert _peel_matches_the_forward_route(rep, m), (m, g)


def test_the_peel_builds_each_sub_image_once(staircase, monkeypatch):
    # every image the peel builds takes the removals of its multiset
    # once, so a sub-multiset built twice in one call is a memo entry
    # dropped while a later j still contained it
    built = []

    def counted(s):
        built.append(s)
        return sym.removals(s)

    monkeypatch.setattr(operators, "removals", counted)
    builds = apart = 0
    for (m, g), rep in staircase.items():
        built.clear()
        num, _ = xdx_basis_convert(rep.orbit)
        subs = [s for s in built if len(s) < m]
        assert len(set(subs)) == len(subs), (m, g)
        assert sorted(s for s in built if len(s) == m) == sorted(num), (m, g)
        builds += len(subs)
        # the nonempty proper sub-multisets of each j, counted apart
        apart += sum(math.prod(j.count(v) + 1 for v in set(j)) - 2 for j in num)
    # the j share their sub-images: 2,260 builds for 9,883 sub-multisets
    assert 4 * builds < apart


def test_to_obj_matches_the_form_built_from_fractions(grid):
    for (m, g), rep in grid.items():
        for p in (rep.orbit, extract_f(rep).f_e):
            # graded lex from the Fraction view, each term in lowest terms
            terms = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            want = [[list(e), str(c.numerator), str(c.denominator)] for e, c in terms]
            assert p.to_obj() == {"kind": p.kind, "arity": p.arity, "terms": want}, (m, g)


# ----- the orbit residual: the solve gate ---------------------------------

def _solved(grid):
    """(m, g, c, Psi's orbit form, K) for each solved grid cell."""
    for (m, g), rep in sorted(grid.items()):
        if g:
            yield m, g, m + 2 * g - 2, rep.orbit, assemble_K(m, g, grid)


def _raised(orbit: SparsePoly) -> SparsePoly:
    """`orbit` with its first coefficient raised by one."""
    num = dict(orbit.num)
    num[next(iter(num))] += orbit.den
    return SparsePoly.from_core(orbit.kind, orbit.arity, num, orbit.den)


def test_orbit_residual_is_the_orbit_form_of_the_dense_residual(grid):
    cells = list(_solved(grid))
    assert len(cells) == 14
    for m, g, c, orbit, K in cells:
        assert engine._orbit_residual(orbit, K.orbit, c).is_zero(), (m, g)
        assert dense_residual(expand_orbits(orbit), K.poly, c).is_zero(), (m, g)
        bad = _raised(orbit)
        got = engine._orbit_residual(bad, K.orbit, c)
        want = dense_residual(expand_orbits(bad), K.poly, c)
        assert not got.is_zero() and not want.is_zero(), (m, g)
        assert got == orbit_form(want), (m, g)


def _mutated(name: str, old: str, new: str, module=engine):
    """module.<name> rebuilt from its source with `old` replaced by `new`."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1, f"{old!r} is not in {name}"
    scope: dict = {}
    exec(compile(src.replace(old, new), f"<mutated {name}>", "exec"), vars(module), scope)
    return scope[name]


# one variable repeats no value, so only cells with m >= 2 tell the
# first two mutations apart from the true loop
@pytest.mark.parametrize("old,new,m_min", [
    ("u * mu.count(u + 1) * x", "u * x", 2),
    ("(i and lam[i - 1] == u)", "(i + 1 < len(lam) and lam[i + 1] == u)", 2),
    ("(c - sum(lam)) * x", "c * x", 1),
], ids=["no-multiplicity", "last-copy-raised", "no-size-term"])
def test_a_mutated_orbit_residual_refuses_every_solve(grid, monkeypatch, old, new, m_min):
    monkeypatch.setattr(engine, "_orbit_residual", _mutated("_orbit_residual", old, new))
    for m, g, _, _, K in _solved(grid):
        if m >= m_min:
            with pytest.raises(ResidualNonzero):
                solve_pde(K)


# ----- the back-substitution: the solve ----------------------------------

def _applied(psi: SparsePoly, c: int) -> SparsePoly:
    """Orbit form of (sum w d/dw + c) Psi, by the dense forward rule."""
    return orbit_form(dense_residual(expand_orbits(psi), SparsePoly("Y", psi.arity), c))


def _random_orbit(rng: random.Random, m: int, pv: int, tot: int) -> SparsePoly:
    """A few orbit terms with first entry <= pv and total <= tot."""
    num: dict = {}
    for _ in range(rng.randint(1, 6)):
        lam = tuple(sorted((rng.randint(0, pv) for _ in range(m)), reverse=True))
        if sum(lam) <= tot:
            num[lam] = rng.choice((-3, -2, -1, 1, 2, 3))
    return SparsePoly("Y", m, num)


# Walking a snapshot of each degree's terms, sorted, misses this Psi: K
# has no (4,3), since (3,3) and (4,2) both raise to it and cancel there,
# but solving (5,2) for (4,2) leaves -6 owed at (4,3), which only (3,3)
# can pay.  Buckets by first entry reach the new term.
SNAPSHOT_MISS = SparsePoly("Y", 2, {(4, 2): 3, (3, 3): -2})


@functools.cache
def _round_trips() -> list:
    """(K, c, pv, tot, Psi) for SNAPSHOT_MISS and 600 seeded random
    orbit forms within the caps of a cell with m <= 3, K = D Psi."""
    rng = random.Random(19)
    cells = [(2, 1, SNAPSHOT_MISS)]
    for _ in range(600):
        m, g = rng.randint(1, 3), rng.randint(1, 2)
        cells.append((m, g, _random_orbit(rng, m, per_var_bound(m, g), total_bound(m, g))))
    out = []
    for m, g, psi in cells:
        c = m + 2 * g - 2
        out.append((_applied(psi, c), c, per_var_bound(m, g), total_bound(m, g), psi))
    return out


def _round_trip_misses(solve) -> list:
    return [psi for K, c, pv, tot, psi in _round_trips() if solve(K, c, pv, tot) != psi]


def test_back_substitution_inverts_the_operator_on_random_orbit_forms():
    assert (4, 3) not in _applied(SNAPSHOT_MISS, 2).num
    assert _round_trip_misses(engine._back_substitute) == []


# Each mutation must fail the round trip, and the residual must refuse
# it on every solved grid cell it can reach: with one variable there are
# no other images, with two no raised value repeats, and no solved grid
# cell has a constant term but (1,1), where c = 1.
@pytest.mark.parametrize("old,new,reach", [
    ("x = t // a", "x = t // (a + 1)", lambda m, c: True),
    ("- (c - d + 1) * x", "+ (c - d + 1) * x", lambda m, c: True),
    ("u * nu.count(u + 1) * x", "u * x", lambda m, c: m >= 3),
    ("for i in range(1, m):", "for i in range(1, 1):", lambda m, c: m >= 2),
    ("* scale // c", "* scale", lambda m, c: False),
], ids=["divisor-plus-one", "size-term-sign", "no-multiplicity", "no-other-images",
        "constant-not-divided"])
def test_a_mutated_back_substitution_fails(grid, monkeypatch, old, new, reach):
    mutant = _mutated("_back_substitute", old, new)
    assert _round_trip_misses(mutant)
    monkeypatch.setattr(engine, "_back_substitute", mutant)
    for m, g, c, _, K in _solved(grid):
        if reach(m, c):
            with pytest.raises(ResidualNonzero):
                solve_pde(K)


# (2,1) has caps 5 per variable and 6 in total.  Each Psi keeps one cap
# and breaks the other, so the solve must not reach it; the residual
# refuses its K only because of that cap, since without the cap the
# back-substitution finds that Psi.
@pytest.mark.parametrize("terms,old,new", [
    ({(5, 2): 1, (4, 3): -2, (1, 0): 3},
     "range(tot + 1, 1, -1)", "range(max(map(sum, korbit.num)), 1, -1)"),
    ({(6, 0): 1, (3, 2): -2, (1, 0): 3},
     "range(min(d, pv + 1), 1, -1)", "range(d, 1, -1)"),
], ids=["total", "per-variable"])
def test_solver_rejects_a_rhs_past_a_cap(terms, old, new):
    m, g, c = 2, 1, 2
    pv, tot = per_var_bound(m, g), total_bound(m, g)
    psi = SparsePoly("Y", m, terms)
    assert (psi.total_degree() > tot) != (max(map(max, psi.num)) > pv)
    K = _applied(psi, c)
    with pytest.raises(ResidualNonzero):
        solve_pde(Cell(m, g, K))
    assert _mutated("_back_substitute", old, new)(K, c, pv, tot) == psi


def test_a_term_no_psi_produces_is_left_owed():
    # (3,3) raises only the second entry of (3,2); as a lex-leading image
    # it would need the unsorted (2,3)
    K = SparsePoly("Y", 2, {(3, 3): 2})
    assert engine._back_substitute(K, 2, 5, 6).is_zero()
    with pytest.raises(ResidualNonzero):
        solve_pde(Cell(2, 1, K))


def test_a_cold_cell_expands_no_orbit_form(monkeypatch):
    def refuse(orbit):
        raise AssertionError("the pipeline expanded an orbit form")

    monkeypatch.setattr(engine, "expand_orbits", refuse)
    assert Engine().f_result(2, 2).f_e == f_table(2, 2)


# ----- the evaluation check: the extraction gate -----------------------------

PRIME = (1 << 31) - 1


def _pins_every_e_polynomial(plan, m: int, wdeg: int) -> bool:
    """Whether the m-part partitions of weight <= m + wdeg in `plan` alone
    determine every e-polynomial of weighted degree <= wdeg by its values.

    `_sample_plan`'s docstring argues that they do: they are the points
    1^m + lam, |lam| <= wdeg, as many as the e-monomials.  Their matrix of
    e-monomial values is checked to have full column rank mod PRIME; a
    nonzero maximal minor mod a prime is nonzero over Q, so the whole
    plan is then unisolvent.  The plan is exactly those points, one per
    unknown, so losing any one of them loses the rank."""
    monos = e_monomials_by_weight(m, wdeg)
    rows = []
    for p in plan:
        if sum(p) <= m + wdeg:
            ev = elementary_values(p, m)
            rows.append([math.prod(pow(ev[k], a, PRIME) for k, a in enumerate(b)) % PRIME
                         for b in monos])
    rank = 0
    for col in range(len(monos)):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][col], -1, PRIME)
        pivot = [v * inv % PRIME for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(v - f * w) % PRIME for v, w in zip(rows[i], pivot)]
        rank += 1
    return rank == len(monos)


def _cells_in_reach():
    """Every cell the engine may extract: the default budgets, and the
    budgets of `verify --suite oracle` at the largest --n-max it answers,
    where the (1^n, g = 2) counts reach the oracle's j budget."""
    cells = set()
    for budgets in (DEFAULT_BUDGETS, cli._oracle_budgets(cli.ORACLE_N_MAX)):
        for g, top in budgets.items():
            cells.update((m, g) for m in range(1, top + 1) if is_cell(m, g))
    return sorted(cells)


def test_every_sample_plan_in_reach_is_unisolvent():
    cells = _cells_in_reach()
    assert (7, 1) in cells and (6, 2) in cells and (2, 4) in cells
    for m, g in cells:
        wdeg = max(m + 3 * g - 3, 0)
        assert _pins_every_e_polynomial(engine._sample_plan(m, wdeg), m, wdeg), (m, g)


def test_every_sample_plan_in_reach_has_one_point_per_e_monomial():
    for m, g in _cells_in_reach():
        wdeg = max(m + 3 * g - 3, 0)
        assert len(engine._sample_plan(m, wdeg)) == len(e_monomials_by_weight(m, wdeg)), (m, g)


def test_a_plan_cut_by_one_partition_is_not_certified(grid):
    for m, g in grid:
        wdeg = max(m + 3 * g - 3, 0)
        plan = engine._sample_plan(m, wdeg)
        heaviest = max(i for i, p in enumerate(plan) if sum(p) <= m + wdeg)
        cut = plan[:heaviest] + plan[heaviest + 1:]
        assert not _pins_every_e_polynomial(cut, m, wdeg), (m, g)


def test_the_sampling_fit_equals_the_operator_basis_route(grid):
    for (m, g), rep in grid.items():
        wdeg = max(m + 3 * g - 3, 0)
        evals = sampled_values(rep.orbit, m, wdeg)
        assert fit_sym_e_poly(evals, m, wdeg) == extract_f(rep).f_e, (m, g)


def _first_coefficient_doubled(to_e):
    def mutant(num, den, m):
        f = to_e(num, den, m)
        num = dict(f.num)
        num[next(iter(num))] *= 2
        return SparsePoly.from_core(f.kind, f.arity, num, f.den)
    return mutant


def test_a_perturbed_operator_basis_coefficient_is_refused(grid, monkeypatch):
    monkeypatch.setattr(engine, "to_e_basis", _first_coefficient_doubled(engine.to_e_basis))
    for (m, g), rep in grid.items():
        with pytest.raises(RouteDisagreement):
            extract_f(rep)


def test_a_perturbed_sampled_value_is_refused(grid, monkeypatch):
    target = None

    def perturbed(p, amax, total):
        xs = series.x_orbit(p, amax, total)
        xs[target] = xs.get(target, 0) + 1
        return xs

    monkeypatch.setattr(engine, "x_orbit", perturbed)
    for (m, g), rep in grid.items():
        plan = engine._sample_plan(m, max(m + 3 * g - 3, 0))
        for target in (plan[0], plan[-1]):
            with pytest.raises(RouteDisagreement):
                extract_f(rep)


def test_a_cold_extraction_constructs_no_fraction(grid, monkeypatch):
    # the peel, the e-basis rewrite and the sampling gate all run on
    # integer numerators over one denominator; the memoised tables they
    # read are rebuilt under the count
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for memo in (sym.e_monomial_expand, operators._ladder_rows, series.u_to_x_rows):
        memo.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for (m, g), rep in grid.items():
        assert extract_f(rep).f_e.arity == m
    assert made == []


# each drops one factor of the gate's cross-multiplication; Psi.den and
# f_e.den are 1 at genus 0, and prod a^a is 1 only at 1^m, so dropping it
# is an equivalent mutant at a cell whose whole plan is 1^m
@pytest.mark.parametrize("old,new,g_min,ones_exempt,refused", [
    ("num_f * orbit.den * ", "num_f * ", 1, False, 14),
    (" * math.prod([a ** a for a in parts])", "", 0, True, 17),
    ("xs.get(parts, 0) * f_e.den", "xs.get(parts, 0)", 1, False, 14),
], ids=["no-psi-den", "no-a-to-the-a", "no-f-den"])
def test_a_sampling_gate_without_one_factor_refuses_the_grid(grid, monkeypatch, old, new,
                                                               g_min, ones_exempt, refused):
    ones = {(m, g) for m, g in grid
            if set(engine._sample_plan(m, max(m + 3 * g - 3, 0))) == {(1,) * m}}
    assert ones == {(3, 0)}
    monkeypatch.setattr(engine, "_check_samples", _mutated("_check_samples", old, new))
    cells = [key for key in grid if key[1] >= g_min and not (ones_exempt and key in ones)]
    assert len(cells) == refused
    for m, g in cells:
        with pytest.raises(RouteDisagreement, match=rf"of \({m},{g}\)$"):
            extract_f(grid[m, g])
    if ones_exempt:
        for key in ones:
            assert extract_f(grid[key]).f_e.arity == key[0]


# the gate reads f through the evaluator that prints it; each mutant of
# that evaluator, bound into the gate alone, must be refused on every cell
# where it changes a plan value.  Genus-0 f is the one term e_1^(m-3), and
# (3,0)'s is the constant 1; at m = 1 there is no e_2 .. e_m
@pytest.mark.parametrize("old,new,refused", [
    ("powers[-1] * ev[0]", "powers[-1]", 17),
    ("s += c * powers[a]", "s += c", 17),
    ("s *= ev[k] ** a", "s *= 1", 10),
    ("for a, c in by_e1:", "for a, c in by_e1[:1]:", 14),
    ("for rest, by_e1 in groups:", "for rest, by_e1 in ():", 18),
], ids=["e1-powers-not-raised", "no-e1-power", "no-other-powers",
        "first-term-only", "no-evaluation-loop"])
def test_a_mutated_evaluator_is_refused_by_the_sampling_gate(grid, monkeypatch, old, new,
                                                             refused):
    mutant = _mutated("e_numerator", old, new, sym)
    monkeypatch.setattr(engine, "e_numerator", mutant)
    caught = []
    for (m, g), rep in grid.items():
        try:
            extract_f(rep)
        except RouteDisagreement:
            caught.append((m, g))
        else:  # an equivalent mutant there
            for p in engine._sample_plan(m, max(m + 3 * g - 3, 0)):
                assert mutant(rep.f_e, p) == sym.e_numerator(rep.f_e, p), (m, g, p)
    assert len(caught) == refused


def test_two_sweep_values_equal_the_w_jet_and_dense_routes(grid):
    assert len(grid) == 18 and (6, 0) in grid
    for (m, g), rep in grid.items():
        wdeg = max(m + 3 * g - 3, 0)
        got = sampled_values(rep.orbit, m, wdeg)
        assert got == w_jet_sampled_values(rep.orbit, m, wdeg), (m, g)
        assert got == dense_sampled_values(rep.poly, m, wdeg), (m, g)


def test_two_sweep_values_equal_the_w_jet_route_on_the_staircase(staircase):
    # the total cap of x_orbit's y -> u sweep drops most at depth
    assert len(staircase) == 30
    for (m, g), rep in staircase.items():
        wdeg = max(m + 3 * g - 3, 0)
        got = sampled_values(rep.orbit, m, wdeg)
        assert got == w_jet_sampled_values(rep.orbit, m, wdeg), (m, g)


def test_e_value_is_evaluate_at_the_elementary_values(grid):
    for (m, g), rep in grid.items():
        f_e = extract_f(rep).f_e
        for p in engine._sample_plan(m, max(m + 3 * g - 3, 0)):
            assert e_value(f_e, p) == evaluate(f_e, elementary_values(p, m)), (m, g, p)


def test_psi11_value_and_equation():
    psi = Engine().cell(1, 1)
    assert psi.poly == PSI11
    # independent re-derivation of the hard-coded right side:
    # (w d/dw + 1) Psi must reproduce it exactly
    assert add(apply_wdw(psi.poly, 0), psi.poly) == K11


def test_cells_satisfy_their_equation():
    eng = Engine()
    for m, g in ((2, 1), (3, 1), (1, 2), (2, 2)):
        psi = eng.cell(m, g)
        K = assemble_K(m, g, {k: eng.cell(*k) for k in eng.computed_cells()})
        c = m + 2 * g - 2
        lhs = add(scale(psi.poly, c), *(apply_wdw(psi.poly, i) for i in range(m)))
        assert lhs == K.poly


def test_degree_certificates():
    eng = Engine()
    p21 = eng.cell(2, 1)
    assert p21.poly.total_degree() == total_bound(2, 1) == 6
    assert p21.poly.per_var_degrees() == (5, 5)
    assert per_var_bound(2, 1) == 5
    p12 = eng.cell(1, 2)
    assert p12.poly.per_var_degrees() == (per_var_bound(1, 2),)


def test_extraction_leaves_its_input_as_it_is(grid):
    # decoded cells are shared between engines, so extraction returns a
    # new record and never fills in the one it was given
    solved = Cell(2, 1, grid[(2, 1)].orbit)
    got = extract_f(solved)
    assert solved.f_e is None and got is not solved
    assert got.orbit is solved.orbit and got.f_e == f_table(1, 2)


def test_extraction_refuses_a_cell_at_another_genus():
    # V_3 is the (3,0) cell; as (3,1) both routes agree on f = 1, which
    # misses the weighted degree 3 + 3 - 3
    with pytest.raises(CertificationError, match="weighted degree 3"):
        extract_f(Cell(3, 1, psi0_base(3).orbit))


def test_cell_refuses_a_fresh_psi_off_its_total_degree(monkeypatch):
    # V_3 * y1 y2 y3 has total degree 6, not 3; its terms carry w d/dw
    # factors, so only the check of the fresh orbit form names the fault
    def base(m):
        y = mul(*(var("Y", m, i) for i in range(m)))
        return Cell(m, 0, orbit_form(mul(psi0_base(m).poly, y)))

    monkeypatch.setattr(engine, "psi0_base", base)
    eng = Engine()
    with pytest.raises(CertificationError, match="total degree 3"):
        eng.cell(3, 0)
    assert eng.computed_cells() == []


def test_cell_refuses_a_fresh_psi_off_its_per_variable_degree(monkeypatch):
    # (y1 - 1)(y2 - 1) y1^2 y2^2 vanishes and has the total degree 6 of
    # (2,1), but per-variable degree 3, not 5
    def solve(K):
        if (K.m, K.g) != (2, 1):
            return solve_pde(K)
        return Cell(2, 1, SparsePoly("Y", 2, {(3, 3): 1, (3, 2): -1, (2, 2): 1}))

    monkeypatch.setattr(engine, "solve_pde", solve)
    eng = Engine()
    with pytest.raises(CertificationError, match="per-variable degree 5"):
        eng.cell(2, 1)
    assert (2, 1) not in eng.computed_cells()


def test_a_fresh_cell_is_checked_for_vanishing_once(monkeypatch):
    # once on each K assembled and once on each Psi, fresh or cached
    seen = []
    check = engine._vanishes_at_one

    def counted(orbit):
        seen.append(orbit)
        return check(orbit)

    monkeypatch.setattr(engine, "_vanishes_at_one", counted)
    eng = Engine()
    eng.cell(2, 2)
    psis = [eng.cell(*k).orbit for k in eng.computed_cells()]
    assert [sum(o is p for o in seen) for p in psis] == [1] * len(psis)
    solved = sum(g >= 1 and (m, g) != (1, 1) for m, g in eng.computed_cells())
    assert len(seen) == len(psis) + solved


def test_f_extraction_matches_table():
    eng = Engine()
    assert eng.f_result(2, 1).f_e == f_table(1, 2)
    assert eng.f_result(1, 2).f_e == f_table(2, 1)


def symq():
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
        lambda f: f != 0
    )
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: SparsePoly("Y", 2, d)
    )


@given(symq())
@settings(deadline=None, max_examples=25)
def test_solver_inverts_the_operator(q):
    # fabricate a symmetric target that vanishes at y_i = 1, apply the
    # operator, and demand the solver return exactly the target
    one = const("Y", 2, 1)
    van = mul(sub(var("Y", 2, 0), one), sub(var("Y", 2, 1), one))
    target = mul(add(q, permute(q, [1, 0])), van)
    c = 2  # cell (2, 1)
    rhs = add(scale(target, c), *(apply_wdw(target, i) for i in range(2)))
    got = solve_pde(Cell(2, 1, orbit_form(rhs)))
    assert got.poly == target


@pytest.mark.parametrize("term", [(1, 2), (1, -1)], ids=["unsorted", "laurent"])
def test_solver_refuses_a_rhs_that_is_not_a_polynomial_orbit_form(term):
    with pytest.raises(ValueError, match="not an orbit term"):
        solve_pde(Cell(2, 1, SparsePoly("Y", 2, {term: 1})))


def test_solver_rejects_unreachable_rhs():
    K = SparsePoly("Y", 1, {(12,): Fraction(1), (0,): Fraction(-1)})
    with pytest.raises(ResidualNonzero):
        solve_pde(Cell(1, 1, K))


def test_budget_guard_reports_progress():
    eng = Engine(budgets={1: 2})
    eng.f_result(2, 1)
    with pytest.raises(BudgetExceeded) as ei:
        eng.f_result(3, 1)
    assert "(2, 1)" in str(ei.value)
    with pytest.raises(BudgetExceeded):
        eng.cell(2, 0)  # no genus-0 cell below three variables


def test_is_cell_names_the_cells():
    # the genus-0 closed form n^(m-3) is a polynomial only from m = 3
    assert not is_cell(2, 0) and not is_cell(0, 1)
    assert is_cell(3, 0) and is_cell(1, 1)
    # no budget, however deep, admits a pair that is no cell
    eng = Engine(budgets={0: 99, 1: 99})
    for m, g in ((2, 0), (0, 1)):
        with pytest.raises(BudgetExceeded, match=rf"cell \({m},{g}\) is outside"):
            eng._check_budget(m, g)


def test_an_extraction_that_raises_leaves_its_cell_unreported(monkeypatch):
    extract = engine.extract_f

    def refuse_2_1(psi):
        if (psi.m, psi.g) == (2, 1):
            raise RouteDisagreement("refused on purpose")
        return extract(psi)

    monkeypatch.setattr(engine, "extract_f", refuse_2_1)
    eng = Engine(budgets={1: 2})
    with pytest.raises(RouteDisagreement):
        eng.cell(2, 1)
    with pytest.raises(BudgetExceeded) as ei:
        eng.cell(3, 1)
    assert "(1, 1)" in str(ei.value) and "(2, 1)" not in str(ei.value)
    assert (2, 1) not in eng.computed_cells()


class _Recording(dict):
    """A cell mapping that records every key assembly reads."""

    def __init__(self, cells):
        super().__init__(cells)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_the_dependency_walk_is_what_assembly_reads(grid, staircase):
    for cells in (grid, staircase):
        for m, g in cells:
            if g:
                rec = _Recording(cells)
                assemble_K(m, g, rec)
                assert rec.read == set(engine._deps(m, g)), (m, g)


def test_the_dependency_order_is_pinned():
    # the order decides which cells a refused request leaves computed
    assert engine._deps(3, 2) == [(4, 1), (2, 2), (3, 0), (1, 2), (1, 1), (3, 1), (2, 1)]
    assert engine._deps(2, 4) == [(3, 3), (1, 4), (1, 1), (2, 3), (2, 1), (1, 3), (1, 2),
                                  (2, 2)]


def test_every_budgeted_cell_depends_on_budgeted_cells():
    eng = Engine()
    for g, top in DEFAULT_BUDGETS.items():
        for m in range(1, top + 1):
            if is_cell(m, g):
                for dep in engine._deps(m, g):
                    eng._check_budget(*dep)


def test_cell_pulls_dependencies():
    eng = Engine()
    eng.f_result(2, 2)
    got = set(eng.computed_cells())
    assert {(2, 2), (3, 1), (1, 2), (2, 1), (1, 1), (3, 0)} <= got


def test_cache_roundtrip(tmp_path):
    first = Engine(cache_dir=str(tmp_path))
    rep = first.cell(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    assert path.is_file()

    second = Engine(cache_dir=str(tmp_path))
    again = second.cell(2, 1)
    assert again.poly == rep.poly
    assert second.f_result(2, 1).f_e == first.f_result(2, 1).f_e


def test_cache_ignores_foreign_versions(tmp_path):
    Engine(cache_dir=str(tmp_path)).cell(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    good = path.read_text()
    dense = Engine().cell(2, 1).poly
    for version, psi in ((CACHE_VERSION + 1, None), (1, dense.to_obj())):
        obj = json.loads(good)
        obj["version"] = version
        if psi is not None:  # version 1 stored the dense Psi
            obj["psi"] = psi
        path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
        fresh = Engine(cache_dir=str(tmp_path))
        assert fresh.cell(2, 1).poly == dense
        # a miss: the cell is recomputed and written back in this version
        assert path.read_text() == good


def test_cache_serves_files_with_keys_it_does_not_read(tmp_path, monkeypatch):
    # version-2 files of earlier releases hold one more, always-empty list
    Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    obj = json.loads(path.read_text())
    obj["unread"] = []
    old = json.dumps(obj, separators=(",", ":")) + "\n"
    path.write_text(old)

    def refuse(psi):
        raise AssertionError("a cached cell was extracted again")

    monkeypatch.setattr(engine, "extract_f", refuse)
    assert Engine(cache_dir=str(tmp_path)).f_result(2, 1).f_e == f_table(1, 2)
    assert path.read_text() == old


def test_cache_ignores_corrupt_files(tmp_path):
    (tmp_path / "psi_m1_g1.json").write_text("not json")
    eng = Engine(cache_dir=str(tmp_path))
    assert eng.cell(1, 1).poly == PSI11


def _keep_psi_terms(keep):
    return lambda obj: obj["psi"].__setitem__(
        "terms", [t for t in obj["psi"]["terms"] if keep(t[0])])


# The (2,1) orbit form reaches total degree 6 at (3,3) and (5,1), and
# per-variable degree 5 at (5,0) and (5,1).
@pytest.mark.parametrize("damage", [
    lambda obj: obj.pop("f_e"),
    lambda obj: obj.__setitem__("psi", {"kind": "Y", "arity": 1}),
    lambda obj: obj["psi"]["terms"][0].__setitem__(2, "0"),
    lambda obj: obj["f_e"]["terms"][0].__setitem__(0, [1, 2, 3]),
    lambda obj: obj["f_e"]["terms"][0].__setitem__(1, "x/y"),
    _keep_psi_terms(lambda e: False),
    lambda obj: obj["psi"].__setitem__("kind", "W"),
    lambda obj: obj["psi"]["terms"][0][0].reverse(),
    lambda obj: obj["psi"]["terms"].append([[0, -1], "1", "1"]),
    lambda obj: obj["psi"]["terms"][0].__setitem__(
        0, [float(k) for k in obj["psi"]["terms"][0][0]]),
    _keep_psi_terms(lambda e: sum(e) < 6),
    _keep_psi_terms(lambda e: e[0] < 5),
    # (e1^2 - e1 - e2)/24 without its weighted-degree-2 terms
    lambda obj: obj["f_e"].__setitem__(
        "terms", [t for t in obj["f_e"]["terms"] if weighted_degree(t[0]) < 2]),
    lambda obj: obj["f_e"].__setitem__("kind", "Y"),
    lambda obj: obj.__setitem__("f_e", {"kind": "E", "arity": 3, "terms": [
        [e + [0], n, d] for e, n, d in obj["f_e"]["terms"]]}),
    lambda obj: obj["f_e"]["terms"].append([[-2, 2], "1", "1"]),  # weight 2
    lambda obj: obj["f_e"]["terms"][0].__setitem__(
        0, [float(k) for k in obj["f_e"]["terms"][0][0]]),
], ids=["no-f_e", "no-psi-terms", "zero-denominator", "wrong-arity",
        "bad-fraction", "empty-psi", "psi-not-y", "unsorted-exponent",
        "negative-exponent", "float-exponent", "below-total-degree",
        "below-per-variable-degree", "f-below-weighted-degree", "f-not-e",
        "f-in-three-variables", "f-negative-exponent", "f-float-exponent"])
def test_cache_treats_malformed_fields_as_a_miss(tmp_path, damage):
    Engine(cache_dir=str(tmp_path)).cell(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    good = path.read_text()
    obj = json.loads(good)
    damage(obj)
    path.write_text(json.dumps(obj))
    fresh = Engine(cache_dir=str(tmp_path))
    assert fresh.f_result(2, 1).f_e == f_table(1, 2)
    # the recomputed cell is written back whole, through a rename
    assert path.read_text() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "psi_m1_g1.json", "psi_m2_g1.json", "psi_m3_g0.json"]



def test_cache_hit_leaves_the_dense_view_unbuilt(tmp_path, monkeypatch):
    want = Engine(cache_dir=str(tmp_path)).cell(2, 1)

    def refuse(orbit):
        raise AssertionError("a cache hit expanded the orbit form")

    monkeypatch.setattr(engine, "expand_orbits", refuse)
    fresh = Engine(cache_dir=str(tmp_path))
    assert fresh.f_result(2, 1).f_e == f_table(1, 2)
    assert fresh.cell(2, 1).orbit == want.orbit
    monkeypatch.undo()
    assert fresh.cell(2, 1).poly == want.poly


def test_orbit_form_of_every_grid_cell_expands_back(grid):
    assert len(grid) == 18  # (6,0) comes in as a dependency
    for rep in grid.values():
        assert all(is_orbit_exponent(e) for e in rep.orbit.num)
        assert expand_orbits(rep.orbit) == rep.poly


def test_cell_from_cached_dependencies_matches_a_cold_engine(tmp_path, monkeypatch):
    Engine(cache_dir=str(tmp_path)).f_result(2, 2)
    (tmp_path / "psi_m2_g2.json").unlink()
    solves = []

    def counted(K):
        solves.append((K.m, K.g))
        return solve_pde(K)

    monkeypatch.setattr(engine, "solve_pde", counted)
    warm = Engine(cache_dir=str(tmp_path))
    got = warm.cell(2, 2)
    assert solves == [(2, 2)]  # every dependency came from the cache
    want = Engine().cell(2, 2)
    assert got.poly == want.poly
    assert got.f_e == want.f_e


def _counted_sample_checks(monkeypatch) -> list:
    """The cells `_check_samples` runs on from now on, in call order."""
    calls = []
    check = engine._check_samples

    def counted(orbit, f_e, m, g):
        calls.append((m, g))
        return check(orbit, f_e, m, g)

    monkeypatch.setattr(engine, "_check_samples", counted)
    return calls


def test_a_second_engine_reuses_the_decode_of_the_same_bytes(tmp_path, monkeypatch):
    Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    calls = _counted_sample_checks(monkeypatch)
    first = Engine(cache_dir=str(tmp_path)).cell(2, 1)
    assert calls == [(2, 1)]
    second = Engine(cache_dir=str(tmp_path)).cell(2, 1)
    assert calls == [(2, 1)]
    assert second is first


def test_a_rewritten_cache_file_is_decoded_afresh(tmp_path, monkeypatch):
    Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    good = path.read_text()
    calls = _counted_sample_checks(monkeypatch)
    want = Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    # the same cell in other bytes is a decode of its own
    path.write_text(json.dumps(json.loads(good), indent=1))
    got = Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    assert calls == [(2, 1), (2, 1)]
    assert got.f_e == want.f_e and got is not want
    # and forged bytes are a miss, however often the genuine ones were read
    obj = json.loads(good)
    obj["f_e"] = scale(f_table(1, 2), 54).to_obj()
    path.write_text(json.dumps(obj))
    assert Engine(cache_dir=str(tmp_path)).f_result(2, 1).f_e == f_table(1, 2)
    assert path.read_text() == good


def _fill_fifo(path, data: bytes):
    """Write `data` into the FIFO at `path`, which a reader holds open,
    and close the writer, so that a read gets every byte and then EOF."""
    writer = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
    try:
        os.write(writer, data)
    finally:
        os.close(writer)


# Each file named like the (2,1) cell: the genuine bytes, half of them,
# another version, the (1,1) cell's bytes, a FIFO holding the genuine bytes,
# a directory, and no file at all.  Only the first is a hit
@pytest.mark.parametrize("case", ["genuine", "truncated", "other-version", "other-cell",
                                  "fifo", "directory", "missing"])
def test_load_and_read_cell_agree_on_hit_or_miss(tmp_path, case):
    if case == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    genuine = tmp_path / "genuine"
    Engine(cache_dir=str(genuine)).cell(2, 1)
    good = (genuine / "psi_m2_g1.json").read_bytes()
    cdir = tmp_path / "cells"
    cdir.mkdir()
    path = cdir / "psi_m2_g1.json"
    keep = None
    if case == "genuine":
        path.write_bytes(good)
    elif case == "truncated":
        path.write_bytes(good[:len(good) // 2])
    elif case == "other-version":
        obj = json.loads(good)
        obj["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(obj))
    elif case == "other-cell":
        path.write_bytes((genuine / "psi_m1_g1.json").read_bytes())
    elif case == "fifo":
        os.mkfifo(path)
        keep = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    elif case == "directory":
        path.mkdir()
    try:
        answers = []
        for read in (lambda: engine.read_cell(path) is not None,
                     lambda: Engine(cache_dir=str(cdir))._load(2, 1)):
            if keep is not None:  # every read finds the whole cell waiting
                os.read(keep, 1 << 16)
                _fill_fifo(path, good)
            answers.append(read())
    finally:
        if keep is not None:
            os.close(keep)
    assert answers == [case == "genuine"] * 2


def test_load_and_read_cell_decode_a_rewritten_file_again(tmp_path, monkeypatch):
    Engine(cache_dir=str(tmp_path)).cell(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    good = path.read_text()
    calls = _counted_sample_checks(monkeypatch)
    assert engine.read_cell(path) is not None
    assert Engine(cache_dir=str(tmp_path))._load(2, 1)
    assert calls == [(2, 1)]  # the same bytes, decoded once
    for indent, read in ((1, lambda: engine.read_cell(path)),
                         (2, lambda: Engine(cache_dir=str(tmp_path)).cell(2, 1))):
        path.write_text(json.dumps(json.loads(good), indent=indent))
        assert read().f_e == f_table(1, 2)
    assert calls == [(2, 1)] * 3


def test_fresh_and_cached_cells_pass_the_one_f_gate(tmp_path, monkeypatch):
    # (1,1) reads no other cell, so computing it extracts one f, and a
    # second engine decodes that f from the file; `_certified_cell` gates
    # both, and the checks on f run from nowhere else
    called = {}
    for name in ("_certified_cell", "_check_f", "_check_samples"):
        def spy(*args, _real=getattr(engine, name), _name=name):
            called.setdefault(_name, []).append(sys._getframe(1).f_code.co_name)
            return _real(*args)
        monkeypatch.setattr(engine, name, spy)
    fresh = Engine(cache_dir=str(tmp_path)).cell(1, 1)
    assert called == {"_certified_cell": ["extract_f"], "_check_f": ["_certified_cell"],
                      "_check_samples": ["_certified_cell"]}
    cached = Engine(cache_dir=str(tmp_path)).cell(1, 1)
    assert cached is not fresh and cached.f_e == fresh.f_e
    assert called["_certified_cell"] == ["extract_f", "_decode_cell"]
    assert called["_check_f"] == called["_check_samples"] == ["_certified_cell"] * 2
    # and no other function of the engine calls a check on f
    callers: dict = {}
    for func in ast.walk(ast.parse(inspect.getsource(engine))):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(func.name)
    assert callers["_check_f"] == callers["_check_samples"] == {"_certified_cell"}
    assert callers["_certified_cell"] == {"extract_f", "_decode_cell"}
