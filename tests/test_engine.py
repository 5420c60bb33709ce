"""The PDE pipeline: seeds, assembly, solver, extraction, orchestration."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.algebra import series
from hurwitz.algebra.operators import apply_wdw
from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import tree_coeffs
from hurwitz.algebra.sym import expand_orbits, is_orbit_exponent, weighted_degree
from hurwitz import engine
from hurwitz.engine import (
    CACHE_VERSION,
    DEFAULT_BUDGETS,
    Engine,
    K11,
    PsiRep,
    RhsRep,
    assemble_K,
    extract_f,
    per_var_bound,
    psi0_base,
    solve_pde,
    theta_symmetrize,
    total_bound,
)
from hurwitz.errors import (
    BudgetExceeded,
    CertificationError,
    NotVanishing,
    ResidualNonzero,
)
from hurwitz.formulas import f_table
from hurwitz.oracle import c_count
from hurwitz.partitions import Partition
from reference import (
    compose_with_tree,
    dense_assemble_K,
    dense_expand_y_to_w,
    dense_extract_f,
    dense_psi0,
    dense_solve,
    orbit_form,
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
    expect = SparsePoly.const("Y", 3, 1)
    one = SparsePoly.const("Y", 3, 1)
    for i in range(3):
        expect = expect * (SparsePoly.variable("Y", 3, i) - one)
    assert v3 == expect
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
    y = SparsePoly.variable("Y", 1, 0)
    assert y * seed == y - SparsePoly.const("Y", 1, 1)
    # numeric: at y = 1/(1-w) the seed takes the value w
    for w in (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)):
        yv = 1 / (1 - w)
        assert seed.evaluate([yv]) == w


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
    # m=3, |S| = 1: the summand y_r y_s^2 lands on all ordered pairs r != s
    got = theta_symmetrize([((2,), (0,), {1: 1})], 3)
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
    # placement count: m * C(m-1, i)
    assert theta_symmetrize([((0, 0), (0,), {0: 1})], 4) == SparsePoly.const("Y", 4, 4 * 3)


def test_psi0_base_matches_the_dense_operator_loop():
    for m in range(3, 8):
        rep = psi0_base(m)
        assert all(is_orbit_exponent(e) for e in rep.orbit.num)
        assert rep.poly == dense_psi0(m)


@pytest.fixture(scope="module")
def grid():
    """The cold_grid cells: every budgeted cell with m <= 5."""
    eng = Engine()
    for g, top in DEFAULT_BUDGETS.items():
        for m in range(3 if g == 0 else 1, min(top, 5) + 1):
            eng.f_result(m, g)
    return {k: eng.psi(*k) for k in eng.computed_cells()}


def test_orbit_built_K_matches_the_dense_assembly(grid):
    solved = [k for k in grid if k[1] >= 1 and k != (1, 1)]
    assert len(solved) == 13  # and (1,1), whose K is K11
    for m, g in solved:
        assert assemble_K(m, g, grid).poly == dense_assemble_K(m, g, grid), (m, g)


def _drop_first_row(rows):
    return lambda f, i: rows(f, i)[1:]


@pytest.mark.parametrize("attr,mutant", [
    ("_rows", _drop_first_row),
    ("_aut", lambda aut: lambda e: 1),
], ids=["a-block-row-dropped", "no-stabilizer-orders"])
def test_a_mutated_orbit_sum_fails_the_vanishing_check(grid, monkeypatch, attr, mutant):
    # with m = 2 every block has at most one entry, and no stabilizer is
    # bigger than one
    monkeypatch.setattr(engine, attr, mutant(getattr(engine, attr)))
    for m, g in ((3, 1), (4, 1), (3, 2)):
        with pytest.raises(CertificationError, match="does not vanish at y_1 = 1"):
            assemble_K(m, g, grid)


def test_orbit_solve_and_extraction_match_the_dense_references(grid):
    for (m, g), rep in grid.items():
        if g:
            K = assemble_K(m, g, grid)
            c, pv, tot = m + 2 * g - 2, per_var_bound(m, g), total_bound(m, g)
            want = orbit_form(dense_solve(K.poly, c, pv, tot))
            assert engine._integral_solve(K.orbit, c, pv, tot) == want, (m, g)
        assert extract_f(rep).f_e == dense_extract_f(rep.poly, m, g), (m, g)


def _each_copy(e):
    """`removals` without its distinct-value skip."""
    return [(v, e[:i] + e[i + 1:]) for i, v in enumerate(e)]


def test_a_sweep_taking_each_copy_of_a_value_fails_extraction(monkeypatch):
    # a repeated exponent is swept once per copy, which multiplies its
    # terms; the operator-basis route then finds a constant residue
    monkeypatch.setattr(series, "removals", _each_copy)
    with pytest.raises(NotVanishing):
        Engine().cell(1, 2)


def test_a_sweep_without_its_total_cap_fails_the_residual(grid, monkeypatch):
    sweep = series.sweep
    monkeypatch.setattr(series, "sweep", lambda core, arity, rows, total=None:
                        sweep(core, arity, rows))
    for m, g in ((2, 1), (3, 1), (2, 2)):
        with pytest.raises(ResidualNonzero):
            solve_pde(assemble_K(m, g, grid))


def test_psi11_value_and_equation():
    psi = Engine().psi(1, 1)
    assert psi.poly == PSI11
    # independent re-derivation of the hard-coded right side:
    # (w d/dw + 1) Psi must reproduce it exactly
    assert apply_wdw(psi.poly, 0) + psi.poly == K11


def test_cells_satisfy_their_equation():
    eng = Engine()
    for m, g in ((2, 1), (3, 1), (1, 2), (2, 2)):
        psi = eng.psi(m, g)
        K = assemble_K(m, g, {k: eng.psi(*k) for k in eng.computed_cells()})
        c = m + 2 * g - 2
        lhs = SparsePoly.zero("Y", m)
        for var in range(m):
            lhs = lhs + apply_wdw(psi.poly, var)
        lhs = lhs + psi.poly.scale(c)
        assert lhs == K.poly


def test_degree_certificates():
    eng = Engine()
    p21 = eng.psi(2, 1)
    assert p21.poly.total_degree() == total_bound(2, 1) == 6
    assert p21.poly.per_var_degrees() == (5, 5)
    assert per_var_bound(2, 1) == 5
    p12 = eng.psi(1, 2)
    assert p12.poly.per_var_degrees() == (per_var_bound(1, 2),)


def test_extraction_refuses_a_cell_at_another_genus():
    # V_3 is the (3,0) cell; as (3,1) both routes agree on f = 1, which
    # misses the weighted degree 3 + 3 - 3
    with pytest.raises(CertificationError, match="weighted degree 3"):
        extract_f(PsiRep(3, 1, psi0_base(3).orbit))


def test_cell_refuses_a_fresh_psi_off_its_total_degree(monkeypatch):
    # V_3 * y1 y2 y3 has total degree 6, not 3; its terms carry w d/dw
    # factors, so only the check of the fresh orbit form names the fault
    def base(m):
        y = SparsePoly.const("Y", m, 1)
        for i in range(m):
            y = y * SparsePoly.variable("Y", m, i)
        return PsiRep(m, 0, orbit_form(psi0_base(m).poly * y))

    monkeypatch.setattr(engine, "psi0_base", base)
    eng = Engine()
    with pytest.raises(CertificationError, match="total degree 3"):
        eng.cell(3, 0)
    assert eng.computed_cells() == []


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
    one = SparsePoly.const("Y", 2, 1)
    van = (SparsePoly.variable("Y", 2, 0) - one) * (SparsePoly.variable("Y", 2, 1) - one)
    target = (q + q.permute([1, 0])) * van
    c = 2  # cell (2, 1)
    rhs = target.scale(c)
    for var in range(2):
        rhs = rhs + apply_wdw(target, var)
    got = solve_pde(RhsRep(2, 1, orbit_form(rhs)))
    assert got.poly == target


def test_solver_rejects_unreachable_rhs():
    K = SparsePoly("Y", 1, {(12,): Fraction(1), (0,): Fraction(-1)})
    with pytest.raises(ResidualNonzero):
        solve_pde(RhsRep(1, 1, K))


def test_budget_guard_reports_progress():
    eng = Engine(budgets={1: 2})
    eng.f_result(2, 1)
    with pytest.raises(BudgetExceeded) as ei:
        eng.f_result(3, 1)
    assert "(2, 1)" in str(ei.value)
    with pytest.raises(BudgetExceeded):
        eng.cell(2, 0)  # no genus-0 cell below three variables


def test_cell_pulls_dependencies():
    eng = Engine()
    eng.f_result(2, 2)
    got = set(eng.computed_cells())
    assert {(2, 2), (3, 1), (1, 2), (2, 1), (1, 1), (3, 0)} <= got


def test_cache_roundtrip(tmp_path):
    first = Engine(cache_dir=str(tmp_path))
    rep = first.psi(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    assert path.is_file()

    second = Engine(cache_dir=str(tmp_path))
    again = second.psi(2, 1)
    assert again.poly == rep.poly
    assert second.f_result(2, 1).f_e == first.f_result(2, 1).f_e


def test_cache_ignores_foreign_versions(tmp_path):
    Engine(cache_dir=str(tmp_path)).psi(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    good = path.read_text()
    dense = Engine().psi(2, 1).poly
    for version, psi in ((CACHE_VERSION + 1, None), (1, dense.to_obj())):
        obj = json.loads(good)
        obj["version"] = version
        if psi is not None:  # version 1 stored the dense Psi
            obj["psi"] = psi
        path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
        fresh = Engine(cache_dir=str(tmp_path))
        assert fresh.psi(2, 1).poly == dense
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
    assert eng.psi(1, 1).poly == PSI11


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
    Engine(cache_dir=str(tmp_path)).psi(2, 1)
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
    want = Engine(cache_dir=str(tmp_path)).psi(2, 1)

    def refuse(orbit):
        raise AssertionError("a cache hit expanded the orbit form")

    monkeypatch.setattr(engine, "expand_orbits", refuse)
    fresh = Engine(cache_dir=str(tmp_path))
    assert fresh.f_result(2, 1).f_e == f_table(1, 2)
    assert fresh.psi(2, 1).orbit == want.orbit
    monkeypatch.undo()
    assert fresh.psi(2, 1).poly == want.poly


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
    assert got[0].poly == want[0].poly
    assert got[1].f_e == want[1].f_e
