"""Acceptance gate: the seven cross-validation criteria, run exactly.

Criterion 7 is advisory by design: its checks are reported but do not
fail the suite.
"""

import time
from fractions import Fraction

import pytest

from hurwitz.algebra.operators import apply_wdw
from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.sym import elementary_values
from hurwitz.engine import Engine, assemble_K, per_var_bound
from hurwitz.formulas import (
    TABLE_M_MAX,
    a_sequence,
    f1_conjecture,
    f_genus0,
    f_one_part,
    f_table,
    f_table_eval,
    hurwitz,
    mu0_simple,
)
from hurwitz.oracle import c_count, dfs_count, mu_count
from hurwitz.partitions import Partition, partitions


@pytest.fixture(scope="module")
def engine():
    # criterion 2 needs genus-2 cells up to five variables
    return Engine(budgets={2: 5})


def _engine_side_c(engine: Engine, alpha: Partition, g: int) -> int:
    m = alpha.m
    if g == 0 and m < 3:
        # no polynomial cell exists below three variables at genus 0; the
        # closed form carries exactly the data the rational seeds encode
        f = f_genus0(alpha)
    else:
        fr = engine.f_result(m, g)
        f = fr.f_e.evaluate([Fraction(v) for v in elementary_values(alpha.parts, m)])
    return hurwitz(alpha, g, f).c


def test_criterion_1_engine_matches_tables(engine):
    t0 = time.time()
    for g in sorted(TABLE_M_MAX):
        for m in range(1, TABLE_M_MAX[g] + 1):
            fr = engine.f_result(m, g)
            assert fr.f_e == f_table(g, m), f"cell ({m},{g}) differs from its table"
            print(f"criterion 1: ({m},{g}) matches table")
    elapsed = time.time() - t0
    print(f"criterion 1: full grid in {elapsed:.1f}s")
    assert elapsed < 1800


def test_criterion_2_oracle_triangle(engine):
    checked = 0
    for n in range(1, 6):
        for alpha in partitions(n):
            for g in range(0, 3):
                c_eng = _engine_side_c(engine, alpha, g)
                c_orc = c_count(alpha, g)
                assert c_eng == c_orc, (alpha.parts, g, c_eng, c_orc)
                j = alpha.j_for_genus(g)
                assert dfs_count(alpha, j, True) == c_orc, (alpha.parts, g)
                checked += 1
    print(f"criterion 2: {checked} pairs agree, each also enumerated directly")

    assert c_count(Partition.of([3]), 0) == 3
    assert c_count(Partition.of([2]), 1) == 1
    assert c_count(Partition.of([3]), 1) == 27
    assert c_count(Partition.of([2, 1]), 1) == 80
    assert c_count(Partition.of([1, 1, 1]), 1) == 240


def test_criterion_3_simple_genus0():
    for n in range(1, 7):
        assert mu0_simple(n) == mu_count(Partition.of([1] * n), 0), n
    assert mu0_simple(3) == 4
    print("criterion 3: simple genus-0 closed form matches counting, n <= 6")


def test_criterion_4_one_part_families():
    for g in range(1, 5):
        for n in range(1, 11):
            assert f_one_part(n, g) == f_table_eval(g, Partition.of([n])), (g, n)
    assert f_one_part(2, 2) == Fraction(1, 480)
    print("criterion 4: one-part closed form matches all four tables, n <= 10")


def test_criterion_5_sequence_triple_check():
    seq = a_sequence(12)  # raises if the three routes ever disagree
    assert seq[1:4] == [2, 24, 312]
    print(f"criterion 5: a_2..a_13 agree across three routes: {seq[1:]}")


def test_criterion_6_solution_certificates(engine):
    cells = [(m, g) for (m, g) in engine.computed_cells() if g >= 1]
    assert cells, "no positive-genus cells were computed"
    for m, g in cells:
        rep = engine.psi(m, g)
        poly = rep.poly

        assert poly.is_symmetric(), (m, g)
        for var in range(m):
            assert poly.substitute_one(var).is_zero(), (m, g, var)

        # the equation itself, re-checked through the operator module
        K = assemble_K(m, g, {k: engine.psi(*k) for k in engine.computed_cells()})
        c = m + 2 * g - 2
        lhs = poly.scale(c)
        for var in range(m):
            lhs = lhs + apply_wdw(poly, var)
        assert lhs == K.poly, f"equation fails at ({m},{g})"

        pv = poly.per_var_degrees()
        bound = per_var_bound(m, g)
        assert all(d <= bound for d in pv), (m, g, pv, bound)
        # the per-variable bound is attained; the total degree runs lower
        print(
            f"criterion 6: ({m},{g}) per-variable degrees {pv} (bound {bound}), "
            f"total {poly.total_degree()}"
        )


def test_criterion_7_advisory_reports():
    # the engine itself refuses a cell with a w-residue or an f off its
    # weighted degree, so the one advisory left is the genus-1 formula
    advisories = []
    for m in range(1, 7):
        poly = f_table(1, m)
        for n in range(m, m + 4):
            for lam in partitions(n):
                if lam.m != m:
                    continue
                got = poly.evaluate([Fraction(v) for v in elementary_values(lam.parts, m)])
                if got != f1_conjecture(lam):
                    advisories.append(f"genus-1 conjecture fails at {lam}")
    if advisories:
        for line in advisories:
            print(f"ADVISORY: {line}")
    else:
        print("criterion 7: no advisories; the genus-1 formula holds")
