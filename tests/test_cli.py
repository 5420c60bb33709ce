"""Command-line surface: routes, formats, exit codes, cache handling."""

import argparse
import errno
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitz import cli, engine, formulas, oracle
from hurwitz.algebra.poly import SparsePoly
from hurwitz.cli import main
from hurwitz.engine import CACHE_VERSION, Engine, _deps, is_cell
from hurwitz.errors import BudgetExceeded, CertificationError
from hurwitz.formulas import f_table
from hurwitz.partitions import Partition, parts_of_length, parts_text
from reference import (
    fraction_closedform_checks,
    fraction_oracle_checks,
    fraction_recurrence_checks,
    scale,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


def test_compute_text(capsys):
    assert run(["compute", "--alpha", "2,1", "--genus", "1"]) == 0
    out = capsys.readouterr().out
    assert "f = 1/6" in out
    assert "mu = 40" in out
    assert "c = 80" in out
    assert "route = engine" in out


def test_compute_falls_back_to_formulas(capsys):
    # no engine cell exists for a single-part genus-0 alpha
    assert run(["compute", "--alpha", "3", "--genus", "0"]) == 0
    out = capsys.readouterr().out
    assert "c = 3" in out
    assert "route = formulas" in out


def test_compute_json(capsys):
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["alpha"] == [2, 1]
    assert obj["n"] == 3 and obj["m"] == 2 and obj["g"] == 1
    assert obj["f"] == "1/6" and obj["mu"] == "40" and obj["c"] == "80"
    assert obj["route"] == "engine"


def test_compute_csv(capsys):
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "alpha,n,m,g,f,mu,c,route"
    assert lines[1] == "2-1,3,2,1,1/6,40,80,engine"


def test_compute_unavailable_everywhere(capsys):
    code = run(["compute", "--alpha", ",".join(["1"] * 10), "--genus", "2"])
    assert code == 2
    assert "unavailable" in capsys.readouterr().err


def test_bad_args(tmp_path, capsys):
    assert run(["compute", "--alpha", "0,1", "--genus", "0"]) == 3
    # int() alone would read these as (30,1), (3,1) and (3,1)
    for alpha in ("3_0,1", "+3,1", "\u0663,1"):
        assert run(["compute", "--alpha", alpha, "--genus", "0"]) == 3
    capsys.readouterr()
    assert run(["compute", "--alpha", "2,1", "--genus", "-1"]) == 3
    assert capsys.readouterr().err == "error: genus must be nonnegative\n"
    assert run(["verify", "--suite", "bogus"]) == 3
    assert run([]) == 3
    # removed placeholder flags are unknown arguments
    assert run(["compute", "--alpha", "2,1", "--genus", "1", "--jobs", "2"]) == 3
    assert run(["table", "--genus", "1", "--m", "2", "--jobs", "2"]) == 3
    assert run(["table", "--genus", "1", "--m", "2", "--cache-dir", str(tmp_path)]) == 3
    assert run(["verify", "--suite", "recurrence", "--jobs", "2"]) == 3
    assert run(["verify", "--suite", "recurrence", "--format", "json"]) == 3
    assert run(["cache", "--cache-dir", str(tmp_path), "--jobs", "2"]) == 3
    # --m below one
    assert run(["table", "--genus", "1", "--m", "-2", "--values"]) == 3
    assert run(["table", "--genus", "1", "--m", "0"]) == 3
    assert run(["cache", "--warm", "--m", "0", "--cache-dir", str(tmp_path)]) == 3
    # --values is the one switch to the value grid
    assert run(["table", "--genus", "1", "--m", "2", "--basis", "values"]) == 3
    assert run(["table", "--genus", "1", "--m", "2", "--basis", "e"]) == 3


@pytest.fixture
def int_digit_limit():
    """CPython's default limit on the digits `int` reads from a string."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


# int() alone would read the first four as 10, 3, 3 and 3, and the last
# raises its own message past its digit limit
@pytest.mark.parametrize("value", ["1_0", "+3", "\u0663", " 3", "3.0", "-", "0x3",
                                   pytest.param("1" * 4301, id="past-the-digit-limit")])
def test_integer_flags_take_ascii_digits_only(tmp_path, capsys, value, int_digit_limit):
    for argv in (
        ["compute", "--alpha", "2,1", "--genus", value],
        ["table", "--genus", value, "--m", "3"],
        ["table", "--genus", "1", "--m", value],
        ["table", "--genus", "1", "--m", "3", "--values", "--n-max", value],
        ["verify", "--suite", "recurrence", "--n-max", value],
        ["cache", "--cache-dir", str(tmp_path), "--warm", "--genus", value],
        ["cache", "--cache-dir", str(tmp_path), "--warm", "--m", value],
    ):
        assert run(argv) == 3, argv
        assert f"invalid integer {value!r}" in capsys.readouterr().err, argv
    assert not any(tmp_path.iterdir())


def test_alpha_refuses_a_part_past_the_int_limit(capsys, int_digit_limit):
    text = "2," + "1" * (int_digit_limit + 1)
    assert run(["compute", "--alpha", text, "--genus", "1"]) == 3
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --alpha: cannot parse partition {text!r}\n")


@pytest.mark.parametrize("m", ["1", "2"])
def test_cache_warm_refuses_a_range_without_a_cell(tmp_path, capsys, m):
    # genus-0 cells start at m = 3, as `table --genus 0` does; the refusal
    # creates no cache directory
    argv = ["cache", "--warm", "--genus", "0", "--m", m, "--cache-dir", str(tmp_path / "cells")]
    assert run(argv) == 3
    assert capsys.readouterr() == ("", f"error: no cell of genus 0 has m <= {m}\n")
    assert not any(tmp_path.iterdir())


def test_cache_warm_refuses_unbudgeted_genus(tmp_path, capsys):
    argv = ["cache", "--warm", "--genus", "9", "--cache-dir", str(tmp_path / "cells")]
    assert run(argv) == 3
    assert "genus 9" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _budget_accepts(m, g) -> bool:
    try:
        Engine()._check_budget(m, g)
    except BudgetExceeded:
        return False
    return True


@pytest.mark.parametrize("m_max", [None, 1, 2, 3, 5])
@pytest.mark.parametrize("genus", [None, *engine.DEFAULT_BUDGETS])
def test_cache_warm_computes_the_cells_the_budgets_accept(tmp_path, capsys, monkeypatch,
                                                           genus, m_max):
    # --warm asks for exactly the cells `_check_budget` accepts in its
    # range, genus by genus and m by m; the recording `cell` solves nothing
    asked = []
    monkeypatch.setattr(Engine, "cell", lambda self, m, g: asked.append((m, g)))
    want = [(m, g) for g in range(max(engine.DEFAULT_BUDGETS) + 2)
            for m in range(max(engine.DEFAULT_BUDGETS.values()) + 2)
            if genus in (None, g) and (m_max is None or m <= m_max)
            and _budget_accepts(m, g)]
    argv = ["cache", "--warm", "--cache-dir", str(tmp_path)]
    if genus is not None:
        argv += ["--genus", str(genus)]
    if m_max is not None:
        argv += ["--m", str(m_max)]
    code = run(argv)
    assert asked == want
    assert capsys.readouterr().out == "".join(f"computed ({m},{g})\n" for m, g in want)
    assert code == (0 if want else 3)


@pytest.mark.parametrize("alpha", ["1500", "200000"])
def test_compute_refuses_oversized_input(alpha, capsys):
    # refused up front: a count over 4,300 digits cannot be printed, and
    # a large n runs for minutes
    assert run(["compute", "--alpha", alpha, "--genus", "1"]) == 2
    assert "unavailable" in capsys.readouterr().err


def test_verify_oracle_budgets_cover_dependencies():
    # every cell the oracle triangle reads, and everything it is
    # assembled from, lies inside the budgets verify sets
    for n_max in range(1, 9):
        engine = Engine(budgets=cli._oracle_budgets(n_max))
        todo = [(m, g) for m in range(1, n_max + 1) for g in range(3)
                if is_cell(m, g)]
        seen = set()
        while todo:
            cell = todo.pop()
            if cell not in seen:
                seen.add(cell)
                engine._check_budget(*cell)
                todo.extend(_deps(*cell))


def test_arithmetic_bugs_are_not_verification_failures(monkeypatch):
    def broken(*_args):
        raise ZeroDivisionError("a bug, not a mismatch")

    monkeypatch.setattr(cli, "best_route", broken)
    with pytest.raises(ZeroDivisionError):
        main(["compute", "--alpha", "2,1", "--genus", "1"])


def test_table_e_basis_csv(capsys):
    assert run(["table", "--genus", "1", "--m", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "exponents,coefficient"
    assert "1-0,-1/24" in lines
    assert "0-1,-1/24" in lines
    assert "2-0,1/24" in lines


def test_table_e_basis_text(capsys):
    assert run(["table", "--genus", "1", "--m", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert "e1" in out and "24" in out


def test_table_genus0_needs_three_parts(capsys):
    assert run(["table", "--genus", "0", "--m", "2"]) == 2
    assert run(["table", "--genus", "0", "--m", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert "0-0-0,1" in lines[-1]


def test_table_genus0_stops_where_compute_does(capsys, monkeypatch):
    # 1^m, the smallest alpha of m parts, needs j = 2m - 2 <= INPUT_J_MAX,
    # so m = 81 is the last genus-0 polynomial some request can reach
    assert run(["table", "--genus", "0", "--m", "81", "--format", "csv"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "78" + "-0" * 80 + ",1"
    # the refusal comes before anything sized by m is built
    monkeypatch.setattr(cli, "SparsePoly", None)
    assert run(["table", "--genus", "0", "--m", "82"]) == 2
    assert capsys.readouterr() == ("", "unavailable: genus-0 polynomials at alpha = 1^m "
                                       "need n <= 160 and j = n + m + 2g - 2 <= 160\n")


def test_table_values_grid(capsys):
    assert run(["table", "--genus", "1", "--m", "2", "--values",
                "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "alpha,n,m,g,f,mu,c,route"
    assert "1-1,2,2,1,1/24,1/2,1,formulas" in lines
    assert "2-1,3,2,1,1/6,40,80,formulas" in lines
    # default n-max is m + 4; only two-part alphas appear
    assert all(line.split(",")[2] == "2" for line in lines[1:])
    assert max(int(line.split(",")[1]) for line in lines[1:]) == 6


def test_table_values_walks_only_m_part_partitions(capsys):
    # only the one-part alphas of each n <= 60 are visited
    assert run(["table", "--genus", "1", "--m", "1", "--values",
                "--n-max", "60", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 61
    assert [line.split(",")[0] for line in lines[1:]] == [
        str(n) for n in range(1, 61)]


@pytest.mark.parametrize("genus,m,n_max", [
    (1, 1, 161),   # n over INPUT_N_MAX
    (1, 2, 160),   # j = 162 over INPUT_J_MAX, and over TABLE_ROWS_MAX rows
    (0, 3, 150),   # over TABLE_ROWS_MAX rows
])
def test_table_values_refuses_oversized_grid(monkeypatch, genus, m, n_max):
    def computed(*_args):
        raise AssertionError("refused grids compute nothing")

    monkeypatch.setattr(formulas, "f_closed_form", computed)
    assert run(["table", "--genus", str(genus), "--m", str(m), "--values",
                "--n-max", str(n_max)]) == 2


@pytest.mark.parametrize("argv,top,what", [
    # one part at genus 5: j = n + 2g - 1 reaches 160 at n = 151
    (["compute", "--alpha", "{}", "--genus", "5"], 151, "requests"),
    # genus 1, m = 1: j = n_max + 1 reaches 160 at n_max = 159, in 159 rows
    (["table", "--genus", "1", "--m", "1", "--values", "--n-max", "{}"], 159, "value grids"),
], ids=["compute", "table-values"])
def test_the_request_bound_refuses_j_past_it_with_n_within(argv, top, what, capsys):
    assert run([a.format(top) for a in argv]) == 0
    assert capsys.readouterr().err == ""
    assert run([a.format(top + 1) for a in argv]) == 2
    assert capsys.readouterr() == (
        "", f"unavailable: {what} need n <= 160 and j = n + m + 2g - 2 <= 160\n")


def test_table_beyond_tables_is_unavailable(capsys):
    assert run(["table", "--genus", "2", "--m", "5"]) == 2


@pytest.mark.parametrize("genus,m,words", [
    (5, 2, "no table for genus 5"),
    (1, 7, "genus 1 table stops at m = 6"),
    (4, 3, "genus 4 table stops at m = 2"),
])
def test_an_uncovered_value_grid_refuses_in_the_table_words(capsys, genus, m, words):
    # `table --values` refuses an uncovered (g, m) as `table` does
    for values in ([], ["--values"]):
        assert run(["table", "--genus", str(genus), "--m", str(m)] + values) == 2
        assert capsys.readouterr() == ("", f"unavailable: {words}\n")


def test_a_doctored_table_digest_fails_only_the_tables_built(monkeypatch, capsys):
    # the range is checked before the digest: a table outside it is
    # refused unhashed, so the request falls through to the oracle
    formulas.f_table.cache_clear()
    monkeypatch.setattr(formulas, "_TABLE_DIGEST", "0" * 64)
    try:
        assert run(["table", "--genus", "1", "--m", "2", "--values"]) == 1
        assert capsys.readouterr() == (
            "", "verification failure: table constants fail their transcription checksum\n")
        assert run(["compute", "--alpha", "1,1,1,1,1,1,1", "--genus", "1"]) == 0
        out = capsys.readouterr().out
        assert "f = 9893\n" in out and out.endswith("route = oracle\n")
    finally:
        formulas.f_table.cache_clear()


def test_verify_recurrence(capsys):
    assert run(["verify", "--suite", "recurrence"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "recurrence"
    assert report["failures"] == 0
    assert report["total"] >= 2
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_closedform(capsys):
    assert run(["verify", "--suite", "closedform"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == 0


def test_closedform_checks_equal_the_fraction_suite():
    checks = []
    cli._suite_closedform(None, 0, checks)
    assert len(checks) == 78
    assert checks == fraction_closedform_checks()


def test_closedform_failures_equal_the_fraction_suite(monkeypatch, capsys):
    # one numerator raised by one in the genus-1 m = 3 table and in the
    # genus-3 one-part table, and the genus-1 m = 5 table over twice its
    # denominator, where the table's numerator alone still equals the
    # formula's: every check on any of the three fails
    real = formulas.f_table
    doctored = {}
    for g, m in ((1, 3), (3, 1)):
        poly = real(g, m)
        num = dict(poly.num)
        num[min(num)] += 1
        doctored[g, m] = SparsePoly.from_core("E", m, num, poly.den)
    doctored[1, 5] = SparsePoly.from_core("E", 5, real(1, 5).num, 2 * real(1, 5).den)
    monkeypatch.setattr(formulas, "f_table",
                        lambda g, m: doctored[g, m] if (g, m) in doctored else real(g, m))
    want = fraction_closedform_checks()
    failed = [c["name"] for c in want if c["status"] == "fail"]
    assert failed == [f"one-part g=3 n={n}" for n in range(1, 11)] + [
        f"genus-1 table vs formula {parts_text(parts)}"
        for m in (3, 5) for n in range(m, m + 4) for parts in parts_of_length(n, m)]
    checks = []
    cli._suite_closedform(None, 0, checks)
    assert checks == want
    assert run(["verify", "--suite", "closedform"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["checks"] == want
    assert err == f"FIRST FAILURE: one-part g=3 n=1: {want[20]['detail']}\n"


def test_the_one_part_memo_hides_no_later_change(monkeypatch, capsys):
    # a clean run fills the memo; the suite still reads the series through
    # `formulas`, so a wrong value put there afterwards fails its check
    assert run(["verify", "--suite", "closedform"]) == 0
    capsys.readouterr()
    real = formulas.f_one_part_ratio

    def wrong(n, g):
        num, den = real(n, g)
        return (num + 1, den) if (n, g) == (4, 2) else (num, den)

    monkeypatch.setattr(formulas, "f_one_part_ratio", wrong)
    assert run(["verify", "--suite", "closedform"]) == 1
    out, err = capsys.readouterr()
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["one-part g=2 n=4"]
    assert err == f"FIRST FAILURE: one-part g=2 n=4: {failed[0]['detail']}\n"


def _suite_outcome(suite):
    """The checks a suite appends, or the message of the CertificationError
    it raises."""
    checks = []
    try:
        suite(checks)
    except CertificationError as err:
        return "raised", str(err)
    return "checks", checks


def _verify_outcome(argv, capsys):
    """`_suite_outcome`'s form of what `verify` prints, after checking that
    it exits 1 with the first failure or the refusal on stderr."""
    assert run(argv) == 1
    out, err = capsys.readouterr()
    if not out:
        assert err.startswith("verification failure: ") and err.endswith("\n")
        return "raised", err[len("verification failure: "):-1]
    checks = json.loads(out)["checks"]
    first = next(c for c in checks if c["status"] == "fail")
    assert err == f"FIRST FAILURE: {first['name']}: {first['detail']}\n"
    return "checks", checks


def test_recurrence_checks_equal_the_fraction_suite():
    checks = []
    cli._suite_recurrence(None, 0, checks)
    assert len(checks) == 10 and all(c["status"] == "pass" for c in checks)
    assert checks == fraction_recurrence_checks()


# f1_simple raised by 1/24 at n = 5, or halved at n = 7 (a value over 48,
# which only an identity cross-multiplied by its denominator reads right),
# or raised by 1/240 at n = 5, so that a_5 = 24 * 5 * f1 is a half past
# the true a_5; and the tree term t_6 = 6! [x^6] w raised by 6!: each
# failure's detail, and verify's exit and stderr, are those of the
# Fraction suite
@pytest.mark.parametrize("doctor,failed", [
    ("f1-raised", ["a_n triple equality n<=12", "torus recurrence n=5"]),
    ("f1-halved", ["a_n triple equality n<=12", "torus recurrence n=7"]),
    ("f1-nudged", ["a_n triple equality n<=12", "torus recurrence n=5"]),
    ("tree-term", ["a_n triple equality n<=12"]),
])
def test_recurrence_failures_equal_the_fraction_suite(monkeypatch, capsys, doctor, failed):
    f1_simple, tree_coeffs = formulas.f1_simple, formulas.tree_coeffs
    if doctor == "tree-term":
        def changed(n):
            w = tree_coeffs(n)
            w[6] += 1
            return w
        monkeypatch.setattr(formulas, "tree_coeffs", changed)
    else:
        at, change = {"f1-raised": (5, lambda f: f + Fraction(1, 24)),
                      "f1-halved": (7, lambda f: f / 2),
                      "f1-nudged": (5, lambda f: f + Fraction(1, 240))}[doctor]
        monkeypatch.setattr(formulas, "f1_simple",
                            lambda n: change(f1_simple(n)) if n == at else f1_simple(n))
    want = fraction_recurrence_checks()
    assert [c["name"] for c in want if c["status"] == "fail"] == failed
    assert _suite_outcome(lambda checks: cli._suite_recurrence(None, 0, checks)) == (
        "checks", want)
    assert _verify_outcome(["verify", "--suite", "recurrence"], capsys) == ("checks", want)


@pytest.fixture(scope="module")
def oracle_engine():
    """An engine with the cells of `verify --suite oracle` at its largest
    --n-max, which cover every smaller one."""
    return Engine(budgets=cli._oracle_budgets(cli.ORACLE_N_MAX))


@pytest.mark.parametrize("n_max", range(1, cli.ORACLE_N_MAX + 1))
def test_oracle_checks_equal_the_fraction_suite(oracle_engine, n_max):
    checks = []
    cli._suite_oracle(oracle_engine, n_max, checks)
    assert all(c["status"] == "pass" for c in checks)
    assert checks == fraction_oracle_checks(oracle_engine, n_max)


def _doctored_cell(doctor, at=None):
    """`Engine.cell` with f_e doctored: at the cell `at`, one numerator
    raised by one or the denominator doubled; at every cell, negated."""
    real = Engine.cell

    def cell(self, m, g):
        c = real(self, m, g)
        if at not in (None, (m, g)):
            return c
        num, den = dict(c.f_e.num), c.f_e.den
        if doctor == "numerator":
            num[min(num)] += 1
        elif doctor == "den":
            den *= 2
        else:
            num = {e: -v for e, v in num.items()}
        return engine.Cell(m, g, c.orbit, SparsePoly.from_core("E", m, num, den))
    return cell


# one numerator of the (3,1) cell's f_e raised by one; every oracle count
# raised by one; the (1,1) cell's f_e over twice its denominator, which
# scales f at (2), g=1 to the non-count 1/2, so that `hurwitz` refuses it;
# every count and every engine f negated, where the identity holds at the
# first engine point and `hurwitz` refuses the negative count
@pytest.mark.parametrize("cell_doctor,count_doctor,kind", [
    (("numerator", (3, 1)), None, "checks"),
    (None, (1, 1), "checks"),
    (("den", (1, 1)), None, "raised"),
    (("negated",), (-1, 0), "raised"),
], ids=["f_e-numerator", "c_count-off-by-one", "f_e-den-doubled", "all-negated"])
def test_oracle_failures_equal_the_fraction_suite(monkeypatch, capsys, cell_doctor,
                                                  count_doctor, kind):
    n_max = 4
    if count_doctor:
        c_count, (sign, shift) = oracle.c_count, count_doctor
        monkeypatch.setattr(oracle, "c_count",
                            lambda alpha, g: sign * c_count(alpha, g) + shift)
    if cell_doctor:
        monkeypatch.setattr(Engine, "cell", _doctored_cell(*cell_doctor))
    eng = Engine(budgets=cli._oracle_budgets(n_max))
    want = _suite_outcome(lambda checks: checks.extend(fraction_oracle_checks(eng, n_max)))
    assert want[0] == kind
    assert _suite_outcome(lambda checks: cli._suite_oracle(eng, n_max, checks)) == want
    argv = ["verify", "--suite", "oracle", "--n-max", str(n_max)]
    assert _verify_outcome(argv, capsys) == want


def test_verify_reads_its_suites_from_one_table(monkeypatch, capsys):
    # the parser offers the table's suites and `all`, and `all` runs the
    # table's suites in its order
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    names = list(cli.SUITES)
    assert list(suite.choices) == names + ["all"]
    ran = []
    monkeypatch.setattr(cli, "SUITES", {
        name: (lambda engine, n_max, checks, name=name: ran.append(name), budgets)
        for name, (_, budgets) in cli.SUITES.items()})
    assert run(["verify", "--suite", "all", "--n-max", "3"]) == 0
    assert ran == names
    assert json.loads(capsys.readouterr().out)["suite"] == "all"


def test_table_csv_rows_are_the_json_terms(capsys):
    # at every appendix (g, m) and at genus 0 up to m = 12, each CSV row is
    # a term of `table --format json`, in its order, with the coefficient
    # as a Fraction prints it
    cases = [(g, m) for g, top in formulas.TABLE_M_MAX.items() for m in range(1, top + 1)]
    for g, m in cases + [(0, m) for m in range(3, 13)]:
        argv = ["table", "--genus", str(g), "--m", str(m), "--format"]
        assert run(argv + ["json"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert run(argv + ["csv"]) == 0
        head, *rows = capsys.readouterr().out.splitlines()
        assert head == "exponents,coefficient"
        assert rows == [f"{'-'.join(map(str, e))},{Fraction(int(n), int(d))}"
                        for e, n, d in terms], (g, m)


def test_cache_requires_directory(capsys):
    # status, --clear and --warm: refused like every other bad argument
    for mode in ([], ["--clear"], ["--warm"]):
        assert run(["cache", *mode]) == 3, mode
        out, err = capsys.readouterr()
        assert out == "", mode
        assert err == "error: no cache directory configured (pass --cache-dir)\n", mode


def test_cache_lifecycle(tmp_path, capsys):
    cdir = str(tmp_path)
    assert run(["cache", "--cache-dir", cdir]) == 0
    assert "cache is empty" in capsys.readouterr().out

    assert run(["cache", "--warm", "--cache-dir", cdir,
                "--genus", "1", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "computed (1,1)" in out and "computed (2,1)" in out

    assert run(["cache", "--cache-dir", cdir]) == 0
    out = capsys.readouterr().out
    assert "psi_m1_g1.json" in out and "psi_m2_g1.json" in out
    assert "psi_m3_g0.json" in out  # dependency of (2,1), cached alongside

    assert run(["cache", "--clear", "--cache-dir", cdir]) == 0
    assert "removed 3" in capsys.readouterr().out
    assert run(["cache", "--cache-dir", cdir]) == 0
    assert "cache is empty" in capsys.readouterr().out


def test_compute_uses_cache_dir(tmp_path, capsys):
    cdir = str(tmp_path)
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--cache-dir", cdir]) == 0
    capsys.readouterr()
    assert (tmp_path / "psi_m2_g1.json").is_file()
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--cache-dir", cdir]) == 0
    assert "mu = 40" in capsys.readouterr().out


def test_compute_survives_a_directory_named_like_a_cell(tmp_path, capsys):
    (tmp_path / "psi_m2_g1.json").mkdir()
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--cache-dir", str(tmp_path)]) == 0
    assert "c = 80" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "psi_m1_g1.json", "psi_m2_g1.json", "psi_m3_g0.json"]
    assert (tmp_path / "psi_m2_g1.json").is_dir()


def test_cache_clear_leaves_a_directory_named_like_a_cell(tmp_path, capsys):
    Engine(cache_dir=str(tmp_path)).f_result(1, 1)
    (tmp_path / "psi_m2_g1.json").mkdir()
    assert run(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 1 cached cells" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["psi_m2_g1.json"]


def test_compute_survives_a_cache_dir_that_is_a_file(tmp_path, capsys):
    path = tmp_path / "cache"
    path.write_text("not a directory")
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--cache-dir", str(path)]) == 0
    assert "c = 80" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    assert path.read_text() == "not a directory"


@pytest.mark.parametrize("mode", ["status", "--clear", "--warm", "parent"])
def test_cache_refuses_a_cache_dir_that_is_not_a_directory(mode, tmp_path, capsys):
    path = tmp_path / "cache"
    path.write_text("not a directory")
    if mode == "parent":  # --warm cannot create a directory under a file
        path, mode = path / "cells", "--warm"
    # --genus and --m are flags of --warm alone: status and --clear refuse
    # them on their own
    argv = ["cache", "--cache-dir", str(path)]
    if mode == "--warm":
        argv += ["--warm", "--genus", "1", "--m", "1"]
    elif mode == "--clear":
        argv.append(mode)
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "is not a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    assert (tmp_path / "cache").read_text() == "not a directory"


@pytest.mark.parametrize("argv", [
    ["cache", "--clear", "--warm"],
    ["cache", "--genus", "1"],
    ["cache", "--m", "2"],
    ["cache", "--clear", "--genus", "1", "--m", "2"],
])
def test_cache_refuses_flags_it_would_ignore(argv, tmp_path, capsys):
    Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(argv + ["--cache-dir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "error: " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("mode", [[], ["--clear"]])
def test_cache_refuses_a_directory_it_cannot_list(mode, tmp_path, monkeypatch, capsys):
    Engine(cache_dir=str(tmp_path)).f_result(2, 1)

    def unlistable(path):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    monkeypatch.setattr(os, "scandir", unlistable)
    assert run(["cache", "--cache-dir", str(tmp_path), *mode]) == 3
    assert capsys.readouterr() == (
        "", f"error: cache directory {tmp_path}: [Errno 13] Permission denied: '{tmp_path}'\n")
    monkeypatch.undo()
    assert len(list(tmp_path.iterdir())) == 3


def test_cache_clear_stops_at_a_file_it_cannot_remove(tmp_path, monkeypatch, capsys):
    Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    unlink, calls = Path.unlink, []

    def second_fails(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == 2:
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        unlink(path, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", second_fails)
    assert run(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 3
    blocked = tmp_path / "psi_m2_g1.json"
    assert capsys.readouterr() == (
        "", f"error: cache directory {tmp_path}: [Errno 13] Permission denied: '{blocked}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["psi_m2_g1.json", "psi_m3_g0.json"]


@pytest.mark.parametrize("argv", [
    ["cache", "--cache-dir", "CACHE"],
    ["compute", "--alpha", "2,1", "--genus", "1"],
    ["verify", "--suite", "recurrence"],
])
def test_a_reader_closing_stdout_early_ends_without_a_traceback(argv, tmp_path):
    if "CACHE" in argv:
        Engine(cache_dir=str(tmp_path)).f_result(2, 1)
        argv = [str(tmp_path) if a == "CACHE" else a for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hurwitz.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_cache_status_lists_cells_and_stale_files(tmp_path, capsys):
    Engine(cache_dir=str(tmp_path)).f_result(2, 1)
    good = tmp_path / "psi_m1_g1.json"
    obj = json.loads((tmp_path / "psi_m3_g0.json").read_text())
    obj["version"] = CACHE_VERSION + 1
    (tmp_path / "psi_m3_g0.json").write_text(json.dumps(obj))
    (tmp_path / "psi_m2_g1.json").write_text("not json")
    (tmp_path / "psi_m4_g0.json").mkdir()
    (tmp_path / "psi_m5_g0.json").symlink_to(tmp_path / "missing")
    assert run(["cache", "--cache-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"psi_m1_g1.json (1,1) version {CACHE_VERSION}, 4 orbit terms, "
        f"{good.stat().st_size} bytes",
        "psi_m2_g1.json stale, 8 bytes",
        f"psi_m3_g0.json stale, {(tmp_path / 'psi_m3_g0.json').stat().st_size} bytes",
        f"psi_m4_g0.json stale, {(tmp_path / 'psi_m4_g0.json').stat().st_size} bytes",
        "psi_m5_g0.json stale",
    ]


def test_a_cell_file_nested_too_deeply_to_parse_is_a_miss(tmp_path, capsys):
    path = tmp_path / "psi_m2_g1.json"
    path.write_text("[" * 100_000)
    assert run(["cache", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "psi_m2_g1.json stale, 100000 bytes\n"
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--cache-dir", str(tmp_path)]) == 0
    assert "route = engine" in capsys.readouterr().out.splitlines()
    assert engine.read_cell(path).f_e == f_table(1, 2)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_cell_file_that_is_not_a_regular_file_is_a_miss(tmp_path):
    # reading a FIFO as a file waits for a writer to open it, and then for
    # the writer to close it, so each command runs in a process of its own
    # under a timeout.  Once fed a genuine cell, only its type makes it a miss
    genuine = tmp_path / "genuine"
    Engine(cache_dir=str(genuine)).cell(2, 1)
    cdir = tmp_path / "cells"
    cdir.mkdir()
    path = cdir / "psi_m2_g1.json"
    os.mkfifo(path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def hurwitz(*argv):
        return subprocess.run([sys.executable, "-m", "hurwitz", *argv,
                               "--cache-dir", str(cdir)], env=env,
                              capture_output=True, text=True, timeout=60)

    stale = (0, "psi_m2_g1.json stale, 0 bytes\n")
    listing = hurwitz("cache")
    assert (listing.returncode, listing.stdout) == stale
    writer = os.open(path, os.O_RDWR)
    try:
        os.write(writer, (genuine / path.name).read_bytes())
        listing = hurwitz("cache")
        assert (listing.returncode, listing.stdout) == stale
        answer = hurwitz("compute", "--alpha", "2,1", "--genus", "1")
    finally:
        os.close(writer)
    assert answer.returncode == 0, answer.stderr
    assert "route = engine" in answer.stdout.splitlines()
    assert path.is_file() and engine.read_cell(path).f_e == f_table(1, 2)


def test_a_fifo_holding_a_whole_cell_is_a_miss(tmp_path):
    # the writer has written a genuine cell and gone, so a read would end at
    # end of file with every byte; a reader kept open holds the bytes, and
    # nothing blocks.  Only its type makes the FIFO a miss
    genuine = tmp_path / "genuine"
    Engine(cache_dir=str(genuine)).cell(2, 1)
    data = (genuine / "psi_m2_g1.json").read_bytes()
    path = tmp_path / "psi_m2_g1.json"
    os.mkfifo(path)
    keep = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        writer = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
        os.write(writer, data)
        os.close(writer)
        assert engine.read_cell(path) is None
        assert os.read(keep, len(data) + 1) == data
    finally:
        os.close(keep)


def _scaled_f(obj):
    obj["f_e"] = scale(f_table(1, 2), 54).to_obj()


def _empty_psi_scaled_f(obj):
    obj["psi"]["terms"] = []
    _scaled_f(obj)


def _add(rows, exponent, q):
    """Add the rational q to the term at `exponent`, a new term if need be."""
    row = next((r for r in rows if r[0] == exponent), None)
    if row is None:
        row = [exponent, "0", "1"]
        rows.append(row)
    q += Fraction(int(row[1]), int(row[2]))
    row[1:] = [str(q.numerator), str(q.denominator)]


def _add_vanishing_term(obj):
    # (y1 - 1)(y2 - 1) y1 y2 / 24: its terms have only positive exponents
    rows = obj["psi"]["terms"]
    for exponent, sign in (([2, 2], 1), ([2, 1], -1), ([1, 1], 1)):
        _add(rows, exponent, Fraction(sign, 24))


# Forgeries of the genuine (2,1) file, whose f is (e1^2 - e1 - e2)/24 and
# whose orbit form holds y1^2 y2 and y1^2 at 1/24 and -1/24.  After the
# first, each keeps the genuine f or the genuine orbit form.
FORGERIES = {
    "empty-psi-f-times-54": _empty_psi_scaled_f,
    "f-times-54": _scaled_f,
    "f-middle-coefficient": lambda obj: _add(obj["f_e"]["terms"], [1, 0], Fraction(1)),
    "psi-one-coefficient": lambda obj: _add(obj["psi"]["terms"], [2, 1], Fraction(1)),
    "psi-zero-exponent-coefficient": lambda obj: _add(
        obj["psi"]["terms"], [2, 0], Fraction(1)),
    "psi-plus-a-vanishing-term": _add_vanishing_term,
}


@pytest.mark.parametrize("forgery", FORGERIES)
def test_compute_rejects_a_forged_cache_file(forgery, tmp_path, capsys):
    cdir = str(tmp_path)
    Engine(cache_dir=cdir).f_result(2, 1)
    path = tmp_path / "psi_m2_g1.json"
    good = path.read_text()
    obj = json.loads(good)
    FORGERIES[forgery](obj)
    path.write_text(json.dumps(obj))
    assert run(["compute", "--alpha", "2,1", "--genus", "1",
                "--cache-dir", cdir]) == 0
    assert "c = 80" in capsys.readouterr().out
    assert path.read_text() == good


# The check each forgery needs, and the mutant that drops it from every read.
# `_check_samples` ties f to the terms of Psi with positive exponents; the
# vanishing check of `_check_orbit_form` sees the others, and any one changed
# term.
MUTANTS = {"_check_samples": lambda *args: None, "_vanishes_at_one": lambda orbit: True}


@pytest.mark.parametrize("forgery,check", [
    ("f-times-54", "_check_samples"),
    ("f-middle-coefficient", "_check_samples"),
    ("psi-plus-a-vanishing-term", "_check_samples"),
    ("psi-zero-exponent-coefficient", "_vanishes_at_one"),
])
def test_a_read_without_its_check_serves_the_forgery(forgery, check, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(engine, check, MUTANTS[check])
    with pytest.raises(AssertionError):
        test_compute_rejects_a_forged_cache_file(forgery, tmp_path, capsys)


@pytest.mark.parametrize("suite", ["oracle", "all"])
def test_verify_refuses_an_over_budget_n_max_before_computing(suite, tmp_path, capsys):
    argv = ["verify", "--suite", suite, "--n-max", str(cli.ORACLE_N_MAX + 1),
            "--cache-dir", str(tmp_path)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--n-max <= 6" in err
    assert list(tmp_path.iterdir()) == []


def test_the_oracle_suite_limit_is_where_c_count_stops():
    # 1^n at genus 2 is the suite's largest j; every other count is smaller
    top = Partition((1,) * cli.ORACLE_N_MAX)
    assert oracle.c_count(top, 2) > 0
    with pytest.raises(BudgetExceeded):
        oracle.c_count(Partition((1,) * (cli.ORACLE_N_MAX + 1)), 2)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "oracle", "--n-max", "-3"],
    ["verify", "--suite", "oracle", "--n-max", "0"],
    ["table", "--genus", "1", "--m", "2", "--values", "--n-max", "0"],
    ["table", "--genus", "1", "--m", "2", "--values", "--n-max", "0",
     "--format", "csv"],
])
def test_n_max_below_one_is_a_bad_argument(argv, capsys):
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "--n-max must be at least 1" in err


def test_python_dash_m_runs_the_command_line(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hurwitz", "compute", "--alpha", "2,1",
                           "--genus", "1"], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "c = 80" in proc.stdout.splitlines()


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    calls = [
        ["compute", "--alpha", "2,1", "--genus", "1", "--format", "json"],
        ["table", "--genus", "1", "--m", "2", "--values", "--format", "csv"],
        ["verify", "--suite", "recurrence"],
        ["cache", "--cache-dir", str(tmp_path / "cache")],
        ["compute", "--alpha", "2,x", "--genus", "1"],
        ["--help"],
        ["table", "--help"],
    ]
    try:
        first = []
        for argv in calls * 2:
            code = run(argv)
            out, err = capsys.readouterr()
            first.append((code, out, err))
        # the top parser and one parser per subcommand, all from one build
        assert len(built) == 5
    finally:
        cli.build_parser.cache_clear()
    assert [code for code, _, _ in first[:len(calls)]] == [0, 0, 0, 0, 3, 0, 0]
    assert first[len(calls):] == first[:len(calls)]


def test_a_rebound_runner_is_the_one_called(monkeypatch, capsys):
    assert run(["compute", "--alpha", "2,1", "--genus", "1"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "run_compute", lambda args: seen.append(args.alpha) or 7)
    assert run(["compute", "--alpha", "2,1", "--genus", "1"]) == 7
    assert seen == [Partition.of([2, 1])]
    assert capsys.readouterr().out == ""


def test_warm_requests_load_no_heavy_module():
    script = textwrap.dedent("""\
        import contextlib, io, sys
        import hurwitz.cli as cli
        for argv in (["compute", "--alpha", "2,1", "--genus", "1"],
                     ["table", "--genus", "2", "--m", "2", "--values"],
                     ["verify", "--suite", "closedform"],
                     ["verify", "--suite", "recurrence"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(sorted({"_hashlib", "dataclasses", "inspect"} & set(sys.modules)))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]
