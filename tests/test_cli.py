"""Command-line surface: routes, formats, exit codes, cache handling."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitz import cli, engine, oracle
from hurwitz.cli import main
from hurwitz.engine import CACHE_VERSION, Engine, _deps
from hurwitz.errors import BudgetExceeded
from hurwitz.formulas import f_table
from hurwitz.partitions import Partition


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


def test_bad_args(tmp_path):
    assert run(["compute", "--alpha", "0,1", "--genus", "0"]) == 3
    assert run(["compute", "--alpha", "2,1", "--genus", "-1"]) == 3
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


def test_cache_warm_refuses_unbudgeted_genus(tmp_path, capsys):
    assert run(["cache", "--warm", "--genus", "9", "--cache-dir", str(tmp_path)]) == 3
    assert "genus 9" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
                if g >= 1 or m >= 3]
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
    (1, 2, 160),   # j = n + m + 2g - 2 = 162 over INPUT_J_MAX
    (0, 3, 150),   # over TABLE_ROWS_MAX rows
])
def test_table_values_refuses_oversized_grid(monkeypatch, genus, m, n_max):
    def computed(*_args):
        raise AssertionError("refused grids compute nothing")

    monkeypatch.setattr(cli, "_f_from_formulas", computed)
    assert run(["table", "--genus", str(genus), "--m", str(m), "--values",
                "--n-max", str(n_max)]) == 2


def test_table_beyond_tables_is_unavailable(capsys):
    assert run(["table", "--genus", "2", "--m", "5"]) == 2


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


def test_cache_requires_directory(capsys):
    assert run(["cache"]) == 3


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
    argv = ["cache", "--cache-dir", str(path), "--genus", "1", "--m", "1"]
    assert run(argv + ([] if mode == "status" else [mode])) == 3
    out, err = capsys.readouterr()
    assert out == "" and "is not a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    assert (tmp_path / "cache").read_text() == "not a directory"


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


def _scaled_f(obj):
    obj["f_e"] = f_table(1, 2).scale(54).to_obj()


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
