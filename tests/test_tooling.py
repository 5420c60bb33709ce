"""The benchmark's layer hooks and the demos stay runnable, and `src`
holds no function that the CLI never reaches unless it is listed here."""

import ast
import importlib.util
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz
import hurwitz.algebra
from hurwitz import cli, engine
from hurwitz.algebra.poly import SparsePoly
from hurwitz.errors import BudgetExceeded
from hurwitz.partitions import partitions

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,name", [
    ("engine", "theta_symmetrize"),
    ("engine", "fit_sym_e_poly"),  # wrapped, though no engine step calls it
    ("engine", "expand_y_to_w"),  # the same
    ("engine", "x_coefficient"),  # the same
    ("engine", "core_y_to_u"),  # the same; it counts solve attempts
    ("oracle", "all_counts"),
    ("oracle", "transitive_counts"),
    ("oracle", "cutjoin_step"),
])
def test_benchmark_hooks_bind_to_package_names(module, name):
    layers, spans = _load("layers"), _load("spans")
    target = importlib.import_module(f"hurwitz.{module}")

    before = getattr(target, name)
    tracer = spans.Tracer()
    try:
        layers.install(tracer, False)
        assert getattr(target, name) is not before
    finally:
        tracer.uninstall()
    assert getattr(target, name) is before


def test_benchmark_hooks_trace_a_cold_and_a_cached_pass(tmp_path, capsys):
    layers, spans = _load("layers"), _load("spans")
    tracer = spans.Tracer()
    try:
        layers.install(tracer, True)
        patched = list(tracer._patches)
        # the second pass reads every cell back from the cache
        for _ in range(2):
            assert cli.main(["cache", "--warm", "--m", "3", "--cache-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
    got = layers.metrics(tracer)
    for name in ("engine.K_terms", "engine.psi_terms", "engine.assemble_s",
                 "engine.extract_s", "cache.hits"):
        assert got[name] > 0, name


def test_no_summand_is_built_inside_the_placement_sum(monkeypatch):
    # the traced `engine.assemble.theta_s` wraps `theta_symmetrize`, and
    # `engine.assemble.self_s` is to count the building of the summands
    running, calls = [False], []
    theta = engine.theta_symmetrize

    def placed(*args):
        running[0] = True
        try:
            return theta(*args)
        finally:
            running[0] = False

    def spy(name, build):
        def called(*args):
            calls.append((name, running[0]))
            return build(*args)
        return called

    monkeypatch.setattr(engine, "theta_symmetrize", placed)
    builders = ("_factor_rows", "_diag_rows", "_merge_rows", "_product_rows")
    for name in builders:
        monkeypatch.setattr(engine, name, spy(name, getattr(engine, name)))
    eng = engine.Engine()
    for m, g in ((4, 0), (4, 1), (3, 2)):
        eng.cell(m, g)
    assert {name for name, _ in calls} == set(builders)
    assert [name for name, inside in calls if inside] == []


class _Budgeted(engine.Engine):
    """Accepts the cells its budgets accept, as `Engine.cell` does, and
    returns the constant f = 1 for each instead of solving it."""

    def cell(self, m, g):
        self._check_budget(m, g)
        return engine.Cell(m, g, None, SparsePoly.from_core("E", m, {(0,) * m: 1}))


def test_the_benchmark_route_mirror_agrees_with_best_route():
    # perfbench/queries.py restates the route `hurwitz compute` takes, to
    # sort its requests by route; with every budgeted cell warmed it must
    # name the route `best_route` takes, or "refused" where it raises
    queries = _load("queries")
    eng = _Budgeted()
    warmed = {(m, g) for g, top in eng.budgets.items()
              for m in range(1, top + 1) if engine.is_cell(m, g)}
    routes = set()
    for n in range(1, queries.N_MAX + 1):
        for alpha in partitions(n):
            for g in range(queries.G_MAX + 1):
                try:
                    taken = cli.best_route(alpha, g, eng)[1]
                except BudgetExceeded:
                    taken = "refused"
                assert queries.route(alpha, g, warmed) == taken, (alpha, g)
                routes.add(taken)
    assert routes == {"engine", "formulas", "oracle", "refused"}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _ab(*args, cwd):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def test_the_ab_tool_finds_one_tree_equal_to_itself(tmp_path):
    proc = _ab(str(ROOT), str(ROOT), "--rounds", "1", "--seed", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "answers equal: all 200 requests, every round" in proc.stdout
    assert "verify:recurrence" in proc.stdout and "throughput:" in proc.stdout


def test_the_ab_tool_names_a_request_the_trees_answer_differently(tmp_path):
    # a copy whose `compute --format json` names its route differently
    shutil.copytree(ROOT / "src", tmp_path / "head" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = tmp_path / "head" / "src" / "hurwitz" / "cli.py"
    text = cli_py.read_text()
    assert text.count('"route": route}') == 1
    cli_py.write_text(text.replace('"route": route}', '"route": route + "!"}'))
    proc = _ab(str(ROOT), str(tmp_path / "head"), "--rounds", "1", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("DIFFERENT answers to compute ")


def _bench(*args, cwd):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), *args],
                          capture_output=True, text=True, timeout=60, cwd=cwd)


def _bench_files() -> list:
    return sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("pr")[-1]))


def test_the_bench_reader_reads_every_committed_file(tmp_path):
    proc = _bench(cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    heads = [line.split(":")[0] for line in proc.stdout.splitlines()
             if not line.startswith(" ")]
    assert heads == [p.name for p in _bench_files()]
    # every file gives at least one metric with both medians and a ratio
    blocks = proc.stdout.split("\nBENCH_")
    assert all(len(block.splitlines()) > 1 for block in blocks)


def test_the_bench_reader_names_each_file_it_cannot_read(tmp_path):
    (tmp_path / "BENCH_pr1.json").write_text("{")
    (tmp_path / "BENCH_pr2.json").write_text('{"pairs_10_all": {"metrics": {}}}')
    good = _bench_files()[-1]
    proc = _bench(str(tmp_path / "BENCH_pr1.json"), str(tmp_path / "BENCH_pr2.json"),
                  str(good), cwd=tmp_path)
    assert proc.returncode == 1
    assert [line.split(": cannot read: ")[0] for line in proc.stderr.splitlines()] == [
        "BENCH_pr1.json", "BENCH_pr2.json"]
    assert "not readable as JSON" in proc.stderr and "no pairs_*" in proc.stderr
    assert proc.stdout.startswith(f"{good.name}: src_lines ")


def test_the_bench_reader_ends_quietly_when_its_reader_closes(tmp_path):
    # every file four times is some 190 kB, past what a pipe holds, so the
    # tool is still writing when the reader closes after one line
    files = [str(p) for p in _bench_files()] * 4
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / "bench.py"), *files],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path)
    assert proc.stdout.readline().startswith(b"BENCH_")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_the_newest_bench_file_has_the_pairs_10_all_layout():
    doc = json.loads(_bench_files()[-1].read_text())
    for key in ("label", "change", "claim", "result", "command", "machine", "python",
                "quartiles", "src_lines", "src_digest", "pairs_10_all", "ab_tool_5_rounds"):
        assert key in doc, key
    assert set(doc["src_digest"]) == {"parent", "change"}
    assert {"parent", "change"} <= set(doc["src_lines"])
    pairs = doc["pairs_10_all"]
    assert len(pairs["seeds"]) == 10
    for side in ("parent", "change"):
        assert len(pairs["failed_of_attempted"][side]) == 10
    for workload in ("cold_grid", "warm_queries", "oracle_enum"):
        for metric in ("setup_s", "wall_s", "req_per_s", "req_p50_ms", "req_p99_ms",
                       "peak_rss_mb"):
            entry = pairs["metrics"][f"{workload}.{metric}"]
            assert len(entry["parent"]) == len(entry["change"]) == 10
            for key in ("parent_median", "change_median", "parent_quartiles",
                        "change_quartiles", "change_pct", "change_better_in"):
                assert key in entry, (workload, metric, key)


@pytest.mark.parametrize("package", [hurwitz, hurwitz.algebra])
def test_every_exported_name_resolves(package):
    modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


# Functions of `src` that no CLI command below reaches, each with the reason
# it stays: the benchmark's hooks wrap or read it (ROADMAP item 2 moves the
# hooked names to tests/reference.py or deletes them), a benchmark worker
# or a demo calls it, it runs only when something fails, or it is a Python
# dunder.  A helper that only the tests reach fails the test below.
WRAPPED = "wrapped by perfbench/layers.py"
HOOK_READ = "read by perfbench/layers.py's hooks"
WORKER = "read by perfbench/worker.py"
DEMOS = "read by the demos"
FAILURE = "failure-only"
DUNDER = "a Python dunder"
UNREACHED = {
    "algebra.operators.apply_xdx": WRAPPED,
    "algebra.operators.diag_fold": WRAPPED,
    "algebra.operators.divide_ydiff": WRAPPED,
    "algebra.operators._check_var": WRAPPED,  # by apply_xdx and divide_ydiff
    "algebra.series.core_y_to_u": WRAPPED,
    "algebra.series.core_u_to_w_jet": WRAPPED,
    "algebra.series.core_w_jet_to_u": WRAPPED,
    "algebra.series.core_u_to_y": WRAPPED,
    "algebra.series.expand_y_to_w": WRAPPED,
    "algebra.poly.SparsePoly.per_var_degrees": WRAPPED,  # by expand_y_to_w
    "algebra.series.TruncSeries.__init__": WRAPPED,  # expand_y_to_w's result
    "algebra.series.TruncSeries.arity": WRAPPED,
    "algebra.series.TruncSeries.kind": WRAPPED,
    "algebra.series.x_coefficient": WRAPPED,
    "algebra.series._x_column": WRAPPED,  # by x_coefficient
    "algebra.sym.fit_sym_e_poly": WRAPPED,
    "algebra.sym.e_monomials_by_weight": WRAPPED,  # by fit_sym_e_poly
    "algebra.sym.e_monomials_by_weight.<locals>.rec": WRAPPED,
    "formulas.pg_mu1": WRAPPED,  # `verify` reads its integer core, pg_twelve_mu1
    "engine.Cell.poly": HOOK_READ,
    "algebra.sym.expand_orbits": HOOK_READ,  # by Cell.poly
    "algebra.sym._reorderings": HOOK_READ,
    "algebra.sym._arrangements": HOOK_READ,
    "algebra.poly.SparsePoly.terms": HOOK_READ,  # coefficient bits and term counts
    "engine.Engine.f_result": WORKER,
    "oracle.dfs_count": WORKER,  # and the demos
    "oracle._tally": WORKER,  # by dfs_count
    "oracle._representative": WORKER,
    "engine.Engine.computed_cells": DEMOS,
    "cli._Parser.error": FAILURE,  # argparse calls it on a bad argument
    "formulas.f1_conjecture": FAILURE,  # a failing closedform check's detail
    "formulas.mu0_simple": FAILURE,  # a failing oracle mu check's detail
    "oracle.mu_count": FAILURE,  # the same
    "algebra.poly.SparsePoly.__init__": DUNDER,
    "algebra.poly._as_fraction": DUNDER,  # by SparsePoly.__init__
    "algebra.poly.SparsePoly.__repr__": DUNDER,
    "partitions.Partition.__lt__": DUNDER,
    "partitions.Partition.__repr__": DUNDER,
    "partitions.Partition.__reduce__": DUNDER,
    "partitions.Partition.__setattr__": DUNDER,
    "partitions.Partition.__delattr__": DUNDER,
}

# Runs in a fresh interpreter, so that no memo filled by an earlier test
# hides a call: every request of tests/cli_bytes.json, then a cache warmed,
# listed, read by one `compute` and cleared.  Prints [file, first line, name]
# of each function of the package that ran.
_TRACE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

ran = set()

def profile(frame, event, _arg):
    if event == "call":
        ran.add(frame.f_code)

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass

sys.setprofile(profile)
from hurwitz import cli
for request in json.loads(Path(sys.argv[1]).read_text()):
    run(request.split(" "))
with tempfile.TemporaryDirectory() as cache:
    for argv in (["cache", "--warm", "--m", "5"], ["cache"],
                 ["compute", "--alpha", "3,2,1", "--genus", "2"], ["cache", "--clear"]):
        run(argv + ["--cache-dir", cache])
sys.setprofile(None)
package = str(Path(cli.__file__).parent)
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name]
                  for c in ran if c.co_filename.startswith(package)]))
"""


def _src_functions(package: Path) -> dict:
    """{(file, first line, name): `module.qualname`} for every function of
    the package; a decorated function's first line is its first
    decorator's, as in its code object."""
    out = {}

    def scan(node, path, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first, child.name)] = qual + child.name
                scan(child, path, f"{qual}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                scan(child, path, f"{qual}{child.name}.")
            else:
                scan(child, path, qual)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        scan(ast.parse(path.read_text()), path, f"{module}.")
    return out


def test_only_the_listed_functions_go_unreached():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TRACE, str(ROOT / "tests" / "cli_bytes.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    functions = _src_functions(ROOT / "src" / "hurwitz")
    ran = {tuple(key) for key in json.loads(proc.stdout)}
    assert {name for key, name in functions.items() if key not in ran} == set(UNREACHED)
