"""The benchmark's layer hooks and the demos stay runnable, and `src`
holds no function that nothing calls unless it is listed here."""

import ast
import importlib.util
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


@pytest.mark.parametrize("package", [hurwitz, hurwitz.algebra])
def test_every_exported_name_resolves(package):
    modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


# Functions of `src` whose name no code in `src` reads outside their own body.
UNCALLED = {
    # read only by the benchmark's hooks and the tests; ROADMAP item 2 moves
    # them to tests/reference.py or deletes them
    "apply_xdx", "diag_fold", "divide_ydiff", "core_u_to_y", "core_w_jet_to_u",
    "expand_y_to_w", "x_coefficient", "fit_sym_e_poly",
    # `main` looks `run_<command>` up by name
    "run_compute", "run_table", "run_verify", "run_cache",
    # argparse calls it on a bad argument
    "_Parser.error",
    # perfbench/worker.py reads it
    "Engine.f_result",
    # perfbench/layers.py times it; `verify` reads its integer core,
    # `pg_twelve_mu1`, and the tests hold the two to each other
    "pg_mu1",
    # the demos read it
    "Engine.computed_cells",
    # the direct-enumeration route, exported for the tests and callers
    "dfs_count",
}


def _uncalled_functions() -> set:
    """Functions (`Class.method` for methods, dunders aside) whose name
    appears as no `ast.Name` or `ast.Attribute` outside their own body.
    Imports and `__all__` strings are not reads."""
    defs, reads = [], {}

    def scan(node, owner, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defs.append((f"{owner}.{node.name}" if owner else node.name, node))
            for part in [*node.decorator_list, node.args, node.returns]:
                if part is not None:
                    scan(part, None, inside)
            for stmt in node.body:
                scan(stmt, None, inside + (node,))
            return
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            reads.setdefault(name, []).append(inside)
        for child in ast.iter_child_nodes(node):
            scan(child, owner, inside)

    for path in sorted((ROOT / "src").rglob("*.py")):
        scan(ast.parse(path.read_text()), None, ())
    return {qual for qual, node in defs
            if all(node in inside for inside in reads.get(node.name, ()))}


def test_only_the_listed_functions_go_uncalled():
    assert _uncalled_functions() == UNCALLED
