"""The benchmark's layer hooks and the demos stay runnable."""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz
import hurwitz.algebra
from hurwitz import cli

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


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("package", [hurwitz, hurwitz.algebra])
def test_every_exported_name_resolves(package):
    modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
