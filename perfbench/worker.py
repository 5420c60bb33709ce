"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

`perfbench/run.py` starts this once per pass, so the package's
module-level memos (`lru_cache` in oracle, formulas, sym and partitions)
never carry over from one pass to the next.  The spec's `mode` is one of

    setup         import the package and stop
    warm          run `hurwitz cache --warm --m 5` into `cache_dir`
    cold_grid     the same command into an empty `cache_dir`, timed, gated
    warm_queries  the seeded request list against a warmed `cache_dir`
    oracle_enum   `dfs_count` in both modes for every n <= 4, j <= 9

The last line of stdout is one JSON object.  Every time in it is in
reference seconds (`hostclock.py`), taken on a clock that starts first
thing in `main` and stops when the timed part ends.  `ready_s` runs from
`spawn`, the parent's monotonic clock just before it started this
interpreter, until the package is imported; `done_s` until the `warm`
command has ended.  The raw wall times of the passes are kept beside them.
With `trace` set the pass runs with the layer wrappers of `layers.py`
installed, and the spans are written to `spans_path` when it ends.
Correctness gates run after the timed pass, untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers
from hostclock import HostClock
from spans import Tracer

GRID_M = 5
ORACLE_N, ORACLE_J = 4, 9


def warm_argv(cache_dir) -> list:
    """The command that builds the grid, and warms the cache for
    warm_queries."""
    return ["cache", "--warm", "--m", str(GRID_M), "--cache-dir", cache_dir]


def call_main(cli, argv):
    """Run `hurwitz.cli.main` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a defect: record, go on
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def snapshot(cache_dir) -> dict:
    return {p.name: p.stat().st_size for p in Path(cache_dir).iterdir()}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Gate:
    """Counts checks and keeps the first few failures for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def check(self, what: str, problem: str, times: int = 1):
        self.attempted += times
        if problem:
            self.failed += times
            if len(self.notes) < 5:
                self.notes.append(f"{what}: {problem}")


def grid_cells(engine):
    return sorted(
        (m, g) for g, lim in engine.DEFAULT_BUDGETS.items()
        for m in range(3 if g == 0 else 1, min(lim, GRID_M) + 1)
    )


def timed(clock, result, passes):
    """Stop the clock and record the `(start, end)` perf_counter pairs of
    the passes in reference and in raw seconds."""
    clock.stop()
    result["pass_s"] = [clock.span(t0, t1) for t0, t1 in passes]
    result["raw_pass_s"] = [t1 - t0 for t0, t1 in passes]
    result["speed"] = statistics.median(clock.speeds)


def cold_grid(spec, clock, tracer, gate, result):
    from hurwitz import cli, engine, formulas
    from hurwitz.algebra.poly import SparsePoly

    cache_dir = spec["cache_dir"]
    t0 = time.perf_counter()
    code, out = call_main(cli, warm_argv(cache_dir))
    timed(clock, result, [(t0, time.perf_counter())])
    result["rss_kb"] = peak_rss_kb()
    if tracer:
        tracer.uninstall()

    cells = grid_cells(engine)
    printed = [tuple(map(int, hit)) for hit in
               re.findall(r"computed \((\d+),(\d+)\)", out)]
    gate.check("cache --warm", "" if code == 0 and sorted(printed) == cells
               else f"exit {code}, cells {printed}")
    written = snapshot(cache_dir)
    result["bytes_written"] = sum(written.values())
    # read back through a fresh engine; the tables are the other route
    reader = engine.Engine(cache_dir=cache_dir)
    for m, g in cells:
        got = reader.f_result(m, g).f_e
        if g:
            want = formulas.f_table(g, m)
        else:
            want = SparsePoly("E", m, {(m - 3,) + (0,) * (m - 1): Fraction(1)})
        gate.check(f"cell ({m},{g})", "" if got == want else "f_e differs")
    gate.check("cache read-back", "" if snapshot(cache_dir) == written
               else "reading the cache back wrote to it")


def warm_queries(spec, clock, tracer, gate, result):
    from hurwitz import cli
    import queries

    cache_dir = spec["cache_dir"]
    reqs = queries.make(spec["seed"], cache_dir)
    before = snapshot(cache_dir)
    passes = spec.get("passes")
    first: dict = {}
    runs = [0] * len(reqs)
    changed = [0] * len(reqs)
    lat: list = []
    pass_t: list = []
    start = time.perf_counter()
    deadline = start + spec.get("seconds", 0)
    while True:
        tp = time.perf_counter()
        for i, (argv, _) in enumerate(reqs):
            if tracer:
                rec = tracer.begin("bench.cli.main", f"req:{len(lat)}")
            t0 = time.perf_counter()
            answer = call_main(cli, argv)
            lat.append((t0, time.perf_counter()))
            if tracer:
                tracer.end(rec)
            runs[i] += 1
            if first.setdefault(i, answer) != answer:
                changed[i] += 1
        pass_t.append((tp, time.perf_counter()))
        done = len(pass_t) >= passes if passes else time.perf_counter() >= deadline
        if done:
            break
    timed(clock, result, pass_t)
    result["stream_s"] = clock.span(start, pass_t[-1][1])
    result["lat_ms"] = [clock.span(t0, t1) * 1e3 for t0, t1 in lat]
    result["rss_kb"] = peak_rss_kb()
    if tracer:
        tracer.uninstall()

    after = snapshot(cache_dir)
    gate.check("cache unchanged", "" if after == before
               else "the request stream changed the cache directory")
    result["bytes_written"] = sum(after.values()) - sum(before.values())
    for i, (argv, expect) in enumerate(reqs):
        code, out = first[i]
        what = " ".join(argv[:5])
        gate.check(what, queries.check(expect, code, out), runs[i] - changed[i])
        gate.check(what, "answer changed on a repeat" if changed[i] else "",
                   changed[i])


def oracle_enum(spec, clock, tracer, gate, result):
    from hurwitz import oracle
    from hurwitz.partitions import partitions

    items = [(alpha, j, mode) for n in range(1, ORACLE_N + 1)
             for alpha in partitions(n) for j in range(ORACLE_J + 1)
             for mode in (False, True)]
    random.Random(spec["seed"]).shuffle(items)
    got = []
    t0 = time.perf_counter()
    for alpha, j, mode in items:
        if tracer:
            rec = tracer.begin("bench.dfs_count", f"dfs:{alpha.n},{j}")
        got.append(oracle.dfs_count(alpha, j, mode))
        if tracer:
            tracer.end(rec)
    timed(clock, result, [(t0, time.perf_counter())])
    result["rss_kb"] = peak_rss_kb()
    if tracer:
        tracer.uninstall()
        tracer.counts["oracle.dfs_tuples"] = layers.dfs_tuples(
            {(alpha.n, j) for alpha, j, _ in items})

    table = oracle.all_counts(oracle.N_BUDGET, oracle.J_BUDGET)
    sieved = oracle.transitive_counts(table)
    for (alpha, j, mode), count in zip(items, got):
        want = (sieved if mode else table).count(alpha.n, j, alpha)
        gate.check(f"dfs {alpha} j={j} transitive={mode}",
                   "" if count == want else f"dfs {count}, sieve {want}")


WORKLOADS = {"cold_grid": cold_grid, "warm_queries": warm_queries,
             "oracle_enum": oracle_enum}


def main():
    clock = HostClock()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from hurwitz import cli

    ready = time.perf_counter()
    result = {}
    mode = spec["mode"]
    if mode == "setup":
        clock.stop()
    elif mode == "warm":
        result["code"], _ = call_main(cli, warm_argv(spec["cache_dir"]))
        end = time.perf_counter()
        clock.stop()
        result["done_s"] = since_spawn(clock, spec, end)
    else:
        tracer = None
        if spec.get("trace"):
            tracer = Tracer()
            layers.install(tracer, group_by_cell=mode == "cold_grid")
        gate = Gate()
        WORKLOADS[mode](spec, clock, tracer, gate, result)
        result.update(attempted=gate.attempted, failed=gate.failed,
                      notes=gate.notes)
        if tracer:
            tracer.retime(clock.at)
            tracer.counts["cache.bytes_written"] = result.get("bytes_written", 0)
            result["layers"] = layers.metrics(tracer)
            tracer.write(spec["spans_path"])
    result["ready_s"] = since_spawn(clock, spec, ready)
    print(json.dumps(result))


def since_spawn(clock, spec, t: float) -> float:
    """Reference seconds from the parent's `spawn` to perf_counter `t`; the
    interpreter's start, before the clock, goes at the first sample's speed."""
    return ((clock.mono0 - spec["spawn"]) * clock.speeds[0]
            + clock.at(t))


if __name__ == "__main__":
    main()
