"""Benchmark of the hurwitz package: three workloads, their end-to-end
metrics, and a traced run for the per-layer metrics.

    python3 perfbench/run.py --workload cold_grid --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it needs `src/hurwitz` and
`BENCHMARK.json` there and exits with code 2 without them.  Every pass
runs in a fresh interpreter (`perfbench/worker.py`) with its own cache
directory under `.perfbench_tmp/`, removed at the end.  Times are in
reference seconds, wall time corrected for the host's own changes of speed
(`perfbench/hostclock.py`); the raw wall time is printed beside them.  The metric names
and units come from `BENCHMARK.json`: `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones.  The last line of stdout is one
JSON object; the lines before it give every metric with its unit, the
failure fraction and the run's metadata.  `--workload all` runs the three
workloads in turn and prefixes each metric with its workload.

Traced runs write their spans to `.perfbench_out/spans_<workload>_seed<n>.jsonl`
and keep the exact counts of `layers.EXACT` in
`.perfbench_out/exact_counts.json`, keyed by workload, seed and a digest
of `src/hurwitz`; a count that differs from an earlier run of the same
code and seed is flagged and fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from layers import EXACT  # noqa: E402

WORKLOADS = ("cold_grid", "warm_queries", "oracle_enum")
SETUPS = 9  # import-only set-ups behind setup_s for cold_grid, oracle_enum
WARM_SETUPS = 3  # warm_queries set-ups; each warms a fresh cache
RUN_LIMIT_S = 170  # a run must end within 180 s


class Runner:
    def __init__(self, root: Path, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.out_dir = root / ".perfbench_out"
        self.out_dir.mkdir(exist_ok=True)
        tmp = root / ".perfbench_tmp"
        tmp.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp))
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def cache_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.tmp)

    def child(self, mode: str, after: tuple | None = None, **spec) -> dict:
        """Run one worker to completion.  Its `setup_s` runs from just
        before its interpreter starts until the package is imported; with
        `after`, the `(seconds, monotonic end)` of an earlier step, it
        starts at that step instead."""
        start = time.monotonic()
        spec.update(mode=mode, root=str(self.root), seed=self.seed,
                    spawn=start)
        left = self.deadline - start
        if left <= 0:
            raise RuntimeError("the run is out of time")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=left,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        res["setup_s"] = res["ready_s"]
        if after:
            res["setup_s"] += after[0] + start - after[1]
        res["end"] = time.monotonic()
        if res.get("code", 0) != 0:
            raise RuntimeError(f"worker {mode} got exit {res['code']}")
        self.attempted += res.get("attempted", 0)
        self.failed += res.get("failed", 0)
        for note in res.get("notes", []):
            print(f"FAIL {note}", file=sys.stderr)
        return res

    def warmed(self) -> tuple:
        """A cache directory warmed like cold_grid, and the warm-up's
        `(seconds, monotonic end)` for the set-up time of its reader."""
        d = self.cache_dir()
        res = self.child("warm", cache_dir=d)
        return d, (res["done_s"], res["end"])

    # -- untraced runs: end-to-end metrics

    def passes(self, workload: str) -> dict:
        """cold_grid and oracle_enum: fresh passes until the time is up."""
        runs, start = [], time.monotonic()
        while not runs or time.monotonic() - start < self.seconds:
            d = self.cache_dir()
            runs.append(self.child(workload, cache_dir=d))
            shutil.rmtree(d)
            if workload == "cold_grid":
                self.exact(workload, {"cache.bytes_written":
                                      runs[-1]["bytes_written"]})
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUPS:
            setups.append(self.child("setup")["setup_s"])
        lat = [s * 1e3 for r in runs for s in r["pass_s"]]
        return e2e(setups, runs, lat, sum(lat) / 1e3)

    def stream(self) -> dict:
        """warm_queries: each set-up warms a cache, then streams its share."""
        runs = []
        for _ in range(WARM_SETUPS):
            d, warm = self.warmed()
            runs.append(self.child("warm_queries", after=warm, cache_dir=d,
                                   seconds=self.seconds / WARM_SETUPS))
            shutil.rmtree(d)
        lat = [x for r in runs for x in r["lat_ms"]]
        return e2e([r["setup_s"] for r in runs], runs, lat,
                   sum(r["stream_s"] for r in runs))

    # -- traced runs: per-layer metrics

    def traced(self, workload: str) -> dict:
        """Untraced, traced, traced and untraced passes of the same input;
        the order cancels a steady drift of the host's speed.  The traced
        passes give the layers and their exact counts, all four the
        tracing overhead."""
        spans = self.out_dir / f"spans_{workload}_seed{self.seed}.jsonl"
        shared = self.warmed()[0] if workload == "warm_queries" else None
        runs = []
        for trace in (False, True, True, False):
            spec = {"cache_dir": shared or self.cache_dir(), "passes": 1}
            if trace:
                spec.update(trace=1, spans_path=str(spans))
            runs.append(self.child(workload, **spec))
        busy = [sum(r["pass_s"]) for r in runs]
        out = dict(runs[1]["layers"])
        out["trace.overhead_frac"] = (busy[1] + busy[2]) / (busy[0] + busy[3]) - 1
        for r in runs:
            counts = {k: r["layers"][k] for k in EXACT} if "layers" in r else {}
            if "bytes_written" in r:
                counts["cache.bytes_written"] = r["bytes_written"]
            self.exact(workload, counts)
        return out

    def exact(self, workload: str, counts: dict):
        """Compare exact counts with earlier runs of this code and seed."""
        path = self.out_dir / "exact_counts.json"
        seen = json.loads(path.read_text()) if path.is_file() else {}
        key = f"{workload} seed={self.seed} src={src_digest(self.root)}"
        old = seen.setdefault(key, {})
        for name, value in counts.items():
            self.attempted += 1
            if old.setdefault(name, value) != value:
                self.failed += 1
                print(f"FLAG {workload}: exact count {name} was {old[name]}, "
                      f"now {value}", file=sys.stderr)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, path)


def e2e(setups, runs, lat_ms, busy_s) -> dict:
    """End-to-end metrics of the pass processes `runs`, in reference
    seconds.  A request is one `hurwitz` command for warm_queries and
    cold_grid, and one whole enumeration for oracle_enum.  `wall_s` is the
    median pass time over all passes of the run."""
    lat = sorted(lat_ms)
    raw = statistics.median(x for r in runs for x in r["raw_pass_s"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(x for r in runs for x in r["pass_s"]),
        "req_per_s": len(lat) / busy_s,
        "req_p50_ms": statistics.median(lat),
        "req_p99_ms": lat[math.ceil(0.99 * len(lat)) - 1],
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in runs) / 1024,
        "samples": {"setups": len(setups), "processes": len(runs),
                    "passes": sum(len(r["pass_s"]) for r in runs),
                    "requests": len(lat), "raw_wall_s": round(raw, 4),
                    "host_speed": round(statistics.median(
                        r["speed"] for r in runs), 3)},
    }


def src_files(root: Path) -> list:
    return sorted((root / "src" / "hurwitz").rglob("*.py"))


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in src_files(root):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(runner: Runner, workload: str, trace: bool) -> dict:
    if trace:
        return runner.traced(workload)
    if workload == "warm_queries":
        return runner.stream()
    return runner.passes(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    bench = root / "BENCHMARK.json"
    if not (root / "src" / "hurwitz" / "__init__.py").is_file() \
            or not bench.is_file():
        print("perfbench: run from the root of a checkout holding "
              "src/hurwitz and BENCHMARK.json", file=sys.stderr)
        return 2
    declared = json.loads(bench.read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(root, args.seed, args.seconds)
    metrics, samples = {}, {}
    try:
        for workload in workloads:
            got = run_workload(runner, workload, bool(args.trace))
            samples[workload] = got.pop("samples", None)
            if set(got) != set(units):
                raise RuntimeError(f"metrics {sorted(set(got) ^ set(units))} "
                                   "do not match BENCHMARK.json")
            prefix = f"{workload}." if args.workload == "all" else ""
            print(f"# {workload}" + (f" ({samples[workload]})"
                                     if samples[workload] else ""))
            for name, value in got.items():
                print(f"{prefix}{name} = {value:.6g} {units[name]}")
                metrics[prefix + name] = {"value": value, "unit": units[name]}
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    print(f"fail_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} checks)")
    print("meta " + json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in src_files(root)),
        "src_digest": src_digest(root),
    }, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
