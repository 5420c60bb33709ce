"""Interleaved A/B timing of two source trees in one process.

    python3 tools/ab.py BASE [HEAD] [--rounds N] [--seed S]

BASE and HEAD are each a git revision of this repository or a directory
that holds `src/hurwitz`; HEAD defaults to this repository's working
tree.  A revision is extracted with `git archive` into a temporary
directory.  The two trees are loaded side by side as the packages
`hurwitz_a` (BASE) and `hurwitz_b` (HEAD), which works because the
package imports itself only relatively.

The workload is the `warm_queries` request list of `perfbench/queries.py`
(imported, not edited) for the seed, against one cache that BASE warms
with `hurwitz cache --warm --m 5`.  `queries.py` builds the list and
checks the answers with BASE's modules.  One untimed round fills both
trees' memos; then each timed round runs every request on both trees,
the tree that goes first alternating from request to request and from
round to round.  Both trees must give the same exit code, stdout and
stderr for every request, and BASE's answer must pass `queries.check`;
otherwise the tool names the request and exits 1.  It exits 2 when it
cannot load a tree or warm the cache, and exits 1 with nothing on stderr
when its reader closes stdout early, as the package's CLI does.

It prints, per request kind, each tree's median wall time and median CPU
time (`time.process_time`), each with the ratio of HEAD to BASE; p50 and
p99 over all timed requests, in wall and CPU time; each round's wall and
CPU time ratios; and the throughput ratio (requests per wall second of
HEAD over BASE).  There is no p99 per kind: a kind has 30 to 600
samples over 5 rounds, so its p99 is nearly its maximum and moves by
tens of percent between runs of the same trees.  Limits: both trees
share one heap and one garbage collector, so a change that only moves
allocation or collection is not judged fairly; peak RSS cannot be split
between them; interpreter start is not measured.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID_M = 5  # the warm command of perfbench/worker.py: cache --warm --m 5
EXIT_DIFFERENT = 1
EXIT_ERROR = 2


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_ERROR)


def tree_dir(spec: str, scratch: Path, name: str) -> Path:
    """The directory holding `src/hurwitz` for a directory or a revision."""
    path = Path(spec)
    if (path / "src" / "hurwitz" / "__init__.py").is_file():
        return path.resolve()
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", spec, "src"],
                          capture_output=True, check=False)
    if blob.returncode:
        fail(f"{spec!r} is neither a source tree nor a revision: "
             f"{blob.stderr.decode().strip()}")
    out = scratch / name
    with tarfile.open(fileobj=io.BytesIO(blob.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(out, filter="data")
        else:
            tar.extractall(out)
    return out


def load_tree(root: Path, name: str):
    """`src/hurwitz` under `root` as the package `name`, with its `cli`."""
    pkg = root / "src" / "hurwitz"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def load_queries(package: str):
    """perfbench/queries.py, its `hurwitz` imports bound to `package`."""
    for key in [k for k in sys.modules if k == package or k.startswith(package + ".")]:
        sys.modules["hurwitz" + key[len(package):]] = sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        "ab_queries", ROOT / "perfbench" / "queries.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(cli, argv):
    """Exit code, stdout and stderr of one in-process request, and its
    wall and CPU times in seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        t1, c1 = time.perf_counter(), time.process_time()
    return (code, out.getvalue(), err.getvalue()), (t1 - t0, c1 - c0)


def kind(expect: tuple) -> str:
    if expect[0] == "compute":
        return f"compute:{expect[3]}"
    if expect[0] == "verify":
        return f"verify:{expect[1]}"
    return expect[0]


def run(base_cli, head_cli, queries, reqs, rounds: int):
    """Per-request times `{side: [[(wall s, CPU s) per request] per
    round]}`; the first differing or failing request ends the run with
    exit 1."""
    sides = {"base": base_cli, "head": head_cli}
    times = {"base": [], "head": []}
    for r in range(rounds + 1):
        row = {"base": [], "head": []}
        for i, (argv, expect) in enumerate(reqs):
            order = ("base", "head") if (i + r) % 2 == 0 else ("head", "base")
            answers = {}
            for side in order:
                answers[side], dt = call(sides[side], argv)
                row[side].append(dt)
            if answers["base"] != answers["head"]:
                print(f"DIFFERENT answers to {' '.join(argv)}:\n"
                      f"  base {answers['base']!r}\n  head {answers['head']!r}")
                raise SystemExit(EXIT_DIFFERENT)
            if r == 0:
                code, out, _ = answers["base"]
                problem = queries.check(expect, code, out)
                if problem:
                    print(f"WRONG answer to {' '.join(argv)}: {problem}")
                    raise SystemExit(EXIT_DIFFERENT)
        if r:  # round 0 fills the memos and is not timed
            for side in times:
                times[side].append(row[side])
    return times


def quantile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def report(reqs, times, rounds: int):
    kinds: dict = {}
    for i, (_, expect) in enumerate(reqs):
        kinds.setdefault(kind(expect), []).append(i)
    # clock 0 is wall time, clock 1 CPU time
    stats = (("median", 0), ("cpu", 1))
    print(f"{'kind':<20}{'n':>5}" + "".join(
        f"{label + ' base':>12}{label + ' head':>12}{'ratio':>7}" for label, _ in stats))
    for name in sorted(kinds):
        row = f"{name:<20}{len(kinds[name]):>5}"
        for _, clock in stats:
            b, h = (statistics.median([r[i][clock] for r in times[side] for i in kinds[name]])
                    for side in ("base", "head"))
            row += f"{b * 1e3:>12.4f}{h * 1e3:>12.4f}{h / b:>7.3f}"
        print(row)
    flat = {side: [t for row in times[side] for t in row] for side in times}
    for label, clock, q in (("p50", 0, 0.5), ("p99", 0, 0.99),
                            ("cpu p50", 1, 0.5), ("cpu p99", 1, 0.99)):
        b, h = (quantile([t[clock] for t in flat[side]], q) * 1e3 for side in ("base", "head"))
        print(f"{'all ' + label:<25}{b:>12.4f}{h:>12.4f}{h / b:>7.3f}")
    for label, clock in (("time", 0), ("cpu", 1)):
        ratios = [sum(t[clock] for t in h) / sum(t[clock] for t in b)
                  for b, h in zip(times["base"], times["head"])]
        print(f"round {label} ratios head/base: " + " ".join(f"{x:.3f}" for x in ratios))
    n = len(reqs) * rounds
    base_rate, head_rate = (n / sum(t[0] for t in flat[side]) for side in ("base", "head"))
    print(f"throughput: base {base_rate:.0f}/s, head {head_rate:.0f}/s, "
          f"head/base {head_rate / base_rate:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision or directory with src/hurwitz")
    parser.add_argument("head", nargs="?", default=str(ROOT),
                        help="the same; default this working tree")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        tmp = Path(tmp)
        base_cli = load_tree(tree_dir(args.base, tmp, "base"), "hurwitz_a")
        head_cli = load_tree(tree_dir(args.head, tmp, "head"), "hurwitz_b")
        base_engine = sys.modules["hurwitz_a.engine"]
        head_engine = sys.modules["hurwitz_b.engine"]
        if base_engine.CACHE_VERSION != head_engine.CACHE_VERSION:
            fail("the two trees write different cache versions")
        cache_dir = str(tmp / "cache")
        (code, _, err), _ = call(base_cli, ["cache", "--warm", "--m", str(GRID_M),
                                            "--cache-dir", cache_dir])
        if code:
            fail(f"warming the cache failed: {err.strip()}")
        queries = load_queries("hurwitz_a")
        reqs = queries.make(args.seed, cache_dir)
        print(f"base {args.base}, head {args.head}, seed {args.seed}, "
              f"{len(reqs)} requests, {args.rounds} timed rounds after one untimed")
        times = run(base_cli, head_cli, queries, reqs, args.rounds)
        print(f"answers equal: all {len(reqs)} requests, every round")
        report(reqs, times, args.rounds)
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is still buffered nowhere, so that
        # the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    raise SystemExit(code)
