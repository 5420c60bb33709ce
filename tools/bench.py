"""One reader for the performance record: the `BENCH_*.json` files.

    python3 tools/bench.py [FILE ...]

With no FILE it reads every `BENCH_*.json` at the root of this
repository, in the order of their PR numbers.  For each file it prints
`src_lines` (parent and change) and then, for every metric it can read,
one line: the section, the metric, the parent's and the change's median
and their ratio (change over parent).

The files were written in several layouts, and the tool reads all of
them:
  * a `pairs_*` section with a `metrics` map (`pairs_10_all`,
    `pairs_10_cold_grid`, ...), or one `metrics` map per workload
    (`pairs_10` of the early files);
  * an `end_to_end` or `end_to_end_all` section whose `parent` and
    `change` each hold a `median` map.
A metric's medians are its `parent_median` and `change_median` where the
file gives them, else the medians of its `parent` and `change` (or
`parent_values` and `change_values`) lists.

A file that is not JSON, or in which no metric can be read, is named on
stderr with the reason, and the tool then exits 1.  Medians from
different files come from different sessions of a shared host, so only a
ratio within one file compares two trees.  A reader that closes stdout
early ends the tool with exit 1 and nothing on stderr, as the package's
CLI does.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pr_number(path: Path) -> int:
    found = re.search(r"(\d+)", path.stem)
    return int(found[1]) if found else -1


def _median(entry: dict, side: str):
    """The median of one side of a metric entry, or None."""
    value = entry.get(f"{side}_median")
    if isinstance(value, (int, float)):
        return value
    for key in (side, f"{side}_values"):
        values = entry.get(key)
        if isinstance(values, list) and values and all(
                isinstance(v, (int, float)) for v in values):
            return statistics.median(values)
    return None


def _pairs_rows(name: str, section: dict):
    metrics = section.get("metrics")
    if isinstance(metrics, dict):
        for metric, entry in metrics.items():
            if isinstance(entry, dict):
                yield name, metric, _median(entry, "parent"), _median(entry, "change")
        return
    for workload, sub in section.items():  # one metrics map per workload
        if isinstance(sub, dict) and isinstance(sub.get("metrics"), dict):
            yield from _pairs_rows(f"{name}.{workload}", sub)


def _end_to_end_rows(name: str, section: dict):
    parent, change = (side.get("median") if isinstance(side, dict) else None
                      for side in (section.get("parent"), section.get("change")))
    if isinstance(parent, dict) and isinstance(change, dict):
        for metric, value in parent.items():
            yield name, metric, value, change.get(metric)


def rows(doc: dict) -> list:
    """(section, metric, parent median, change median) for every metric
    with both medians."""
    out = []
    for key, section in doc.items():
        if not isinstance(section, dict):
            continue
        if key.startswith("pairs_"):
            out.extend(_pairs_rows(key, section))
        elif key in ("end_to_end", "end_to_end_all"):
            out.extend(_end_to_end_rows(key, section))
    return [r for r in out if all(isinstance(v, (int, float)) for v in r[2:])]


def read(path: Path):
    """(src_lines text, rows) of one file; raises ValueError naming why it
    cannot be read."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"not readable as JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError("the top level is not an object")
    found = rows(doc)
    if not found:
        raise ValueError("no pairs_* or end_to_end section with parent and "
                         "change medians")
    lines = doc.get("src_lines")
    if isinstance(lines, dict) and "parent" in lines and "change" in lines:
        src = f"src_lines {lines['parent']} -> {lines['change']}"
    else:
        src = "src_lines not recorded"
    return src, found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(a) for a in args] or sorted(ROOT.glob("BENCH_*.json"), key=_pr_number)
    unread = 0
    for path in paths:
        try:
            src, found = read(path)
        except ValueError as err:
            print(f"{path.name}: cannot read: {err}", file=sys.stderr)
            unread += 1
            continue
        print(f"{path.name}: {src}")
        for section, metric, parent, change in found:
            ratio = f"{change / parent:.3f}" if parent else "-"
            print(f"  {section:<24} {metric:<30} {parent:>12.6g} {change:>12.6g} {ratio:>7}")
    return 1 if unread else 0


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
