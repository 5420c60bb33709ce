"""Span recorder for the traced benchmark run.

Spans are taken from outside the package: `Tracer.wrap` rebinds a module
or class attribute (for example `hurwitz.engine.theta_symmetrize`) to a
wrapper that opens a span, calls the original and closes the span.
Because the package calls these names through module globals, every call
site inside the package goes through the wrapper.  `uninstall` puts the
originals back, so the correctness gates run untraced.

Spans stay in memory and are written once, when the run ends.  Each span
is `[id, name, start_ns, end_ns, parent_id, group]`, where the group is
one id per request, per cell or per tally.  A span's self time is its
duration minus the durations of its direct children; the package is
single-threaded, so children never overlap.  Before they are summed or
written, `retime` moves the start and end onto the worker's reference
clock (`hostclock.py`), in nanoseconds since that clock started.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._patches: list = []

    # -- recording

    def begin(self, name: str, group=None) -> list:
        """Open a span; without a group it takes its parent's."""
        parent = self._stack[-1] if self._stack else None
        if group is None and parent:
            group = parent[5]
        rec = [len(self.spans), name, perf_counter_ns(), 0,
               parent[0] if parent else -1, group]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def end(self, rec: list):
        rec[3] = perf_counter_ns()
        self._stack.pop()

    def add(self, counter: str, value: int = 1):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def peak(self, counter: str, value: int):
        self.counts[counter] = max(self.counts.get(counter, 0), value)

    # -- rebinding

    def wrap(self, owner, attr: str, name: str, after=None, on_error=None,
             group=None):
        """Rebind `owner.attr` to a spanned wrapper.

        `after(result, args)` runs once the span is closed, `on_error(exc)`
        when the call raises, and `group(args)` may name the span group.
        """
        orig = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.begin(name, group(args) if group else None)
            try:
                out = orig(*args, **kwargs)
            except Exception as exc:
                tracer.end(rec)
                if on_error:
                    on_error(exc)
                raise
            tracer.end(rec)
            if after:
                after(out, args)
            return out

        self._patch(owner, attr, orig, traced)

    def hook(self, owner, attr: str, after):
        """Rebind `owner.attr` to call `after(result, args)` without a span."""
        orig = getattr(owner, attr)

        def hooked(*args, **kwargs):
            out = orig(*args, **kwargs)
            after(out, args)
            return out

        self._patch(owner, attr, orig, hooked)

    def _patch(self, owner, attr, orig, repl):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, repl)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def retime(self, at):
        """Map every start and end through `at`, seconds to seconds."""
        for rec in self.spans:
            rec[2] = round(at(rec[2] / 1e9) * 1e9)
            rec[3] = round(at(rec[3] / 1e9) * 1e9)

    # -- aggregation

    def _children(self) -> list:
        kids: list = [[] for _ in self.spans]
        for rec in self.spans:
            if rec[4] >= 0:
                kids[rec[4]].append(rec)
        return kids

    def totals(self) -> dict:
        """Per span name: seconds of outermost spans of that name (a
        recursive call is not counted twice) and summed self seconds."""
        kids = self._children()
        total: dict = {}
        self_s: dict = {}
        for rec in self.spans:
            sid, name, start, end, parent = rec[:5]
            dur = end - start
            child = sum(k[3] - k[2] for k in kids[sid])
            self_s[name] = self_s.get(name, 0) + dur - child
            p = parent
            while p >= 0 and self.spans[p][1] != name:
                p = self.spans[p][4]
            if p < 0:
                total[name] = total.get(name, 0) + dur
        return {
            name: (total[name] / 1e9, self_s[name] / 1e9) for name in total
        }

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns",
                                            "parent", "group"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
