"""A clock in reference seconds: wall time corrected for the host's speed.

The small shared hosts this benchmark runs on change speed by themselves,
by up to 1.7x, within a fraction of a second and independently on each
CPU, whatever this process does.  A wall time taken there says as much
about the neighbours as about the package.  So while a worker runs, a
SIGALRM timer interrupts it every `PERIOD_S` seconds and times a fixed
pure-Python loop, the probe.  The work done since the previous sample ran
at speed `REF_S / probe time`; `HostClock.at` maps a `perf_counter`
reading to the seconds the work up to it would have taken on a host where
the probe takes `REF_S`.  Time spent in the probe itself maps to nothing.

`REF_S` is the probe's time on the fast state of a 2-vCPU x86-64 VM with
Python 3.11, so reference seconds read close to wall seconds there.  A
change to the probe, `REF_S` or `PERIOD_S` changes every time metric.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right

PERIOD_S = 0.04
REF_S = 0.0013
_PROBE_N = 5000


def probe() -> None:
    """Dict, tuple and small-int work, like the package's inner loops."""
    d: dict = {}
    for i in range(_PROBE_N):
        k = (i * 7919) % 211
        d[k, i & 3] = d.get((k, i & 3), 0) + i


class HostClock:
    def __init__(self):
        self.mono0 = time.monotonic()
        now = time.perf_counter()
        # piecewise-linear map: raw[i] -> ref[i]; a probe is a flat piece
        self.raw = [now]
        self.ref = [0.0]
        self.speeds: list = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, *_):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        speed = REF_S / (t1 - t0)
        ref = self.ref[-1] + (t0 - self.raw[-1]) * speed
        self.raw += (t0, t1)
        self.ref += (ref, ref)
        self.speeds.append(speed)

    def stop(self):
        """Stop sampling, with a last sample that closes the map."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def at(self, t: float) -> float:
        """Reference seconds since the clock started at `perf_counter` t,
        a reading taken between the start and `stop`."""
        raw, ref = self.raw, self.ref
        i = bisect_right(raw, t) - 1
        return ref[i] + (t - raw[i]) * (ref[i + 1] - ref[i]) / (raw[i + 1] - raw[i])

    def span(self, t0: float, t1: float) -> float:
        return self.at(t1) - self.at(t0)
