"""Speed-corrected timing for a shared host whose speed drifts.

On a shared 2-core host the speed available to one process drifts by a
third within seconds as other tenants come and go: a fixed pure-Python loop
ran 45 to 76 times per 1.5 s window, with CPU time tracking wall time. Wall
times of identical work spread as much, which would swamp the bounds that
BENCHMARK.json sets.

So while an operation runs, a timer signal every ``INTERVAL_S`` runs a fixed
snippet (small dict updates and SHA-256 of short inputs, like the
simulator's inner loops) and records how long it took. An operation's
reference time is its wall time minus those snippets, times the mean of
``REFERENCE_TICK_S / tick``: the time the same work would take on a host
where the snippet takes ``REFERENCE_TICK_S``. Over 25 s windows of
identical simulator and model-checker work this cut the spread
(interquartile range over median) from 17-20% for wall time to a few
percent. The snippets cost about 3% of wall time; they are subtracted from
it, and raw wall times are reported beside reference times.

Uses SIGALRM, so it works only in the main thread of a process that does
not use that signal itself.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
from typing import List

INTERVAL_S = 0.05
REFERENCE_TICK_S = 1e-3

_sha256 = hashlib.sha256


def _snippet() -> int:
    table = {}
    acc = 0
    for i in range(1000):
        key = (i & 63, "k")
        table[key] = table.get(key, 0) + 1
        acc ^= _sha256(i.to_bytes(8, "big")).digest()[0]
    return acc


class Clock:
    """Times the block it wraps: ``wall`` and ``ref`` seconds on exit."""

    def __init__(self):
        self.wall = 0.0
        self.ref = 0.0
        self._ticks: List[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _snippet()
        self._ticks.append(time.perf_counter() - start)

    def __enter__(self) -> "Clock":
        self._ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = end - self._start - sum(self._ticks)
        if not self._ticks:  # shorter than one interval: sample right after
            self._tick(None, None)
        self.ref = self.wall * statistics.fmean(
            REFERENCE_TICK_S / t for t in self._ticks)
