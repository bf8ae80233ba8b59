"""Machine-speed probes that take the host's speed swings out of `wall_s`.

On a shared VM the speed of a vCPU swings by ±20 % over seconds to
minutes, so raw wall-clock medians of the same code on the same inputs
wander by more than a useful regression bound. `SpeedClock` runs a
fixed probe (a split search over a small node: many short numpy calls,
the mix the forest grower spends its time in) every `INTERVAL_S` seconds from a SIGALRM handler, in the thread that runs
the workload. Each slice of workload time between two probes is
rescaled by `REFERENCE_S` over the mean of the two probe times, so the
sum reads as wall-clock seconds at the speed where one probe takes
`REFERENCE_S` (about the median on a 2-vCPU x86_64 VM). The probe uses
only its own arrays: it calls nothing in `metaselect` and touches no
global random state, so a change to the program never changes the probe
and the workload's outputs are the same with or without it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 0.001
# probes run back to back find their data in cache and take less time
# than one run after a slice of workload; this is their reference time
REFERENCE_BACK_TO_BACK_S = 0.0009

_RNG = np.random.default_rng(0)
_COLUMNS = _RNG.random((240, 10))
_TARGET = _RNG.random(240)
_ROWS = np.arange(240)
_COUNTS = np.arange(1, 241)


def _probe_work() -> float:
    """A split search on a small node in plain numpy: many short calls."""
    total = 0.0
    for _ in range(3):
        for column in _COLUMNS.T:
            ordered = _TARGET[np.argsort(column)]
            sums = np.cumsum(ordered)
            means = sums / _COUNTS
            total += float((np.cumsum(ordered**2) - sums * means).min())
            total += _ROWS[column < 0.5].size
    return total


class SpeedClock:
    """Times a block of code as raw wall seconds and as seconds at the
    reference speed, probing the machine's speed while the block runs."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, seconds)

    def _probe(self, *_signal_args) -> None:
        started = time.perf_counter()
        _probe_work()
        self.probes.append((started, time.perf_counter() - started))

    @staticmethod
    def probe_seconds(repeats: int = 9) -> float:
        """Median probe time over `repeats` probes run back to back now."""
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            _probe_work()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    @contextmanager
    def running(self):
        """Probe at the start, every INTERVAL_S inside, and at the end."""
        self.probes = []
        previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()

    def seconds(self) -> tuple[float, float]:
        """(raw, reference) seconds of the last block, probe time excluded."""
        raw = reference = 0.0
        for (before, before_s), (after, after_s) in zip(self.probes, self.probes[1:]):
            slice_s = after - (before + before_s)
            raw += slice_s
            reference += slice_s * REFERENCE_S / ((before_s + after_s) / 2)
        return raw, reference
