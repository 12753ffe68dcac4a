"""Scaling timings to a reference interpreter speed.

Shared virtual machines change clock speed by 20% and more within seconds
(on a 2-core one, a pure-Python loop took 0.6 ms or 1.1 ms, switching every
few seconds), and the change moves every timing of a run in the same
direction. So the benchmark runs a small calibration kernel between
operations, once `INTERVAL_S` seconds have passed since its last run, and
scales each measured duration by `KERNEL_REF_S / kernel time`, the kernel
time being the mean of the kernel runs within `WINDOW_S` of the instant
measured. A scaled duration is what the work would have taken while the
kernel took `KERNEL_REF_S`. The kernel does the kind of work `lh` does
(allocating small objects, attribute reads, `isinstance` dispatch, dict and
tuple traffic) and imports nothing from `lh`, so a change to `lh` does not
move it.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter

KERNEL_REF_S = 0.001
INTERVAL_S = 0.2
WINDOW_S = 1.0


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> int:
    seen = {}
    node = None
    for i in range(2000):
        node = _Node(i, node)
        if isinstance(node.b, _Node):
            seen[i & 255] = (node.a, node.b.a)
    return len(seen)


def kernel_seconds() -> float:
    """Median of three timed kernel runs (the first after a large `lh` call
    can pay for a cold cache), with the collector paused so that the heap
    `lh` leaves behind does not enter the measurement."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            runs.append(perf_counter() - t0)
        return sorted(runs)[1]
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Kernel times by instant; `scale(t)` maps a duration measured at `t`
    to reference speed, using the mean kernel time within `WINDOW_S` of `t`."""

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []
        self._sums = [0.0]

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.kernels.append(kernel_seconds())
        self._sums.append(self._sums[-1] + self.kernels[-1])

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= INTERVAL_S

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return KERNEL_REF_S * (hi - lo) / (self._sums[hi] - self._sums[lo])
