"""Host-speed probe: a fixed reference kernel, timed while the pipeline runs.

The benchmark shares a few vCPUs of a busy host, whose speed swings by up
to 2x within seconds. Wall times alone then spread too widely between runs
to gate on. While a repetition runs, SIGALRM interrupts the main thread
every TICK_S seconds and times one call of `kernel`, a small mix of numpy
ufunc and dict/tuple work like the pipeline's own. A stage's
reference time is its wall time minus the probe time spent inside it,
scaled by (REF_KERNEL_S / median kernel time during the stage) ** ELASTICITY:
an estimate of the stage's time on a host where the kernel takes
REF_KERNEL_S. Set-up is too short for ticks: it is scaled by a burst of
kernel calls made right after it, outside its timing.

The kernel avoids BLAS so its cost does not depend on the thread pool.
Its make-up was chosen by measurement: a leaner variant, with buffers
allocated once and a smaller working set, sped up and slowed down more
than the pipeline did, and left the pipeline's reference times spreading
as widely as its wall times. The handler runs between bytecodes; a long
C call (a BLAS product) only delays the next tick.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.2
# Median kernel time on the machine the bounds were set on (2 vCPUs of an
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4). It only sets the scale.
REF_KERNEL_S = 1.2e-3
# A stage with fewer ticks than this is scaled by its repetition's median.
MIN_TICKS = 5
# The kernel speeds up and slows down more than the pipeline does. Across
# runs, the least-squares slope of log pipeline wall time on log kernel time
# was 0.62 on zipf-100k (35 runs) and 0.99 on retrieval-2k (25 runs); 0.7
# gave the smallest worst-case spread of pipeline_ref_s over those sets.
ELASTICITY = 0.7

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((32, 1, 16))
_CENTRES = _rng.standard_normal((1, 32, 16))


def kernel() -> int:
    nearest = 0
    for _ in range(4):
        nearest += int(np.square(_POINTS - _CENTRES).sum(axis=2).argmin(axis=1).sum())
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 251, int(str(i % 13)))
        counts[key] = counts.get(key, 0) + 1
    return nearest + len(counts)


class SpeedProbe:
    """Context manager collecting kernel times, one per tick; tick_s=0 collects none."""

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        kernel()  # the first call pays for lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(wall: float, kernel_s: float) -> float:
    """Reference time of `wall` seconds during which the kernel took kernel_s."""
    return wall * (REF_KERNEL_S / kernel_s) ** ELASTICITY


def burst(calls: int = 15) -> float:
    """Median time of back-to-back kernel calls, after one warm-up call."""
    kernel()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_times(stages: list[tuple[float, list[float]]]) -> list[float]:
    """Reference time of each (wall seconds, kernel times inside it) stage.

    A stage with fewer than MIN_TICKS ticks takes the median over all the
    stages' ticks; with no ticks at all the wall time is returned unscaled.
    """
    every = [k for _, ticks in stages for k in ticks]
    overall = statistics.median(every) if every else REF_KERNEL_S
    out = []
    for wall, ticks in stages:
        speed = statistics.median(ticks) if len(ticks) >= MIN_TICKS else overall
        out.append(scale(wall - sum(ticks), speed))
    return out
