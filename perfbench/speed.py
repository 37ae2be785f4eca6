"""Machine-speed probe: report job times at a fixed reference speed.

The speed of a shared cloud vCPU drifts by +-15% over seconds as neighbours
come and go, which swamps the differences a benchmark has to resolve.  A
small fixed kernel, independent of dncap, is timed before and after each job
and, from SIGALRM every ``PROBE_INTERVAL_S``, during it.  The kernel slows
down with the job, so the job's own time (probe time subtracted) multiplied
by ``PROBE_REF_S / mean(kernel time)`` is far steadier than either.  On a
2-vCPU 2.0 GHz Intel Xeon host, a 7 s job's run-to-run coefficient of
variation fell from about 6-18% unscaled to about 3% scaled.

``PROBE_REF_S`` is the kernel's typical time on that host (Python 3.11), so
scaled times read as seconds on it.  The probe adds about 3% to each job's
wall time and nothing to its reported time.
"""

import signal
import statistics
import time

PROBE_LOOPS = 2000
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0005
EDGE_SAMPLES = 3


def kernel() -> int:
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return acc + len(table)


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def edge_samples() -> list[float]:
    return [sample() for _ in range(EDGE_SAMPLES)]


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to seconds at reference speed."""
    return PROBE_REF_S / statistics.fmean(samples)


class SpeedProbe:
    """Context manager timing a region and sampling the kernel in and around it."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0
        self.elapsed_s = 0.0

    def _on_alarm(self, signum, frame):
        seconds = sample()
        self.samples.append(seconds)
        self.inside_s += seconds

    def __enter__(self):
        self.samples = edge_samples()
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.elapsed_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += edge_samples()
        return False

    @property
    def own_s(self) -> float:
        """The region's time without the probe's own samples."""
        return self.elapsed_s - self.inside_s

    @property
    def scaled_s(self) -> float:
        return self.own_s * scale(self.samples)
