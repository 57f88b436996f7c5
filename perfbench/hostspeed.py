"""Host-speed sampling on the benchmark's own CPU.

On a shared host the CPU itself drifts. On the 2-vCPU development host,
a fixed pure-Python loop's speed changed by up to 1.7x for tens of
seconds at a time, while process CPU time still tracked wall time and
no steal time showed. Medians over one run cannot remove drift that
outlasts the run.

So the benchmark times a fixed piece of work (a pure-Python loop and
small numpy matrix-vector products, natvb's own mix) on the same CPU as
the runs; the process is pinned to one CPU first. A time is scaled by
(REF_WORK_S / median work time sampled meanwhile) ** SENSITIVITY: the
result is the time at the reference speed, where the work takes
REF_WORK_S. SENSITIVITY is how strongly natvb's runs follow the work's
speed. On the development host they slowed by about k ** 0.7 when the
work slowed by k, so full scaling over-corrected. During runs a sampler
thread takes one sample every PERIOD_S, holding the interpreter lock for
about 0.15 ms each time, under 1% of a run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

REF_WORK_S = 150e-6
SENSITIVITY = 0.7
PERIOD_S = 0.02


def pin_to_one_cpu() -> int:
    """Pin this process (and the threads and children it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Timed samples of a fixed piece of work; needs numpy imported."""

    def __init__(self):
        import numpy as np

        self._mat = np.ones((8, 8))
        self._vec = np.ones(8)
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(2000):
            total += i
        for _ in range(100):
            self._mat @ self._vec
        self.samples.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.samples)

    def scale_since(self, mark: int) -> float:
        """Factor taking a time measured since mark to reference speed.

        Falls back to the last few samples when the interval held none.
        """
        window = self.samples[mark:] or self.samples[-5:]
        if not window:
            return 1.0
        return (REF_WORK_S / statistics.median(window)) ** SENSITIVITY


class SpeedSampler(HostSpeed):
    """Samples every PERIOD_S from a background thread; a context manager."""

    def __init__(self):
        super().__init__()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
