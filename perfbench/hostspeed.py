"""Host-speed reference for the benchmark's end-to-end times.

On a shared host the same trial can take a third longer from one minute to
the next: neighbours compete for the cores, their caches and memory.  No
steal time shows, so CPU time drifts with wall time.  A fixed kernel,
written here and independent of ``repro``, is therefore timed before each
trial and after the last one.  ``run.py`` divides each trial's time by the
factor of the interval it ran in (:func:`factors`): the kernel's mean time
around it over ``NOMINAL_S``.  The times then read as seconds on a host
where the kernel takes ``NOMINAL_S``.  A change to ``repro`` cannot move
the kernel, so it moves the scaled times as it moves the raw ones.

The kernel mixes what a trial does: batched float32 matmuls (the nn's
im2col convolution), a random gather over 1 MB (cache and memory), and a
pure-Python loop (interpreter).  It takes about 0.07 s on a calm host; a
sample is the median of three runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.07
REPEATS = 3


class HostSpeed:
    """Times the reference kernel; every sample is kept in ``samples``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((8, 64, 144)).astype(np.float32)
        self._cols = rng.standard_normal((8, 144, 256)).astype(np.float32)
        self._order = rng.permutation(self._cols.size).astype(np.int32)
        self._out = np.empty(self._cols.size, dtype=np.float32)
        self.samples: list[float] = []
        self._kernel()  # first call pays allocation and page faults

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(30):
            np.take(self._cols, self._order, out=self._out)
            total += float(np.maximum(self._w @ self._cols, 0).sum())
        n = 0
        for i in range(400_000):
            n += i * i
        return total + n

    def sample(self) -> float:
        """Median of ``REPEATS`` timed kernel runs, so one burst of host
        load does not set a trial's factor."""
        times = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - began)
        self.samples.append(statistics.median(times))
        return self.samples[-1]


def factors(kernel: list[float]) -> list[float]:
    """Host-speed factor of each interval between consecutive samples.

    The mean of the kernel's time just before and just after the interval,
    over ``NOMINAL_S``: above 1 while the host runs slow.
    """
    return [(a + b) / (2 * NOMINAL_S) for a, b in zip(kernel, kernel[1:])]


def scaled(times: list[float], kernel: list[float]) -> list[float]:
    """``times[i]``, which ran between ``kernel[i]`` and ``kernel[i + 1]``,
    at nominal host speed."""
    return [t / f for t, f in zip(times, factors(kernel), strict=True)]
