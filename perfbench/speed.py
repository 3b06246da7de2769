"""How fast the machine runs during one benchmark run.

The host of a small virtual machine can slow its CPU by up to 1.5x for
stretches of 5-60 s, in CPU time as well as wall-clock. A run of 20-40 s
mostly falls in one such stretch, so raw timings of identical runs differ
by 10-30%. A fixed calibration kernel, timed between operations throughout
the run, measures that slowdown; the benchmark divides its timings by it.
The kernel is benchmark code only, so a change to the package cannot move
it, and a change that makes the package faster shows in full.

The kernel mixes the three kinds of work the workloads do: interpreter-bound
string and dict handling, small numpy arrays, and BLAS-sized products.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.25
# Geometric mean of the three kernels' times, in seconds, on a 2-vCPU Intel
# Xeon virtual machine in a fast stretch. Scaled timings read as seconds on
# that machine.
REFERENCE_S = 0.65e-3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((48, 48)).astype(np.float32)
_ROWS = _rng.standard_normal((880, 64)).astype(np.float32)
_PROJ = (_rng.standard_normal((64, 256)) * 0.1).astype(np.float32)
_WORDS = [f"w{i}" for i in range(200)]


def _interpreter():
    counts = {}
    for i in range(1500):
        s = _WORDS[i % 200] + " " + _WORDS[(i * 7) % 200]
        counts[s] = counts.get(s, 0) + len(s.split())
    return counts


def _small_arrays():
    x = _SMALL
    for _ in range(20):
        x = np.tanh(x @ _SMALL * 0.1)
    return x


def _blas():
    return float(np.tanh(_ROWS @ _PROJ * 0.5).sum())


KERNELS = (_interpreter, _small_arrays, _blas)


class MachineSpeed:
    def __init__(self, every_s: float = PROBE_EVERY_S):
        self.every_s = every_s
        self.times: list[list[float]] = [[] for _ in KERNELS]
        self.spent = 0.0        # seconds spent probing
        self._next = 0.0

    def maybe_probe(self) -> None:
        """Time the kernels if ``every_s`` has passed since the last probe.

        Call between timed operations, or subtract ``spent`` from a timing
        that encloses the call.
        """
        start = perf_counter()
        if start < self._next:
            return
        for kernel, times in zip(KERNELS, self.times):
            t = perf_counter()
            kernel()
            times.append(perf_counter() - t)
        self._next = perf_counter()
        self.spent += self._next - start
        self._next += self.every_s

    @property
    def probes(self) -> int:
        return len(self.times[0])

    def slowdown(self) -> float:
        """Mean kernel time over the reference: 1.3 means 30% slower."""
        means = [statistics.fmean(t) for t in self.times]
        return math.prod(means) ** (1 / len(means)) / REFERENCE_S
