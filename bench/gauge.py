"""Host speed, gauged by a fixed kernel that does not touch nsverify.

The benchmark runs on a share of a virtual machine whose speed swings by up
to 1.8 times within seconds: a fixed FFT loop pinned to one CPU took 67 ms,
then 133 ms, then 70 ms within one minute, in user time as much as in wall
time. A worker runs :func:`kernel` after each snapshot, on the same CPU, and
leaves its time out of the workload's timings; ``run.py`` then scales every
timing of the run by ``REFERENCE_MS`` over the kernel's median time in that
run. The figures read as seconds on a machine where the kernel takes
``REFERENCE_MS``, which is about its median on the 2-vCPU Intel Xeon KVM
guest the benchmark was tuned on.

The kernel mixes interpreted Python with small FFTs and elementwise numpy
work, as the n=32 workloads do. It uses only numpy and scipy, so a change
to nsverify does not change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

REFERENCE_MS = 1.2

_FIELD = np.random.default_rng(0).standard_normal((3, 16, 16, 16))


def kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(3):
        coeffs = scipy.fft.rfftn(_FIELD, axes=(1, 2, 3), workers=1)
        scipy.fft.irfftn(coeffs * 0.5, s=_FIELD.shape[1:], axes=(1, 2, 3), workers=1)
    return total


class Gauge:
    """Kernel times, one per :meth:`tick`, and the seconds the ticks took."""

    def __init__(self):
        kernel()  # plans and caches, untimed
        self.times: list[float] = []
        self.spent_s = 0.0

    def tick(self) -> None:
        # the first call brings the kernel's data back into the caches the
        # workload used; only the second is timed, so that the time does not
        # depend on what ran before it
        begin = time.perf_counter()
        kernel()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(end - start)
        self.spent_s += end - begin


def scale(kernel_s: float) -> float:
    """Factor that turns seconds measured at this kernel time into seconds at
    ``REFERENCE_MS``."""
    return REFERENCE_MS / (kernel_s * 1e3)
