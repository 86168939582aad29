"""Machine-speed probe, so that timings survive a shared, changing host.

On a host shared with other tenants the same op can take twice as long
for tens of seconds at a time, for every kind of code (measured on a
2-vCPU 2.1 GHz Xeon guest: a closed-form scan 10-21 ms, an oracle search
20-35 ms, a fixed kernel 1.7-3.1 ms).  Averaging within a run cannot
remove that, because a slow spell can outlast the run.  So the benchmark
times a fixed kernel between every two ops and divides each op's wall
time by the kernel's slowdown around it: its time over ``REFERENCE_S``,
the kernel's time on an uncontended core of that host.  A sample costs
about 3 ms.  Sampling every 0.1 s or 0.25 s instead left the tail latency
of cli-requests (ops of about 11 ms) spreading 0.06-0.10 between seeds;
sampling around every op brought it under 0.03.

The kernel mixes the two kinds of work the library does: a Python loop
of square roots like the closed-form scans, and a batch of 4x4 Hermitian
eigensolves like the oracle.  It is the benchmark's own code, so a change
to the library cannot change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 1.5e-3


def _profile(s: float) -> float:
    form = 0.3 * (1.0 - s) + 0.2 * s
    u = s * (1.0 - s)
    return sum(math.sqrt(form * form + 4.0 * u * g * g) for g in (0.4, 0.1))


class SpeedProbe:
    """Times the kernel on demand and reports the slowdown it shows."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(384, 4, 4)) + 1j * rng.normal(size=(384, 4, 4))
        self._batch = a + a.conj().swapaxes(1, 2)

    def _kernel_seconds(self) -> float:
        start = time.perf_counter()
        max(_profile(i / 999) for i in range(1000))
        np.linalg.eigvalsh(self._batch)
        return time.perf_counter() - start

    def sample(self) -> float:
        """Time the kernel twice and keep the faster, which drops a sample
        hit by an interrupt.  Returns the slowdown factor."""
        return min(self._kernel_seconds(), self._kernel_seconds()) / REFERENCE_S
