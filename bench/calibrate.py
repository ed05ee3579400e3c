"""Host-speed probe: a fixed reference workload timed next to the operations.

The same code runs on a shared host at speeds that differ by up to a factor
of two, in stretches from seconds to minutes (see README, "Host speed").  The
benchmark therefore times a fixed probe in bursts next to its operations and
scales every reported time to a reference host on which one probe takes
`REF_PROBE_S`: a time measured next to a burst whose mean probe time is p
reads `time * REF_PROBE_S / p`.  The probe imports nothing from
mathieuseries, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time of the reference host (this one, in its usual state, takes 4-5.5 ms).
REF_PROBE_S = 5e-3

_K = np.arange(1.0, 1.0 + (1 << 16))


def probe() -> float:
    """Seconds of a pure-Python float loop plus a numpy power-kernel pass."""
    start = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += 1.0 / (i * i + 3.5)
    for _ in range(2):
        float(((_K * _K + 9.0) ** -2.5).sum())
    return time.perf_counter() - start


def burst(n: int) -> list[float]:
    return [probe() for _ in range(n)]


def slowness(probes: list[float]) -> float:
    """How much slower than the reference host the host ran during a burst."""
    return statistics.fmean(probes) / REF_PROBE_S
