"""Machine-speed calibration of the end-to-end timings.

On the shared 2-core machine this benchmark was built on, the speed of one
core drifts by tens of percent over tens of seconds: a fixed loop's 20-second
averages had a quartile spread of 29% of their median, and the same shiftlab
item took 64 ms to 131 ms within two minutes. Timings in seconds then differ
between runs of the same code by more than any change worth measuring.

So a fixed probe runs after every item, and each item's time is divided by
the median probe time around it: end-to-end timings are given in probe
units, i.e. how many probe durations an item took. Interleaved this way the
quartile spread of 15-second medians fell from 0.60 to 0.05. Set-up time
must be given in seconds; it is scaled to the speed at which the probe
takes `REFERENCE_PROBE_S`, from probes taken around each set-up.

The probe mixes the kinds of work shiftlab's time goes to: Fraction
arithmetic, 64-bit draws from `random.Random` and numpy array passes. It
calls no shiftlab code, so no change to shiftlab changes the unit. A change
to the probe changes the unit: measure the baseline again after one.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy as np

_ARRAY = np.arange(50_000)
# Probes on each side of an item that enter its speed estimate.
WINDOW = 2
# The probe's median duration on the machine the benchmark was built on
# (2 cores, Python 3.11, numpy 2.4). Set-up time is reported in seconds at
# this probe speed.
REFERENCE_PROBE_S = 0.0015


def probe() -> float:
    """Seconds taken by the fixed calibration work (about 2 ms)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
    rng = random.Random(5)
    total = 0
    for _ in range(5000):
        total += rng.getrandbits(64) % 7
    np.cumsum(_ARRAY)
    int((_ARRAY[1:] == _ARRAY[:-1]).sum())
    return time.perf_counter() - start


def probe_median(count: int = 5) -> float:
    return statistics.median(probe() for _ in range(count))


def probe_units(seconds: list[float], probes: list[float]) -> list[float]:
    """Each time over the median of the probes within WINDOW positions of it."""
    return [
        s / statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
        for i, s in enumerate(seconds)
    ]
