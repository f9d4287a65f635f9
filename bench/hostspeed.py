"""Host-speed calibration of the timings.

On a shared host the speed of a core drifts by a third within minutes, as
neighbours come and go: a fixed numpy loop timed in 5-second windows read
27 to 38 ms on the 2-core machine the bounds were set on, and the wall time
of `import suptest` read 0.45 to 0.90 s between runs minutes apart. Every
timed operation is therefore bracketed by two probes of a fixed reference
kernel that does not touch the program: Philox normal draws, the normal
CDF, argmin and sort over 100,000 values, and an interpreter loop, the
kinds of work the program does. The operation's wall time is scaled by
REF_S / (mean probe time), giving *reference seconds*: the time the
operation would take on a host that runs the kernel in REF_S. The program
cannot change the kernel, so the scaling removes host drift and nothing
else. Measured there, it cut the spread of 25-round medians of
`library-small` round times from 0.12 to 0.04.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

REF_S = 0.008


def _kernel() -> float:
    t0 = time.perf_counter()
    z = np.random.Generator(np.random.Philox(12345)).normal(size=100_000)
    special.ndtr(z)
    np.argmin(z)
    np.sort(z)
    s = 0
    for i in range(100_000):
        s += i
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds of one pass of the reference kernel, the least of three."""
    return min(_kernel() for _ in range(3))


def to_reference(wall: float, before: float, after: float) -> float:
    """Wall seconds bracketed by probes `before` and `after`, in reference
    seconds."""
    return wall * REF_S * 2.0 / (before + after)


def timed(fn):
    """(wall seconds, reference seconds, result) of fn()."""
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return wall, to_reference(wall, before, probe()), out
