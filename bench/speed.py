"""Machine-speed probe used to scale timings to a reference speed.

Shared virtual machines change speed by up to a third within seconds (on a
shared 2-vCPU x86 VM the same loop took either about 1.45 ms or about
2.05 ms, switching every few seconds, independently on the two vCPUs), so
wall times of identical work spread by 25-40 % between runs.
The worker times a fixed probe work right before and after every timed
segment of items and multiplies the segment's item times by
``REF_PROBE_S / probe time``: the result is the time the items would have
taken on a machine where the probe takes REF_PROBE_S.

The probe mixes the kinds of work the program does (float arithmetic in
Python, ``%.17g`` formatting, list and dict operations, small numpy
operations) because its slowdown has to match the workloads' slowdown: a
plain integer loop slows down less than they do and left a 20 % spread in
the scaled times of single items, small_work about 7 % on end-verify and
13 % on mesh-emit, whose multi-megabyte texts slow down more still.
The probes run no trinoids code, so a change to the program cannot change
the scale.
"""

from __future__ import annotations

import math
import time

import numpy as np

PROBE_REPS = 3


def small_work() -> None:
    """About 7 ms of mixed Python and small-numpy work on the machine above."""
    rows, table = [], {}
    x = 0.1
    for i in range(3000):
        x = math.sin(x + i) * 1.0000001
        rows.append("%.17g" % x)
        table[i % 97] = x
    "\n".join(rows)
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, -1.0, 2.0])
    for _ in range(150):
        a = a + 1e-9 * np.cross(a, b)
        np.linalg.norm(a)


#: small_work's time at the reference speed.
REF_PROBE_S = 7.0e-3


def probe() -> float:
    """Seconds small_work takes now: the median of PROBE_REPS timings, so
    that one interruption does not set the scale."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        small_work()
        times.append(time.perf_counter() - start)
    return sorted(times)[PROBE_REPS // 2]


def scale(before: float, after: float) -> float:
    """Factor from wall time to time at the reference speed, given the probe
    times before and after a timed segment."""
    return REF_PROBE_S / (0.5 * (before + after))
