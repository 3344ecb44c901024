"""Host-speed calibration: the benchmark's times are in reference seconds.

On a shared host the machine's speed drifts: the same fixed job takes 20-30%
longer for minutes at a time, and ``process_time`` moves with wall time, so no
statistic over one run's jobs can tell a slower program from a busier host.
So a fixed loop of the benchmark's own, in the style of metriclie's exact
arithmetic (``Fraction`` Gauss-Jordan elimination on nested lists), is timed
next to the work in the same process, and each wall time ``t`` is reported as

    t * REFERENCE_S / (median time of the loop around t)

that is, in seconds of a host on which the loop takes REFERENCE_S.  A change
to metriclie cannot move the loop, so a faster program still reads faster,
while a slower spell of the host slows the loop and the work alike.
"""

import statistics
import time
from fractions import Fraction

# About the loop's median time on the 2-core KVM host of the reference
# figures in README.md, so that reference seconds read close to wall seconds
# there.
REFERENCE_S = 0.020
SAMPLES = 3  # loop timings per calibration

_N = 7
_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(_N)]
           for i in range(_N)]


def _rref(rows):
    m = [row[:] for row in rows]
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m


def loop():
    """The fixed work: a few eliminations of one rational matrix, with its inverse."""
    wide = [row + [Fraction(int(i == j)) for j in range(_N)] for i, row in enumerate(_MATRIX)]
    for _ in range(6):
        out = _rref(wide)
    return out


def sample():
    """Time the loop SAMPLES times; returns the list of times."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return times


def scale(times):
    """The factor that turns wall seconds measured beside ``times`` into reference seconds."""
    return REFERENCE_S / statistics.median(times)
