"""Machine-speed normalization of measured times.

On a shared machine the same fixed work can take 0.9 s in one round and
1.5 s in the next, and whole runs drift by a quarter.  Each measured time
is therefore scaled by how fast a fixed pure-Python loop ran right before
and right after it: ``seconds * NOMINAL_S / mean(loop before, loop after)``.
That is the time the operation would take on a machine where the loop
takes ``NOMINAL_S``.  The loop is benchmark code, so a change to skewlab
cannot change it.
"""

import time

LOOP_N = 30_000
NOMINAL_S = 2.0e-3  # the loop's time on the reference machine (README.md)


def calibrate():
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += i * i
    return time.perf_counter() - t0


def normalized(seconds, loop_before, loop_after):
    return seconds * NOMINAL_S / (0.5 * (loop_before + loop_after))
