"""Machine speed, measured between ops, to scale the times the benchmark reports.

Other tenants of a shared host slow this process down by up to a half, for
seconds at a time, and shift a run's medians by as much.  The benchmark
therefore measures, between its ops, how fast the machine runs a fixed
piece of reference work, and multiplies each op's latency by the speed
measured around it: times are reported as they would be on a machine that
runs the reference work at its reference speed.  Speed 1 is that machine;
speed 0.5 means the reference work took twice its reference time.

The reference work matches the op: a pure-Python loop for ops that run in
the benchmark's process, and a bare interpreter start for ops that are
processes, whose cost the loop does not track.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from array import array

#: Reference loops per second on the reference machine.
REFERENCE_LOOPS_PER_S = 1600.0
#: Seconds of a bare `python -c pass` on the reference machine.
REFERENCE_START_S = 0.075

_XS = tuple(i / 97 for i in range(97))


def _reference_loop() -> float:
    # Fixed pure-Python work of the kind fuzzrel does (generators over
    # tuples of floats, min/max, comparisons), independent of fuzzrel.
    total = 0.0
    for r in range(0, 97, 6):
        ys = _XS[r:] + _XS[:r]
        total += max(min(x, y) for x, y in zip(_XS, ys))
        total += sum(x * y - 0.5 for x, y in zip(_XS, ys) if x <= y)
    return total


def loop_speed() -> float:
    """Speed from the fastest of three reference loops, so that a loop that
    was preempted does not count."""
    fastest = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        fastest = min(fastest, time.perf_counter() - start)
    return 1.0 / (fastest * REFERENCE_LOOPS_PER_S)


def process_speed() -> float:
    """Speed from one bare interpreter start."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return REFERENCE_START_S / (time.perf_counter() - start)


def scale(windows, speeds) -> array:
    """Scale latencies measured in windows between speed samples.

    speeds[i] was measured just before windows[i] and speeds[i + 1] just
    after it.  Each window is scaled by the median of the four samples
    nearest to it, which smooths out a single noisy sample.
    """
    scaled = array("d")
    for i, window in enumerate(windows):
        factor = statistics.median(speeds[max(0, i - 1):i + 3])
        scaled.extend(x * factor for x in window)
    return scaled
