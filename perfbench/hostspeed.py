"""Host-speed calibration, so that timings compare across a shared host's moods.

On a few vCPUs of a shared host the same pure-Python work runs at very
different speeds from one second to the next (identical ops were seen to
take anywhere from 1x to 2x their fastest time, with minutes-long drifts
of 30 %), and CPU time moves with wall time, so neither measures the code
alone.  The benchmark therefore times a fixed calibration loop right before
and right after every op and every set-up, and scales the op's wall time by

    REFERENCE_S / (mean of the two calibration times)

A timing so scaled reads as milliseconds on a host where the loop takes
REFERENCE_S; a change to tmeshkit moves it as it moves wall time, while a
slowdown of the whole host moves the op and the loop alike and cancels.
The loop is stdlib-only Python of the kind tmeshkit's hot paths run (tuple
building, dict and set lookups, tuple comparisons) and does not touch
tmeshkit, so no change to the package can change it.  It runs with the
collector off and reports the best of a few repeats, so a collection or an
interrupt landing on it does not skew the scale.
"""

import gc
import time

# the loop's time on the reference host (the fastest it ran on a 2-vCPU
# shared host with Python 3.11); only sets the scale of reported times
REFERENCE_S = 0.35e-3
REPEATS = 3


def _loop() -> int:
    index = {}
    for i in range(400):
        key = (i % 17, (i * 7) % 23)
        entity = ((i, i + 1), (key[0], key[0]), (key[1], key[1] + 2))
        index.setdefault(key, []).append(entity)
    seen = set()
    inside = 0
    for key, entities in index.items():
        for entity in entities:
            if all(a <= lo and hi <= b
                   for (a, b), (lo, hi) in zip(entity, entity)):
                inside += 1
            seen.add(entity[0])
    return inside + len(seen)


def calibrate() -> float:
    """Seconds the calibration loop takes now: the best of REPEATS runs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """`wall_s` at reference host speed, from the calibrations around it."""
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)


class Stopwatch:
    """Times chunks of work, each between two calibrations, and sums them
    as measured (`wall_s`) and at reference host speed (`scaled_s`); for
    set-up, which is one long call unless it is cut into chunks."""

    def __init__(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def run(self, fn):
        before = calibrate()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.wall_s += wall
        self.scaled_s += scaled(wall, before, calibrate())
        return result
