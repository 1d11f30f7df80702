"""The calibration loop that measures the host's current speed.

It runs no eaqmds code, so no change to the program can move it.  The
benchmark times it in the parent around each child, and child.py times it
in a background thread every SAMPLE_INTERVAL_S while the CLI runs.
"""

import time

SAMPLE_INTERVAL_S = 0.25
_TABLE = list(range(256))  # small, so a cold cache barely changes the time


def loop_ns() -> int:
    """Wall ns of a fixed pure-Python loop on the current CPU."""
    tab = _TABLE
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(10_000):
        acc += tab[(i * 7919) & 0xFF] * i % 7
    return time.perf_counter_ns() - t0
