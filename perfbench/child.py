"""One eaqmds CLI invocation in its own process, as the console script runs it.

    python3 perfbench/child.py [CLI ARGS...]      (PYTHONPATH=src)

Right after ``import eaqmds.cli`` returns, the child writes the
CLOCK_MONOTONIC time in ns and the path of the imported module as one line
to file descriptor 3, which the parent has opened; then it runs the CLI.
Meanwhile a daemon thread times the calibration loop every
``calib.SAMPLE_INTERVAL_S`` (about 0.35 % of the CPU), and the child writes
those times as a second line when the CLI returns.  With no CLI arguments
it only imports: a set-up probe.
"""

import os
import sys
import threading
import time

import calib
import eaqmds.cli

os.write(3, f"{time.monotonic_ns()} {eaqmds.cli.__file__}\n".encode())

samples: list[int] = []


def _sample_speed() -> None:
    while True:
        time.sleep(calib.SAMPLE_INTERVAL_S)
        samples.append(calib.loop_ns())


threading.Thread(target=_sample_speed, daemon=True).start()
code = 0
try:
    if len(sys.argv) > 1:
        code = eaqmds.cli.main(sys.argv[1:])
finally:
    os.write(3, f"{' '.join(map(str, samples))}\n".encode())
    os.close(3)
sys.exit(code)
