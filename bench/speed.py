"""Machine speed, measured with a fixed pure-Python loop.

On a shared machine the speed of pure-Python code can change within seconds
(by up to about 1.8x on a shared 2-core virtual machine).  Every
timed step is bracketed by runs of the loop below, and its time is reported
in reference seconds: measured seconds x REFERENCE_S / (the loop's time
around the step).  A reference second is a second on a machine that runs the
loop in exactly REFERENCE_S.  The loop does exact rational arithmetic with
``fractions.Fraction``, as the program does, but does not use ainfbench, so a
change to the program under test moves the step times and not the loop.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.01
ROUNDS = 1500


def _loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, ROUNDS):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return total


def calibrate() -> tuple:
    """(wall, cpu) seconds of one run of the loop, with the cyclic garbage
    collector held off so that the program's garbage is not collected here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        _loop()
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if enabled:
            gc.enable()
