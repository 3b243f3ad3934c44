"""Machine-speed calibration.

This sandbox's effective speed swings by 10-30 % for minutes at a
time (a fixed pure-Python kernel measured 7-12 ms in one afternoon),
which no number of repetitions inside one run averages away.  Every
repetition therefore times a fixed, benchmark-owned kernel right
before and right after each region it measures; wall metrics are
reported *at nominal speed*: a time is multiplied by
``speed = NOMINAL_KERNEL_S / kernel time`` and a rate divided by it.
The kernel shares nothing with the program under test, so the factor
depends on the machine's state only, never on the commit being
measured.  ``machine.speed`` and the unscaled ``raw.wall_ops_per_s``
are reported per layer so the scaling can always be undone.  A
repetition whose two kernel times disagree by more than
:data:`MAX_DRIFT` straddled a change of machine state; it is set aside
and repeated (and counted in the output).
"""

from __future__ import annotations

import time

#: The kernel's time on this box when it is quiet.  On another machine
#: this is only a constant scale factor on every wall metric.
NOMINAL_KERNEL_S = 0.0070

#: Kernel runs per measurement; the fastest is the machine's speed
#: (anything slower was interrupted).
RUNS = 5


def _kernel() -> int:
    """Dictionary traffic plus 4 KB copies and compares — the same
    mix of interpreter and memory work as the program under test."""
    table = {}
    block = bytes(4096)
    same = 0
    for i in range(60000):
        table[i & 1023] = i
        if not i & 7:
            same += bytearray(block) == block
    return same


def kernel_seconds() -> float:
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def speed(before: float, after: float) -> float:
    """Machine speed over a region bracketed by two kernel times:
    1.0 on the quiet box, 0.7 during a slow spell."""
    return NOMINAL_KERNEL_S * 2 / (before + after)


def drift(before: float, after: float) -> float:
    """How far the two bracketing kernel times disagree.  Beyond
    :data:`MAX_DRIFT` the machine changed state inside the region, no
    single factor describes it, and the parent repeats the
    repetition."""
    return abs(before - after) / min(before, after)


MAX_DRIFT = 0.15
