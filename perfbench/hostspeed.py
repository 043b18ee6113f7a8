"""The host's speed, read from a fixed calibration loop beside the program.

The reference host is a small VM on a shared machine: other tenants slow
this process's CPU by up to 1.8x, for spells of a fraction of a second to
minutes, and process CPU time slows with it, so neither wall time nor CPU
time of one run is steady.  :func:`calibration_ns` times a fixed
pure-Python loop (dicts, tuples, strings, f-strings, method calls: the
operations the program's hot path is made of) that never touches the
program.  The run brackets every slice of its timed phase and every
set-up with it, and scales each slice's times by :func:`speed` of the
calibrations around it: ``CAL_REF_NS`` over the time the loop took.  A
figure so scaled reads as it would on the reference host running at the
speed it had when ``CAL_REF_NS`` was taken; a change to the program moves
it exactly as it moves the raw figure, since the loop is the same code on
both sides of any change.
"""

from __future__ import annotations

from time import perf_counter_ns

#: calibration loop passes per reading (1 to 2 ms on the reference host)
PASSES = 4
#: nanoseconds one reading took on the reference host in a quiet spell
CAL_REF_NS = 1_050_000


def _calibration_pass() -> str:
    out = []
    for i in range(300):
        d = {"a": i, "b": str(i), "c": (i, i + 1)}
        out.append(f"{d['b']}-{len(d)}")
    counts = {}
    for i in range(1000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return "".join(out)


def calibration_ns() -> int:
    """Wall time of ``PASSES`` passes of the calibration loop."""
    started = perf_counter_ns()
    for _ in range(PASSES):
        _calibration_pass()
    return perf_counter_ns() - started


def speed(before_ns: int, after_ns: int) -> float:
    """The host's speed over an interval bracketed by two readings:
    1.0 at the reference speed, below 1 when the host runs slower."""
    return CAL_REF_NS / ((before_ns + after_ns) / 2.0)
