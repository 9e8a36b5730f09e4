"""How fast the machine runs right now, from a fixed piece of pure-Python work.

On a shared machine the speed of every piece of code drifts with the
load of other tenants: by 20 to 60% over minutes on one with 2 CPUs,
the same for every op kind.  The benchmark runs the short `loop_s`
right before every op, so the loop samples the machine wherever the
work runs, and reports a stretch of work at the reference speed: its
raw time * `to_reference(samples)`, where `samples` are the loop times
taken during it.  The loop is benchmark code, so a change to the
program cannot move it, and a program that gets slower still reads
slower.
"""

from __future__ import annotations

import gc
import statistics
import time

# about what loop_s() takes between ops on an idle 2-CPU machine (Python 3.11)
REFERENCE_S = 0.00018


def loop_s() -> float:
    """Seconds for dict and tuple arithmetic like polycore's inner loops."""
    gc_was_on = gc.isenabled()
    gc.disable()  # the program's heap must not decide when this loop collects
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(400):
            key = ((i % 7, i % 11, i % 13), (i % 3, 0))
            acc[key] = acc.get(key, 0) + i * i
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def to_reference(samples: list) -> float:
    """Factor that takes a time measured among `samples` to the reference speed.

    The mean, not the median: a slow phase that covers part of the work
    covers the same share of the samples taken among it.
    """
    return REFERENCE_S / statistics.fmean(samples)
