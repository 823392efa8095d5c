"""Scale measured times to a nominal host speed.

The host this benchmark was built on is shared.  Each of its two CPUs
runs a fixed pure-Python loop at one of two speeds about 1.5x apart,
and a speed can last from a fraction of a second to longer than a whole
run, so raw times of the same work differ between runs by up to that
factor.  The benchmark therefore pins itself and its children to one
CPU and runs a fixed reference kernel right before and right after each
timed operation; the operation's time is multiplied by NOMINAL_S over
the kernel's mean time, so times read as on a host where the kernel
takes NOMINAL_S.  The kernel is benchmark code: a change to tonnetz
moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import os
from time import perf_counter

NOMINAL_S = 1e-3
_RADIUS = 14
_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _kernel() -> int:
    """Breadth-first search over a hexagonal ball of lattice points."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    for _ in range(_RADIUS):
        nxt = []
        for p, q in frontier:
            for dp, dq in _STEPS:
                v = (p + dp, q + dq)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen)


def pin() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def factor() -> float:
    """NOMINAL_S over the kernel's time now, timed on its second, warm run."""
    _kernel()
    t0 = perf_counter()
    _kernel()
    return NOMINAL_S / (perf_counter() - t0)


def measure(fn, *args):
    """(fn(*args), scaled seconds it took)."""
    before = factor()
    t0 = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - t0
    return result, seconds * (before + factor()) / 2
