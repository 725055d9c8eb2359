"""Host-speed calibration: time a fixed piece of pure-Python work.

On a host shared with other tenants the CPU's speed drifts by 20-30% over
seconds to minutes, while a process's CPU time keeps tracking its wall
time: the process is not waiting, the CPU runs it slower. No choice of
median or run length removes a drift that slow. So every timed piece of
the benchmark sits between two calibrations, and its time is scaled by
``REFERENCE_S`` over their mean: it reads as the seconds it would take on
the host at the speed where ``calibrate()`` takes ``REFERENCE_S``.

The work is a dict-of-dicts graph build and walk, the kind of work hemln
does, with a working set of about 20 MB: at that size its time swings
with the host as the jobs' times do, where a smaller one swings more. It
does not touch hemln, so a change to the program moves the job's time and
not the calibration's.
"""
from __future__ import annotations

import random
import time

NODES = 30000
REFERENCE_S = 0.28  # about the fastest calibrate() on a 2-vCPU VM, Python 3.11


def calibrate() -> float:
    """Wall seconds for the fixed work."""
    started = time.perf_counter()
    rng = random.Random(1)
    adjacency = {n: {} for n in range(NODES)}
    for _ in range(3 * NODES):
        a, b = rng.randrange(NODES), rng.randrange(NODES)
        adjacency[a][b] = adjacency[a].get(b, 0) + 1
        adjacency[b][a] = adjacency[b].get(a, 0) + 1
    total = 0
    for a in range(NODES):
        for b, weight in adjacency[a].items():
            total += weight * len(adjacency[b])
    return time.perf_counter() - started


def scaled(seconds: float, calibrations) -> float:
    """``seconds`` at the reference speed, given the calibrations around it."""
    calibrations = list(calibrations)
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)
