"""A fixed pure-Python workload that measures the host's current speed.

On a shared host the speed a process gets changes by up to 2x, within a
second and, on average, over minutes, so two runs of the same code can
differ by a third in wall time.  :func:`reference_loop` is timed before
the first job of a pass and after every job, for a quarter of that
job's time (at least one run, 0.012-0.025 s), so that its samples
average over the host's jitter the way a job does; set-up builds are
bracketed the same way.  :func:`at_nominal_speed_of` divides a wall
time by the mean of the reference times on either side of it, which
cancels the drift, and multiplies by :data:`NOMINAL_S`, so that it reads
as seconds on an uncontended host.  The loop is the benchmark's own code
and never calls the program, so a change to the program cannot move it.

It does what a discrete-event simulator spends its time on: a heap of
timed events, attribute reads and float updates on a graph of small
objects, and dictionary counters.  It runs with the cyclic garbage
collector paused, so its time does not depend on how large the
program's own heap is.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: The reference loop's time on an uncontended host: the 2-vCPU Intel
#: Xeon VM the benchmark was written on, at its fastest.  Times scaled by
#: this over the reference time measured next to them are the seconds
#: the work would take there.
NOMINAL_S = 0.012

NODES = 400
FANOUT = 4
EVENTS = 2000
STEPS = 10000


class _Node:
    __slots__ = ("name", "value", "links")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.links = []


def _simulate() -> int:
    rng = random.Random(7)
    nodes = [_Node(f"n{i}") for i in range(NODES)]
    for node in nodes:
        node.links = [nodes[rng.randrange(NODES)] for _ in range(FANOUT)]
    counts = {}
    heap = [(rng.random(), i) for i in range(EVENTS)]
    heapq.heapify(heap)
    for _ in range(STEPS):
        now, i = heapq.heappop(heap)
        node = nodes[i % NODES]
        for other in node.links:
            other.value += 0.5 * node.value + 1.0
        counts[node.name] = counts.get(node.name, 0) + 1
        heapq.heappush(heap, (now + rng.random(), i))
    return len(counts)


def reference_loop(at_least_s: float = 0.0) -> float:
    """Run the reference workload until ``at_least_s`` seconds have gone
    (at least once); return the mean wall time of one run in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs, start = 0, time.perf_counter()
        while True:
            _simulate()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= at_least_s:
                return elapsed / runs
    finally:
        if enabled:
            gc.enable()


def at_nominal_speed_of(
    wall_s: float, ref_before: float, ref_after: float
) -> float:
    """``wall_s`` scaled to the nominal host speed by the reference times
    measured just before and just after it."""
    return wall_s * NOMINAL_S / ((ref_before + ref_after) / 2.0)
