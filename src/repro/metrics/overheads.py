"""Scheduling-overhead accounting: preemptions, migrations, dispatches.

The paper motivates work stealing by the *implementation cost* of the
idealized FIFO: "an implementation of the ideal FIFO scheduler is likely
to have high overhead since it is centralized and potentially preempts
jobs and re-allocates processors at every time step" (Section 1).  The
simulator charges none of those costs -- so this module *counts* them
from execution traces, letting the ``ext-overheads`` bench put numbers
on the paper's motivation: how many preemptions and cross-worker
migrations FIFO's ideal schedule implies, against the steal count work
stealing actually pays.

Definitions (all derived from :class:`~repro.sim.trace.TraceRecorder`'s
columns):

* **dispatch** -- one contiguous execution segment (a node being placed
  on a processor);
* **preemption** -- a node suspended before completion (it has more than
  one segment; each extra segment is one preemption);
* **migration** -- a node resuming on a *different* processor than its
  previous segment ran on (a cache-state loss on real hardware);
* **reallocation events** -- instants where the set of (worker, node)
  assignments changes; the centralized scheduler needs a coordination
  round at each.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.sim.trace import TraceRecorder


def dispatch_count(trace: TraceRecorder) -> int:
    """Total execution segments (node placements on processors)."""
    return len(trace)


def _node_runs(trace: TraceRecorder) -> Tuple[np.ndarray, np.ndarray]:
    """Per adjacent pair of the (job, node, start)-sorted rows: whether
    both rows are segments of the same node, and whether their workers
    differ."""
    worker, job, node, start, _end = trace.columns()
    order = np.lexsort((start, node, job))
    job, node, worker = job[order], node[order], worker[order]
    same_node = (job[1:] == job[:-1]) & (node[1:] == node[:-1])
    return same_node, worker[1:] != worker[:-1]


def preemption_count(trace: TraceRecorder) -> int:
    """Suspensions of in-progress nodes (extra segments per node).

    Zero for any work-stealing run: stolen nodes are *ready*, never
    in-progress, so each node runs as one uninterrupted segment -- the
    structural reason the paper calls work stealing practical.
    """
    same_node, _ = _node_runs(trace)
    return int(np.count_nonzero(same_node))


def migration_count(trace: TraceRecorder) -> int:
    """Node resumptions on a different processor than their last segment."""
    same_node, moved = _node_runs(trace)
    return int(np.count_nonzero(same_node & moved))


def reallocation_event_count(trace: TraceRecorder) -> int:
    """Distinct instants at which some assignment starts or ends.

    The centralized scheduler must run a coordination round at each;
    a distributed runtime pays nothing here (its coordination is the
    steal attempts, counted by the engine's statistics).
    """
    # Python's round(), not np.round: the two round differently.
    _w, _j, _n, start, end = trace.columns()
    return len({round(x, 9) for x in start.tolist() + end.tolist()})


def overhead_report(trace: TraceRecorder) -> Dict[str, int]:
    """All overhead counters as a flat dict (keys stable for reports)."""
    return {
        "dispatches": dispatch_count(trace),
        "preemptions": preemption_count(trace),
        "migrations": migration_count(trace),
        "reallocation_events": reallocation_event_count(trace),
    }
