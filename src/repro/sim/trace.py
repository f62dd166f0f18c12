"""Execution tracing and schedule-validity audits.

A :class:`TraceRecorder` collects every contiguous execution segment of a
run as ``(worker, job, node, start, end)`` rows, stored as five numpy
columns.  The compiled loops hand it whole blocks of rows
(:meth:`TraceRecorder.extend`); the Python reference engines and
hand-built traces add one row at a time (:meth:`TraceRecorder.record`).
:mod:`repro.metrics.overheads` counts from the columns; the
:func:`audit_trace` function reads the :class:`TraceInterval` view and
re-derives, from the trace alone, that the schedule was *feasible*:

1. no processor runs two nodes at once,
2. at most ``m`` processors run at any instant,
3. a node runs on at most one processor at a time,
4. every node receives exactly its processing time (scaled by speed),
5. no node starts before all its predecessors finish,
6. no node starts before its job arrives.

Tests run audits on small instances of every scheduler; the engines
themselves never rely on the trace, so auditing is a genuinely
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dag.job import JobSet

#: Tolerance for interval arithmetic in time units.
_EPS = 1e-6

#: Column dtypes, in row order: worker, job, node, start, end.
_DTYPES = (np.int64, np.int64, np.int64, np.float64, np.float64)


@dataclass(frozen=True)
class TraceInterval:
    """One contiguous execution segment of one node on one processor."""

    worker: int
    job_id: int
    node: int
    start: float
    end: float


class TraceRecorder:
    """Accumulates execution intervals during a simulated run.

    Recording is append-only, in recording order: :meth:`record` adds
    one segment, :meth:`extend` a block of them.  Zero-length segments
    are ignored by both.  The rows live in growable numpy columns
    (:meth:`columns`); :attr:`intervals` builds :class:`TraceInterval`
    objects only when read.
    """

    def __init__(self) -> None:
        self._n = 0
        self._cols = [np.empty(0, dtype=dtype) for dtype in _DTYPES]
        self._view: Optional[List[TraceInterval]] = None

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows (capacity doubles)."""
        need = self._n + extra
        cap = len(self._cols[0])
        if need > cap:
            cap = max(need, 2 * cap, 256)
            for c, col in enumerate(self._cols):
                grown = np.empty(cap, dtype=col.dtype)
                grown[: self._n] = col[: self._n]
                self._cols[c] = grown
        self._view = None

    def record(
        self, worker: int, job_id: int, node: int, start: float, end: float
    ) -> None:
        """Record that ``worker`` ran ``(job_id, node)`` over ``[start, end)``."""
        if end - start <= 0.0:
            return
        self._reserve(1)
        n = self._n
        for col, value in zip(self._cols, (worker, job_id, node, start, end)):
            col[n] = value
        self._n = n + 1

    def extend(
        self,
        worker: np.ndarray,
        job_id: np.ndarray,
        node: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
    ) -> None:
        """Record a block of segments, in order: :meth:`record` per row.

        The five arrays are parallel; rows with ``end - start <= 0`` are
        dropped, as :meth:`record` drops them.
        """
        block = [np.asarray(a) for a in (worker, job_id, node, start, end)]
        keep = (block[4] - block[3]) > 0.0
        if not keep.all():
            block = [a[keep] for a in block]
        k = len(block[0])
        if k == 0:
            return
        self._reserve(k)
        n = self._n
        for col, values in zip(self._cols, block):
            col[n : n + k] = values
        self._n = n + k

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The rows as five columns: worker, job, node, start, end.

        Read-only views of the rows recorded so far, in recording order
        (appends never write inside them).
        """
        views = []
        for col in self._cols:
            view = col[: self._n]
            view.flags.writeable = False
            views.append(view)
        return tuple(views)

    @property
    def intervals(self) -> List[TraceInterval]:
        """All recorded segments, in recording order."""
        if self._view is None:
            self._view = [
                TraceInterval(*row)
                for row in zip(*(col.tolist() for col in self.columns()))
            ]
        return self._view

    def intervals_of(self, job_id: int, node: int) -> List[TraceInterval]:
        """Segments of a particular node, sorted by start time."""
        return sorted(
            (iv for iv in self.intervals if iv.job_id == job_id and iv.node == node),
            key=lambda iv: iv.start,
        )

    def busy_time(self) -> float:
        """Total processor-time spent executing (sum of segment lengths)."""
        return sum(iv.end - iv.start for iv in self.intervals)


def _check_disjoint(
    intervals: List[Tuple[float, float]], label: str
) -> None:
    """Assert a set of intervals is pairwise non-overlapping."""
    intervals.sort()
    for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1 - _EPS, (
            f"{label}: interval starting {s2} overlaps one ending {e1}"
        )


def audit_trace(
    trace: TraceRecorder,
    jobset: JobSet,
    m: int,
    speed: float,
) -> None:
    """Verify feasibility of a traced schedule; raises ``AssertionError``.

    See the module docstring for the list of checks.  The audit assumes
    the run completed (every node of every job appears in the trace).
    """
    ivs = trace.intervals

    # (1) per-processor exclusivity
    by_worker: Dict[int, List[Tuple[float, float]]] = {}
    for iv in ivs:
        by_worker.setdefault(iv.worker, []).append((iv.start, iv.end))
    for w, spans in by_worker.items():
        _check_disjoint(spans, f"worker {w}")

    # (2) global concurrency bound: sweep over start/end events
    events: List[Tuple[float, int]] = []
    for iv in ivs:
        events.append((iv.start, 1))
        events.append((iv.end, -1))
    events.sort(key=lambda e: (e[0], e[1]))  # ends before starts at ties
    running = 0
    for _t, delta in events:
        running += delta
        assert running <= m, f"more than m={m} processors busy simultaneously"

    # (3)+(4) per-node: exclusivity and exact service
    per_node: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for iv in ivs:
        per_node.setdefault((iv.job_id, iv.node), []).append((iv.start, iv.end))

    node_first_start: Dict[Tuple[int, int], float] = {}
    node_last_end: Dict[Tuple[int, int], float] = {}
    for key, spans in per_node.items():
        _check_disjoint(spans, f"node {key}")
        node_first_start[key] = min(s for s, _ in spans)
        node_last_end[key] = max(e for _, e in spans)
        job_id, node = key
        want = jobset[job_id].dag.works[node] / speed
        got = sum(e - s for s, e in spans)
        assert abs(got - want) <= _EPS * max(1.0, want), (
            f"node {key} received {got} time units of service, expected {want}"
        )

    # completeness: every node of every job must appear
    for job in jobset:
        for v in range(job.dag.n_nodes):
            assert (job.job_id, v) in per_node, (
                f"node ({job.job_id}, {v}) never executed"
            )

    # (5) precedence and (6) release times
    for job in jobset:
        for v in range(job.dag.n_nodes):
            start = node_first_start[(job.job_id, v)]
            assert start >= job.arrival - _EPS, (
                f"node ({job.job_id}, {v}) started at {start} before "
                f"arrival {job.arrival}"
            )
            for u in job.dag.successors[v]:
                pred_end = node_last_end[(job.job_id, v)]
                succ_start = node_first_start[(job.job_id, u)]
                assert succ_start >= pred_end - _EPS, (
                    f"node ({job.job_id}, {u}) started at {succ_start} "
                    f"before predecessor {v} finished at {pred_end}"
                )
