"""Event-driven engine for centralized preemptive schedulers.

FIFO (Section 3), BWF (Section 7) and the list-scheduling baselines all
share one structure: at every instant, order the active jobs by a static
priority, then hand processors to ready nodes job-by-job in that order
until processors or ready nodes run out.  Because the priority of a job
never changes while it is alive, the processor assignment can only change
at a *job arrival* or a *node completion* -- so the engine jumps directly
between those events instead of stepping time, which is exact and keeps
the run cost proportional to the number of nodes, not the schedule length.

Two implementations of the one loop:

* the compiled loop (``repro_centralized_run`` in
  ``src/repro/sim/_batch_kernel.c``), which every static-priority run
  takes: Python evaluates the priority key once per job, ranks the jobs
  by ``(key, job_id)`` -- the order the Python loop's sorted insertion
  keeps -- and the C loop walks the CSR tables of
  :func:`~repro.dag.flat.flatten_jobset` (cached on the JobSet) with
  that rank;
* :func:`_run_centralized_reference`, the Python loop, which is the
  oracle, runs ``dynamic=True`` policies (LAS, SRW) and runs everything
  on a host where the kernel cannot be built (warned once, like the
  work-stealing fallback).

**Float contract.**  The C loop does the Python loop's float operations
in the same order -- ``dt = min(rem) / speed``, the arrival cap, the
clamp to ``>= 0``, ``t + dt``, ``speed * dt``, ``busy += delta *
len(assigned)``, ``rem -= delta`` and the :data:`EPS` tests -- and is
built with ``-ffp-contract=off``, so completions compare with ``==``.
Each job's ready-node order matches too, so traced runs record the same
``(slot, job, node, start, end)`` rows
(``tests/sim/test_centralized_kernel_equivalence.py`` pins all of it).

The engine enforces non-clairvoyance structurally: the priority key sees
only arrival metadata (id, arrival time, weight) unless a policy opts into
clairvoyance explicitly (see :mod:`repro.core.greedy`).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.dag.flat import FlatInstance, flatten_jobset
from repro.dag.job import Job, JobSet
from repro.sim._cext import (
    C_N_EVENTS,
    C_NROWS,
    CF_BUSY,
    CR_STALLED,
    CR_TRACE_FULL,
    N_CFSTATE,
    N_CSTATE,
    resolve_centralized_kernel,
)
from repro.sim.batch_engine import _batch_tables, _ptr, _warn_slow_path
from repro.sim.jobstate import JobExecution
from repro.sim.result import ScheduleResult, SimulationStats
from repro.sim.trace import TraceRecorder

#: Comparison tolerance for event times and remaining work, in work units.
#: Node works are integers and speeds are small rationals, so genuine
#: event-time gaps are never this small.  The C loop's EPS is the same.
EPS = 1e-9

#: Rows of the compiled loop's trace buffer (at least ``m`` are used):
#: Python drains it into the TraceRecorder, one block append each time
#: it fills.
TRACE_ROWS = 4096

PriorityKey = Callable[[JobExecution], Tuple]


def _fifo_key(je: Any) -> Tuple:
    return (je.arrival, je.job_id)


class _JobView:
    """What a static priority key may read: a job's arrival metadata."""

    __slots__ = ("job", "job_id", "arrival", "weight")

    def __init__(self, job: Job) -> None:
        self.job = job
        self.job_id = job.job_id
        self.arrival = job.arrival
        self.weight = job.weight


def _ranks(jobset: JobSet, priority_key: PriorityKey) -> np.ndarray:
    """Each job's service rank: its place in ``(key, job_id)`` order.

    The key is evaluated once per job, on a :class:`_JobView`; the
    order is the one the Python loop's ``insort`` keeps ``active`` in.
    """
    keys = [(priority_key(_JobView(job)), job.job_id) for job in jobset]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys), dtype=np.int64)
    return rank


def run_centralized(
    jobset: JobSet,
    m: int,
    speed: float = 1.0,
    priority_key: Optional[PriorityKey] = None,
    scheduler_name: str = "centralized",
    trace: Optional[TraceRecorder] = None,
    dynamic: bool = False,
) -> ScheduleResult:
    """Simulate a centralized priority scheduler exactly.

    Parameters
    ----------
    jobset:
        The instance (jobs in arrival order).
    m:
        Number of identical processors.
    speed:
        Processor speed ``s >= 1`` (resource augmentation).  A node of
        work ``w`` occupies one processor for ``w / s`` time units.
    priority_key:
        Maps a job to a sortable tuple; *lower sorts first* and is
        served first.  Must be static over a job's lifetime: it is
        evaluated once per job, on a view holding only ``job``,
        ``job_id``, ``arrival`` and ``weight``.  Defaults to FIFO order
        ``(arrival, job_id)``.  With ``dynamic=True`` it receives the
        live :class:`JobExecution` at every event instead.
    scheduler_name:
        Label stored on the result.
    trace:
        Optional :class:`TraceRecorder`; when given, every contiguous
        (node, processor-slot) execution segment is recorded for
        invariant auditing.
    dynamic:
        Set to True when ``priority_key`` can change over a job's
        lifetime (e.g. least-attained-service reads
        ``JobExecution.attained``, SRPT reads remaining work).  The
        engine then re-sorts the active set at every event instead of
        maintaining a static insertion order, and caps the inter-event
        step at a one-work-unit scheduling quantum: continuously
        drifting priorities (LAS) can cross *between* completions, and
        the quantum bounds how stale an assignment can get -- the
        standard discrete approximation of processor-sharing-style
        policies.

    Returns
    -------
    ScheduleResult
        Per-job completion times and aggregate statistics
        (``stats.n_events`` counts scheduling events processed,
        ``stats.busy_steps`` the total work executed).

    Notes
    -----
    Static priorities run on the compiled loop when the kernel builds
    (see the module docstring); ``dynamic=True`` and hosts without the
    kernel run :func:`_run_centralized_reference`.  Both give the same
    completions, stats and trace rows; the result's ``path`` and
    ``reasons`` say which one ran and why.

    Within a job, ready nodes are assigned deterministically: nodes with
    partial progress first (avoiding gratuitous preemption churn), then by
    node id.  The paper allows an arbitrary choice here (Section 3), so
    any fixed rule reproduces the analyzed algorithm.
    """
    if m < 1:
        raise ValueError(f"need at least one processor, got m={m}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if priority_key is None:
        priority_key = _fifo_key

    kernel = None if dynamic else resolve_centralized_kernel()
    if kernel is None:
        reasons = ("dynamic=True",) if dynamic else ("kernel=unavailable",)
        if not dynamic:
            _warn_slow_path()
        result = _run_centralized_reference(
            jobset, m, speed, priority_key, scheduler_name, trace, dynamic
        )
        result.reasons = reasons
        return result
    completions, n_events, busy_work = _run_centralized_flat(
        kernel,
        flatten_jobset(jobset),
        m,
        speed,
        _ranks(jobset, priority_key),
        trace,
    )
    stats = SimulationStats()
    stats.n_events = n_events
    stats.busy_steps = int(round(busy_work))
    return ScheduleResult(
        scheduler=scheduler_name,
        m=m,
        speed=speed,
        arrivals=np.asarray(jobset.arrivals, dtype=np.float64),
        completions=completions,
        weights=np.asarray(jobset.weights, dtype=np.float64),
        stats=stats,
        path="cext",
    )


def _run_centralized_flat(
    fn: Any,
    flat: FlatInstance,
    m: int,
    speed: float,
    rank: np.ndarray,
    trace: Optional[TraceRecorder] = None,
) -> Tuple[np.ndarray, int, float]:
    """Run the compiled loop ``fn`` on ``flat`` with per-job service ranks.

    Returns the completions, the event count and the executed work
    before rounding.  Raises :class:`ValueError` on a malformed
    instance (bad CSR arrays, unsorted arrivals, a cyclic job) or a
    rank array of the wrong length.
    """
    tables = _batch_tables(flat)
    n = flat.n_jobs
    if not tables.sorted_ok:
        raise ValueError(
            "malformed FlatInstance: arrivals must be non-decreasing"
        )
    rank = np.ascontiguousarray(rank, dtype=np.int64)
    if len(rank) != n:
        raise ValueError(f"need one rank per job ({n}), got {len(rank)}")
    n_nodes = flat.n_nodes
    max_job = int(tables.unfin_master.max()) if n else 0
    ws = np.empty(3 * n_nodes + 5 * n + 2 * m + max_job, dtype=np.int64)
    rem = np.empty(n_nodes, dtype=np.float64)
    completions = np.zeros(n, dtype=np.float64)
    cap = max(TRACE_ROWS, m) if trace is not None else 0
    rows = np.empty((cap, 3), dtype=np.int64)
    times = np.empty((cap, 2), dtype=np.float64)
    state = np.zeros(N_CSTATE, dtype=np.int64)
    fstate = np.zeros(N_CFSTATE, dtype=np.float64)
    args = [
        _ptr(tables.works), _ptr(tables.eo), _ptr(tables.et),
        _ptr(flat.job_node_offsets), _ptr(tables.preds_master),
        _ptr(tables.roots), _ptr(tables.jro), _ptr(flat.arrivals),
        _ptr(rank), _ptr(ws), _ptr(rem),
        _ptr(completions), _ptr(rows), _ptr(times),
        cap, n, n_nodes, int(m), float(speed), _ptr(state), _ptr(fstate),
    ]
    while True:
        rc = fn(*args)
        k = int(state[C_NROWS])
        if k:
            trace.extend(
                rows[:k, 0], rows[:k, 1], rows[:k, 2],
                times[:k, 0], times[:k, 1],
            )
            state[C_NROWS] = 0
        if rc != CR_TRACE_FULL:
            break
    if rc == CR_STALLED:
        raise ValueError(
            "malformed FlatInstance: a job has unfinished nodes but none "
            "ready (its DAG has a cycle)"
        )
    return completions, int(state[C_N_EVENTS]), float(fstate[CF_BUSY])


def _run_centralized_reference(
    jobset: JobSet,
    m: int,
    speed: float,
    priority_key: PriorityKey,
    scheduler_name: str = "centralized",
    trace: Optional[TraceRecorder] = None,
    dynamic: bool = False,
) -> ScheduleResult:
    """The centralized event loop in Python: the oracle.

    Same arguments as :func:`run_centralized`, already validated; the
    priority key receives the live :class:`JobExecution`.
    """
    n = len(jobset)
    completions = np.zeros(n, dtype=np.float64)
    arrivals = np.asarray(jobset.arrivals, dtype=np.float64)
    weights = np.asarray(jobset.weights, dtype=np.float64)
    stats = SimulationStats()

    # Active jobs, kept sorted by (priority_key, job_id); priorities are
    # static so sorting happens once per arrival via insort.
    active: List[Tuple[Tuple, int, JobExecution]] = []
    pending = list(jobset.jobs)  # already in arrival order
    next_arrival_idx = 0
    remaining_jobs = n

    t = pending[0].arrival if pending else 0.0
    busy_work = 0.0  # total work units executed, for the conservation audit

    while remaining_jobs > 0:
        # Release arrivals due at (or epsilon-before) the current time.
        while next_arrival_idx < n and pending[next_arrival_idx].arrival <= t + EPS:
            je = JobExecution(pending[next_arrival_idx])
            if dynamic:
                active.append(((), je.job_id, je))  # key recomputed below
            else:
                insort(active, (priority_key(je), je.job_id, je))
            next_arrival_idx += 1

        if not active:
            # System empty: jump to the next arrival.
            t = pending[next_arrival_idx].arrival
            continue

        if dynamic:
            # Mutable priorities: recompute and re-sort at every event.
            active.sort(key=lambda item: (priority_key(item[2]), item[1]))

        # ---- assignment: serve jobs in priority order ------------------
        assigned: List[Tuple[JobExecution, int]] = []
        avail = m
        for _, _, je in active:
            if avail == 0:
                break
            ready = je.ready
            if len(ready) > avail:
                # Prefer nodes with partial progress, then lowest id; the
                # sort is tiny (ready lists are short) and deterministic.
                works = je.job.dag.works
                rem = je.remaining_work
                chosen = sorted(ready, key=lambda v: (rem[v] >= works[v], v))[:avail]
            else:
                chosen = ready
            for v in chosen:
                assigned.append((je, v))
            avail -= len(chosen)

        # ---- next event time -------------------------------------------
        dt = min(je.remaining_work[v] for je, v in assigned) / speed
        if next_arrival_idx < n:
            dt_arrival = pending[next_arrival_idx].arrival - t
            if dt_arrival < dt:
                dt = dt_arrival
        if dynamic and dt > 1.0 / speed:
            # Scheduling quantum: bound assignment staleness for
            # continuously drifting priorities (see the docstring).
            dt = 1.0 / speed
        if dt < 0.0:
            dt = 0.0

        # ---- advance ----------------------------------------------------
        t_next = t + dt
        delta_work = speed * dt
        busy_work += delta_work * len(assigned)
        if trace is not None and dt > 0.0:
            for slot, (je, v) in enumerate(assigned):
                trace.record(slot, je.job_id, v, t, t_next)
        for je, v in assigned:
            je.remaining_work[v] -= delta_work
            je.attained += delta_work

        # ---- node completions -------------------------------------------
        finished_jobs: List[JobExecution] = []
        for je, v in assigned:
            if je.remaining_work[v] <= EPS and je.remaining_preds[v] == 0:
                # remaining_preds check guards the (impossible by
                # construction, but cheap to assert) double-finish case.
                je.remaining_work[v] = 0.0
                je.ready.remove(v)
                je.remaining_preds[v] = -1  # sentinel: node complete
                enabled = je.finish_node(v)
                je.ready.extend(enabled)
                if je.done:
                    je.completion = t_next
                    finished_jobs.append(je)

        for je in finished_jobs:
            completions[je.job_id] = je.completion
            # Linear scan removal: job completions are rare relative to
            # node completions, and `active` stays modest in practice.
            for i, (_, jid, cand) in enumerate(active):
                if cand is je:
                    del active[i]
                    break
            remaining_jobs -= 1

        stats.n_events += 1
        t = t_next

    stats.busy_steps = int(round(busy_work))
    return ScheduleResult(
        scheduler=scheduler_name,
        m=m,
        speed=speed,
        arrivals=arrivals,
        completions=completions,
        weights=weights,
        stats=stats,
    )
