"""Multiprocessor execution substrate.

Two exact simulation engines drive every scheduler in :mod:`repro.core`:

* :func:`~repro.sim.events.run_centralized` -- an event-driven engine for
  centralized preemptive schedulers (FIFO, BWF, the list-scheduling
  baselines).  Processor assignment can only change at job arrivals and
  node completions, so the engine jumps between those events; this is
  exact and far faster than stepping time.  Static-priority runs take a
  compiled event loop (the second entry point of the same C kernel
  source) that does the Python loop's float operations in the same
  order, so completions are ``==``.  The dynamic LAS and SRW take it
  too: C keeps each job's attained service and re-ranks the jobs it
  served after every event.  Other ``dynamic=True`` keys and hosts
  without a compiler run the Python loop, which is also the oracle.

* :func:`~repro.sim.engine._run_work_stealing` (reached as
  ``repro.run("work-stealing", ...)``) -- a discrete-time engine for the
  randomized work-stealing schedulers (admit-first and steal-k-first,
  Section 4 of the paper).  The paper defines one *time
  step* as the time an ``s``-speed processor needs for one unit of work
  and charges one time step per steal attempt; the engine simulates in
  exactly those integer ticks, so runs are bit-reproducible for a given
  seed.

The reference tick engine is the oracle; there is one fast kernel.
:mod:`repro.sim.batch_engine` (:func:`~repro.sim.batch_engine.run_batch`)
evaluates R replicate :class:`~repro.dag.flat.FlatInstance` CSR
instances, one call each, on an on-demand-compiled C kernel --
bit-identical per rep to the reference engine (same
schedules, stats, and RNG post-state).  ``repro.run(..., engine="flat")``
and :meth:`WorkStealingScheduler.run <repro.core.work_stealing.WorkStealingScheduler.run>`
(so every figure of the paper, one (cell, rep) task at a time) are
that kernel at R=1; callers with several replicates of one
configuration pass them to ``run_batch`` together.  Knobs
outside the kernel's scope run the reference engine instead (identical
results), and so does everything on a host without a working C
compiler (centralized runs then take the Python event loop).  Only the
missing kernel is warned, once per process; every result records the
engine that produced it in ``path`` and, for a fallback, why in
``reasons``.  Importing this package starts the kernel's compile in the
background (:mod:`repro.sim._cext`), so the cold build overlaps
start-up.

:mod:`repro.sim.stream_engine` (``repro.run("flat", stream=...)``) runs
the same tick semantics over a sliding window of a lazy arrival stream:
bounded memory, online metrics, durable checkpoint/restore
(:mod:`repro.sim.checkpoint`) -- same max flow time, bit for bit.

Shared pieces: :class:`~repro.sim.result.ScheduleResult` (the output of
every engine), :class:`~repro.sim.jobstate.JobExecution` (mutable per-job
execution state), :class:`~repro.sim.deque.WorkStealingDeque`,
:class:`~repro.sim.queue.GlobalAdmissionQueue`, and
:class:`~repro.sim.trace.TraceRecorder` (optional execution tracing with
invariant audits).
"""

from repro.sim import _cext  # noqa: F401  first: starts the kernel build
from repro.sim.result import (
    ScheduleResult,
    SimulationStats,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.sim.rng import derive_seed, make_rng, spawn_rngs
from repro.sim.worker import WorkerArrays
from repro.sim.deque import WorkStealingDeque
from repro.sim.queue import GlobalAdmissionQueue, WeightedAdmissionQueue
from repro.sim.jobstate import JobExecution
from repro.sim.events import run_centralized
from repro.sim.trace import TraceRecorder, TraceInterval, audit_trace
from repro.sim.policies import (
    MaxDequeVictim,
    RoundRobinVictim,
    UniformVictim,
    VictimPolicy,
    make_victim_policy,
)
from repro.sim.checkpoint import (
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.sampling import SystemSample, SystemSampler
from repro.sim.batch_engine import run_batch
from repro.sim.stream_engine import StreamResult
from repro.sim.timeline import job_symbol, render_timeline, worker_utilization

__all__ = [
    "VictimPolicy",
    "UniformVictim",
    "RoundRobinVictim",
    "MaxDequeVictim",
    "make_victim_policy",
    "render_timeline",
    "worker_utilization",
    "job_symbol",
    "SystemSample",
    "SystemSampler",
    "StreamResult",
    "run_batch",
    "save_checkpoint",
    "load_checkpoint",
    "list_checkpoints",
    "latest_checkpoint",
    "ScheduleResult",
    "SimulationStats",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "derive_seed",
    "make_rng",
    "spawn_rngs",
    "WorkerArrays",
    "WorkStealingDeque",
    "GlobalAdmissionQueue",
    "WeightedAdmissionQueue",
    "JobExecution",
    "run_centralized",
    "TraceRecorder",
    "TraceInterval",
    "audit_trace",
]
