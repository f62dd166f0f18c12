"""The fast tick kernel: compiled work stealing, one replicate per call.

Every in-scope work-stealing simulation reaches :func:`run_batch`:
``repro.run("flat", ...)`` and
:meth:`~repro.core.work_stealing.WorkStealingScheduler.run` call it at
one replicate, which is how figure sweeps, :func:`repro.sweep`,
:func:`repro.search` rounds and ablation deltas run each (cell, rep)
task.  Callers holding several replicates of one configuration can
pass them all at once (R > 1), the public replicate API, which runs
them one kernel call each:

* **Tables.**  Each replicate's :class:`~repro.dag.flat.FlatInstance`
  CSR arrays are read by the compiled C kernel (:mod:`repro.sim._cext`)
  as they are; the derived tables (in-degrees, chain links, roots) come
  from one vectorized pass and are cached on the instance, so the
  tables of a replicate are built once however many grid points
  evaluate it.
* **RNG fidelity.**  Each replicate owns a Generator seeded exactly as
  the serial run would seed it.  The C kernel never generates a random
  number: when its draw block is exhausted it calls back into Python,
  which refills the block with the same ``rng.integers(0, m - 1,
  size=4096)`` call (same cadence) the reference engine's
  :class:`~repro.sim.policies.UniformVictim` makes -- so the post-run
  ``PCG64`` state is bit-identical to the reference, not merely the
  victim sequence.
* **Bit-identity.**  Results are identical per rep to running the
  reference engine (:func:`repro.sim.engine._run_work_stealing`) R
  times: same completions, same
  :class:`~repro.sim.result.SimulationStats`, same RNG post-state
  (``tests/sim/test_flat_kernel_equivalence.py`` and
  ``tests/sim/test_batch_engine.py`` fuzz this).  Configurations
  outside the kernel's native scope -- non-uniform victim policies,
  ``steal_half``, weighted admission, ``trace``, samplers,
  ``_fast_forward=False`` -- and hosts where the kernel cannot be
  built run the reference engine per replicate, with a one-time
  :class:`RuntimeWarning` naming the cause.  So does a hand-built
  replicate whose arrivals are not sorted (the reference re-sorts and
  re-ids it), silently: that is a property of the instance, not of the
  configuration.  A hand-built replicate whose CSR arrays are malformed
  raises :class:`ValueError` before the kernel reads them (checked once
  per cached table set).
* **Path report.**  Every result says which engine produced it:
  ``path`` is ``"cext"`` or ``"reference"``, and ``reasons`` holds the
  causes of a fallback (empty on the kernel), ``arrivals=unsorted``
  for the data-shape one.

Telemetry: with a sink attached, :func:`run_batch` emits
``batch.start`` (plan: rep count, kernel path), per-replicate
``batch.flush`` (wall time as each rep's results materialize) and
``batch.done``.  Telemetry never changes results.
"""

from __future__ import annotations

import ctypes
import os
import time
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dag.flat import FlatInstance, flatten_jobset, to_jobset
from repro.dag.job import JobSet
from repro.sim import _cext
from repro.sim._cext import (
    BLOCK,
    IDLE_AT,
    NO_CHECKPOINT,
    REFILL_CFUNC,
    S_ADMWAIT,
    S_ATT,
    S_COMPLETED,
    S_FAIL,
    S_FF,
    S_IDLE,
    S_MAXQ,
    S_T,
    fresh_state,
    resolve_batch_kernel,
)
from repro.sim.engine import _run_work_stealing, _scheduler_label
from repro.sim.result import ScheduleResult, SimulationStats
from repro.sim.rng import SeedLike, make_rng

__all__ = ["run_batch"]


# ----------------------------------------------------------------------
# Slow-path visibility
# ----------------------------------------------------------------------

_SLOW_PATH_WARNED = False


def _scope_reasons(
    victim_policy: str = "uniform",
    steal_half: bool = False,
    admission: str = "fifo",
    trace: Any = None,
    sampler: Any = None,
    _fast_forward: bool = True,
    **_knobs: Any,
) -> List[str]:
    """The configuration knobs outside the kernel's native scope.

    Other engine knobs (``k``, ``steals_per_tick``, ``max_ticks``) are
    accepted and ignored, so callers can pass their whole keyword set.
    """
    reasons = []
    if victim_policy != "uniform":
        reasons.append(f"victim_policy={victim_policy!r}")
    if steal_half:
        reasons.append("steal_half=True")
    if admission != "fifo":
        reasons.append(f"admission={admission!r}")
    if trace is not None:
        reasons.append("trace=<TraceRecorder>")
    if sampler is not None:
        reasons.append("sampler=<SystemSampler>")
    if not _fast_forward:
        reasons.append("_fast_forward=False")
    return reasons


def _slow_path_reasons(*args: Any, **knobs: Any) -> tuple:
    """Why a run with these knobs takes a Python engine, if it does.

    :func:`_scope_reasons`, then ``kernel=unavailable`` when the
    compiled kernel cannot be built or loaded on this host.  Empty means
    the run takes the kernel.  Shared by :func:`run_batch` and the
    streaming engine, which stamp the result on what they return.
    """
    reasons = _scope_reasons(*args, **knobs)
    if resolve_batch_kernel() is None:
        reasons.append("kernel=unavailable")
    return tuple(reasons)


def _warn_slow_path(reasons: tuple) -> None:
    """One-time RuntimeWarning when a run falls back to a Python engine.

    The fallback is the reference engine for materialized runs and, for
    streaming runs, the stream driver's Python step in place of the
    compiled one.  Warned once per process; the paired
    ``dispatch.slow_path`` telemetry event (emitted by the
    :func:`repro.run` facade and the streaming engine) records every
    occurrence for machine consumption.
    """
    global _SLOW_PATH_WARNED
    if _SLOW_PATH_WARNED or not reasons:
        return
    _SLOW_PATH_WARNED = True
    cause = ""
    if "kernel=unavailable" in reasons and _cext.unavailable_reason:
        cause = (
            f"; the compiled kernel could not be built or loaded "
            f"({_cext.unavailable_reason})"
        )
    warnings.warn(
        f"runs with {', '.join(reasons)} are outside the compiled "
        f"kernel's scope and fall back to a slower Python engine (the "
        f"reference engine, or the Python step of the stream driver for "
        f"streaming runs){cause}; results are identical, only slower "
        f"(this warning is shown once per process, forked workers "
        f"included)",
        RuntimeWarning,
        stacklevel=3,
    )


def _before_fork() -> None:
    """Resolve the kernel before a fork; warn once if it is unusable.

    This finishes the background build started at import, so forked
    pool workers inherit the loaded kernel instead of each compiling
    it.  On a host where the kernel cannot be built, the workers inherit
    the warned flag: a pool warns once, not once per worker.
    """
    if resolve_batch_kernel() is None:
        _warn_slow_path(("kernel=unavailable",))


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork)


def _check_csr(flat: FlatInstance) -> None:
    """Raise :class:`ValueError` unless ``flat``'s CSR offsets are sound.

    The compiled kernel indexes its tables without bounds checks, so a
    malformed hand-built instance must be refused here rather than read
    out of bounds there.  This checks the offsets and the edge-target
    range; :func:`_check_jobs` checks the derived tables.
    """
    n_nodes = flat.n_nodes
    eo = flat.edge_offsets
    et = flat.edge_targets
    jno = flat.job_node_offsets
    if eo[0] != 0 or eo[-1] != len(et) or np.any(eo[1:] < eo[:-1]):
        raise ValueError(
            "malformed FlatInstance: edge_offsets must be non-decreasing, "
            f"start at 0 and end at len(edge_targets) = {len(et)}"
        )
    if jno[0] != 0 or jno[-1] != n_nodes or np.any(jno[1:] < jno[:-1]):
        raise ValueError(
            "malformed FlatInstance: job_node_offsets must be "
            f"non-decreasing, start at 0 and end at n_nodes = {n_nodes}"
        )
    if len(et) and (et.min() < 0 or et.max() >= n_nodes):
        raise ValueError(
            f"malformed FlatInstance: edge_targets must lie in "
            f"[0, n_nodes = {n_nodes})"
        )


def _check_jobs(
    outdeg: np.ndarray, et: np.ndarray, job_of: np.ndarray, jro: np.ndarray
) -> None:
    """Every edge stays inside its source's job; every job has a root.

    Run on the derived tables of instances :func:`_check_csr` accepted:
    node out-degrees, edge targets, each node's job and each job's
    root-list offsets.  Admission starts a job at its first root.
    """
    if len(et) and np.any(np.repeat(job_of, outdeg) != job_of[et]):
        raise ValueError(
            "malformed FlatInstance: every edge must stay inside its "
            "source node's job"
        )
    if np.any(jro[1:] <= jro[:-1]):
        raise ValueError(
            "malformed FlatInstance: every job needs at least one node "
            "without predecessors"
        )


def _derive_tables(
    eo: np.ndarray, et: np.ndarray, jno: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's derived tables of CSR arrays :func:`_check_csr` accepted.

    Returns the in-degrees, chain links (a node's sole successor when
    that successor has in-degree 1, else -1), the ascending root list,
    each job's root offsets (``jro``, one entry per job plus one) and
    each node's job, after :func:`_check_jobs` has checked them.  Edges
    never cross jobs, so deriving a concatenation equals concatenating
    the derivations, re-based.
    """
    n_nodes = int(jno[-1])
    indeg = np.bincount(et, minlength=n_nodes).astype(np.int64, copy=False)
    outdeg = np.diff(eo)
    chain = np.full(n_nodes, -1, dtype=np.int64)
    cand = np.flatnonzero(outdeg == 1)
    if cand.size:
        tgt = et[eo[cand]]
        ok = indeg[tgt] == 1
        chain[cand[ok]] = tgt[ok]
    roots = np.flatnonzero(indeg == 0).astype(np.int64, copy=False)
    jro = np.searchsorted(roots, jno).astype(np.int64, copy=False)
    job_of = np.repeat(np.arange(len(jno) - 1, dtype=np.int64), np.diff(jno))
    _check_jobs(outdeg, et, job_of, jro)
    return indeg, chain, roots, jro, job_of


class _BatchTables:
    """Immutable kernel tables of one :class:`FlatInstance`.

    The instance's CSR arrays are used as they are (the kernel only
    reads them, so read-only shared-memory views work); the derived
    tables come from one vectorized numpy pass.  Cached on the instance,
    so a sweep evaluating many grid points over the same replicate
    builds them once.
    """

    __slots__ = (
        "arrivals",
        "works",
        "eo",
        "et",
        "chain",
        "job_of",
        "jro",
        "roots",
        "preds_master",
        "unfin_master",
        "total_work",
        "n_jobs",
        "sorted_ok",
        "arr_cache",
    )

    def __init__(self, flat: FlatInstance) -> None:
        _check_csr(flat)
        works, eo, et, jno = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (
                flat.node_works, flat.edge_offsets, flat.edge_targets,
                flat.job_node_offsets,
            )
        )
        indeg, chain, roots, jro, job_of = _derive_tables(eo, et, jno)
        self.arrivals = np.asarray(flat.arrivals, dtype=np.float64)
        self.works = works
        self.eo = eo
        self.et = et
        self.chain = chain
        self.job_of = job_of
        self.jro = jro
        self.roots = roots
        self.preds_master = indeg
        self.unfin_master = np.diff(jno)
        self.total_work = int(works.sum())
        self.n_jobs = flat.n_jobs
        # A hand-built FlatInstance with unsorted arrivals only has
        # reference-engine semantics.
        self.sorted_ok = bool(np.all(self.arrivals[1:] >= self.arrivals[:-1]))
        #: speed -> arrival-tick array (same rounding as the reference
        #: engine's arr_ticks).
        self.arr_cache: Dict[float, np.ndarray] = {}

    def arr_ticks(self, speed: float) -> np.ndarray:
        ticks = self.arr_cache.get(speed)
        if ticks is None:
            ticks = np.ceil(self.arrivals * speed - 1e-9).astype(np.int64)
            self.arr_cache[speed] = ticks
        return ticks


def _batch_tables(flat: FlatInstance) -> _BatchTables:
    """Cached :class:`_BatchTables` of ``flat`` (derived state, not content).

    The tables hold the instance's arrays but not the instance, so the
    cache makes no reference cycle.
    """
    tables = getattr(flat, "_batch_tables_cache", None)
    if tables is None:
        tables = _BatchTables(flat)
        object.__setattr__(flat, "_batch_tables_cache", tables)
    return tables


def _ptr(arr: np.ndarray, offset: int = 0) -> ctypes.c_void_p:
    """A C pointer to ``arr[offset]`` (8-byte elements only)."""
    return ctypes.c_void_p(arr.ctypes.data + 8 * int(offset))


def _kernel_stats(
    state: np.ndarray, busy_steps: int, admissions: int
) -> SimulationStats:
    """The :class:`SimulationStats` of a finished kernel run."""
    stats = SimulationStats()
    stats.busy_steps = busy_steps
    stats.steal_attempts = int(state[S_ATT])
    stats.failed_steals = int(state[S_FAIL])
    stats.admissions = admissions
    stats.idle_steps = int(state[S_IDLE])
    stats.elapsed_ticks = int(state[S_T])
    stats.admission_wait_ticks = int(state[S_ADMWAIT])
    stats.ff_skipped_ticks = int(state[S_FF])
    stats.max_queue_depth = int(state[S_MAXQ])
    return stats


def _empty_result(
    flat: FlatInstance,
    label: str,
    m: int,
    speed: float,
    recorded_seed: Any,
) -> ScheduleResult:
    """The n == 0 early return, mirroring the reference engine exactly."""
    return ScheduleResult(
        scheduler=label,
        m=m,
        speed=speed,
        arrivals=np.asarray(flat.arrivals, dtype=np.float64),
        completions=np.zeros(0, dtype=np.float64),
        weights=np.asarray(flat.weights, dtype=np.float64),
        stats=SimulationStats(
            steal_attempts=0,
            failed_steals=0,
            admissions=0,
            admission_wait_ticks=0,
            ff_skipped_ticks=0,
            max_queue_depth=0,
        ),
        seed=recorded_seed,
        path="cext",
    )


def _run_kernel(
    flat: FlatInstance,
    m: int,
    speed: float,
    k: int,
    sigma: int,
    seed: SeedLike,
    max_ticks: Optional[int],
    label: str,
) -> ScheduleResult:
    """One replicate on the compiled kernel, in one call with no stop point.

    ``flat``'s arrivals must be sorted (``_BatchTables.sorted_ok``).
    """
    tables = _batch_tables(flat)
    recorded_seed = None if isinstance(seed, np.random.Generator) else seed
    n = tables.n_jobs
    if n == 0:
        return _empty_result(flat, label, m, speed, recorded_seed)
    rng = make_rng(seed)
    raw = np.zeros(BLOCK, dtype=np.int64)
    if m > 1:
        # Same up-front first block as UniformVictim; refills happen
        # lazily from C via the callback.
        raw[:] = rng.integers(0, m - 1, size=BLOCK)

    def _refill(_rep: int) -> None:
        raw[:] = rng.integers(0, m - 1, size=BLOCK)

    arr_ticks = tables.arr_ticks(speed)
    if max_ticks is None:
        # Same loose feasibility bound as the reference engine.
        max_ticks = int(
            tables.total_work + (k + 2) * n + int(arr_ticks[-1])
            + 64 * m + 64
        ) * 4
    # Mutable run state, allocated fresh per call (the immutable tables
    # above are the cached part); named so it outlives the call.
    n_nodes = max(1, len(tables.works))
    preds = tables.preds_master.copy()
    unfin = tables.unfin_master.copy()
    completions = np.zeros(n, dtype=np.float64)
    cur = np.full(m, -1, dtype=np.int64)
    fin = np.full(m, IDLE_AT, dtype=np.int64)
    fails = np.zeros(m, dtype=np.int64)
    idles = np.empty(m, dtype=np.int64)
    dq_head = np.full(m, -1, dtype=np.int64)
    dq_tail = np.full(m, -1, dtype=np.int64)
    dq_next = np.empty(n_nodes, dtype=np.int64)
    dq_prev = np.empty(n_nodes, dtype=np.int64)
    rdy = np.empty(n_nodes, dtype=np.int64)
    state = fresh_state(int(arr_ticks[0]))
    cb = REFILL_CFUNC(_refill)
    rc = resolve_batch_kernel()(
        _ptr(tables.works),
        _ptr(tables.eo),
        _ptr(tables.et),
        _ptr(tables.chain),
        _ptr(tables.job_of),
        _ptr(tables.jro),
        _ptr(tables.roots),
        _ptr(arr_ticks),
        _ptr(preds),
        _ptr(unfin),
        _ptr(completions),
        _ptr(cur),
        _ptr(fin),
        _ptr(fails),
        _ptr(idles),
        _ptr(dq_head),
        _ptr(dq_tail),
        _ptr(dq_next),
        _ptr(dq_prev),
        _ptr(rdy),
        _ptr(raw),
        None,
        n,
        n,
        0,
        m,
        int(k),
        sigma,
        max_ticks,
        NO_CHECKPOINT,
        float(speed),
        _ptr(state),
        cb,
        0,
    )
    if rc != 0:
        raise RuntimeError(
            f"work-stealing run exceeded max_ticks={max_ticks} "
            f"({int(state[S_COMPLETED])}/{n} jobs complete) -- "
            f"instance may be overloaded"
        )
    return ScheduleResult(
        scheduler=label,
        m=m,
        speed=speed,
        arrivals=tables.arrivals,
        completions=completions,
        weights=np.asarray(flat.weights, dtype=np.float64),
        stats=_kernel_stats(state, tables.total_work, n),
        seed=recorded_seed,
        path="cext",
    )


def run_batch(
    instances: Sequence[Union[FlatInstance, JobSet]],
    m: int,
    speed: float = 1.0,
    k: int = 0,
    seeds: Optional[Sequence[SeedLike]] = None,
    trace: Optional[Any] = None,
    max_ticks: Optional[int] = None,
    steals_per_tick: int = 1,
    victim_policy: str = "uniform",
    steal_half: bool = False,
    admission: str = "fifo",
    sampler: Optional[Any] = None,
    telemetry: Optional[Any] = None,
    _fast_forward: bool = True,
) -> List[ScheduleResult]:
    """Run steal-k-first work stealing on R replicates, one kernel call each.

    ``instances[r]`` is evaluated with seed ``seeds[r]`` (``seeds`` may
    be omitted for fresh-entropy runs, else must have one entry per
    instance; Generators are honored and advanced exactly as the
    reference engine would advance them).  All other parameters are
    shared across the batch and have the semantics of
    :func:`repro.sim.engine._run_work_stealing`.  Returns one
    :class:`ScheduleResult` per instance, in order, **bit-identical**
    to ``[_run_work_stealing(instances[r], ..., seed=seeds[r]) for r]``
    (a :class:`FlatInstance` through :func:`~repro.dag.flat.to_jobset`).
    Each result's ``path`` and ``reasons`` say which engine ran it and
    why.
    """
    # Argument validation mirrors the reference engine verbatim.
    if m < 1:
        raise ValueError(f"need at least one worker, got m={m}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if k < 0:
        raise ValueError(f"steal-k-first requires k >= 0, got {k}")
    if steals_per_tick < 1:
        raise ValueError(
            f"steals_per_tick must be >= 1, got {steals_per_tick}"
        )
    if admission not in ("fifo", "weight"):
        raise ValueError(
            f"unknown admission policy {admission!r}; expected 'fifo' or 'weight'"
        )
    reps = len(instances)
    if seeds is None:
        seeds = [None] * reps
    elif len(seeds) != reps:
        raise ValueError(
            f"need one seed per instance: got {len(seeds)} seeds for "
            f"{reps} instances"
        )
    if reps == 0:
        return []
    sigma = int(steals_per_tick)

    reasons = _slow_path_reasons(
        victim_policy, steal_half, admission, trace, sampler, _fast_forward
    )
    _warn_slow_path(reasons)
    path = "reference" if reasons else "cext"
    label = _scheduler_label(k, victim_policy, steal_half, admission)

    def reference(inst, seed: SeedLike, why: tuple) -> ScheduleResult:
        result = _run_work_stealing(
            inst if isinstance(inst, JobSet) else to_jobset(inst),
            m,
            speed=speed,
            k=k,
            seed=seed,
            trace=trace,
            max_ticks=max_ticks,
            steals_per_tick=steals_per_tick,
            victim_policy=victim_policy,
            steal_half=steal_half,
            admission=admission,
            sampler=sampler,
            _fast_forward=_fast_forward,
        )
        result.reasons = why
        return result

    t_start = time.perf_counter()
    if telemetry is not None:
        telemetry.emit(
            "batch.start",
            n_reps=reps,
            m=m,
            k=k,
            steals_per_tick=sigma,
            kernel=path,
        )
    results: List[ScheduleResult] = []
    for r, (inst, seed) in enumerate(zip(instances, seeds)):
        t0 = time.perf_counter()
        if reasons:
            results.append(reference(inst, seed, reasons))
        else:
            flat = (
                inst if isinstance(inst, FlatInstance) else flatten_jobset(inst)
            )
            if _batch_tables(flat).sorted_ok:
                results.append(
                    _run_kernel(
                        flat, m, speed, k, sigma, seed, max_ticks, label
                    )
                )
            else:
                # Unsorted hand-built arrivals: only the reference
                # engine (which re-sorts and re-ids) defines the
                # semantics.  A property of the instance, so not warned.
                results.append(reference(inst, seed, ("arrivals=unsorted",)))
        if telemetry is not None:
            telemetry.emit(
                "batch.flush",
                rep=r,
                wall_s=round(time.perf_counter() - t0, 6),
            )
    if telemetry is not None:
        telemetry.emit(
            "batch.done",
            n_reps=reps,
            wall_s=round(time.perf_counter() - t_start, 6),
            kernel=path,
        )
    return results
