"""The fast tick kernel: one compiled arena for R replicates.

Every in-scope work-stealing simulation reaches :func:`run_batch`:
``repro.run("flat", ...)`` and
:meth:`~repro.core.work_stealing.WorkStealingScheduler.run` call it at
one replicate, which is how figure sweeps, :func:`repro.sweep`,
:func:`repro.search` rounds and ablation deltas run each (cell, rep)
task.  Callers holding several replicates of one configuration can
pass them all at once (R > 1), the public replicate API:

* :func:`run_batch` concatenates R :class:`~repro.dag.flat.FlatInstance`
  replicates into one block-structured SoA arena -- node/job/edge
  arrays rebased onto a shared id space in a single vectorized pass,
  worker state at rep-offset ``r * m``, one 4096-slot victim-draw block
  per rep -- and executes each replicate's tick loop in the compiled C
  kernel (:mod:`repro.sim._cext`).  Per-rep clocks are fully
  independent: each replicate fast-forwards on its own schedule, and
  the arena exists so the *fixed* per-run Python cost (table builds,
  dispatch, allocation) is paid once for the whole batch.
* **RNG fidelity.**  Each replicate owns a Generator seeded exactly as
  the serial run would seed it.  The C kernel never generates a random
  number: when a draw block is exhausted it calls back into Python,
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
  :class:`RuntimeWarning` naming the cause (:func:`_slow_path_reasons`).
  So does a hand-built replicate whose arrivals are not sorted (the
  reference re-sorts and re-ids it), silently: that is a property of
  the instance, not of the configuration.  A hand-built replicate whose
  CSR arrays are malformed raises :class:`ValueError` before the kernel
  reads them (checked once per cached arena).

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
    the run takes the kernel.  Data-shape fallbacks (unsorted hand-built
    arrivals) are not listed: they are a property of the instance.
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
    """Immutable union tables for one tuple of replicate instances.

    Everything is derived in one vectorized numpy pass over the
    concatenation of the replicates' CSR arrays, on a shared global id
    space (node ids offset by ``node_off[r]``, edge targets rebased, a
    job's roots contiguous in the global ascending root list).  A single
    replicate needs no rebasing: its CSR arrays are used as they are
    (the kernel only reads them, so read-only shared-memory views
    work).  Cached on the first instance of the tuple, so a sweep
    evaluating many grid points over the same R replicates builds the
    arena once.
    """

    __slots__ = (
        "others",
        "arrivals",
        "node_off",
        "job_off",
        "works",
        "eo",
        "et",
        "chain",
        "job_of",
        "jro",
        "roots",
        "preds_master",
        "unfin_master",
        "total_works",
        "n_jobs",
        "sorted_ok",
        "arr_cache",
    )

    def __init__(self, flats: Sequence[FlatInstance]) -> None:
        for f in flats:
            _check_csr(f)
        reps = len(flats)
        n_nodes = np.array([f.n_nodes for f in flats], dtype=np.int64)
        n_jobs = np.array([f.n_jobs for f in flats], dtype=np.int64)
        n_edges = np.array([f.n_edges for f in flats], dtype=np.int64)
        node_off = np.zeros(reps + 1, dtype=np.int64)
        job_off = np.zeros(reps + 1, dtype=np.int64)
        edge_off = np.zeros(reps + 1, dtype=np.int64)
        np.cumsum(n_nodes, out=node_off[1:])
        np.cumsum(n_jobs, out=job_off[1:])
        np.cumsum(n_edges, out=edge_off[1:])
        total_nodes = int(node_off[-1])
        total_jobs = int(job_off[-1])
        total_edges = int(edge_off[-1])

        if reps == 1:
            (f,) = flats
            works, eo, et, jno = (
                np.ascontiguousarray(a, dtype=np.int64)
                for a in (
                    f.node_works, f.edge_offsets, f.edge_targets,
                    f.job_node_offsets,
                )
            )
        else:
            works = np.concatenate(
                [f.node_works for f in flats]
            ).astype(np.int64, copy=False)
            eo = np.empty(total_nodes + 1, dtype=np.int64)
            eo[-1] = total_edges
            for r, f in enumerate(flats):
                eo[node_off[r] : node_off[r + 1]] = (
                    f.edge_offsets[:-1] + edge_off[r]
                )
            et = np.empty(total_edges, dtype=np.int64)
            for r, f in enumerate(flats):
                et[edge_off[r] : edge_off[r + 1]] = (
                    f.edge_targets + node_off[r]
                )
            jno = np.empty(total_jobs + 1, dtype=np.int64)
            jno[-1] = total_nodes
            for r, f in enumerate(flats):
                jno[job_off[r] : job_off[r + 1]] = (
                    f.job_node_offsets[:-1] + node_off[r]
                )

        # Derived tables, one vectorized pass over the union.
        indeg, chain, roots, jro, job_of = _derive_tables(eo, et, jno)

        # The cache lives on flats[0], so holding it here would make a
        # reference cycle; the others are held so their ids stay unique.
        self.others = tuple(flats[1:])
        self.arrivals = np.concatenate(
            [np.asarray(f.arrivals, dtype=np.float64) for f in flats]
        )
        self.node_off = node_off
        self.job_off = job_off
        self.works = np.ascontiguousarray(works)
        self.eo = eo
        self.et = et
        self.chain = chain
        self.job_of = job_of
        self.jro = jro
        self.roots = roots
        self.preds_master = indeg
        self.unfin_master = np.diff(jno)
        self.total_works = [int(f.node_works.sum()) for f in flats]
        self.n_jobs = [int(x) for x in n_jobs]
        # Per replicate: a hand-built FlatInstance with unsorted
        # arrivals only has reference-engine semantics.
        self.sorted_ok = [
            bool(np.all(f.arrivals[1:] >= f.arrivals[:-1])) for f in flats
        ]
        #: speed -> global arrival-tick array (same rounding as the
        #: reference engine's arr_ticks).
        self.arr_cache: Dict[float, np.ndarray] = {}

    def arr_ticks(self, speed: float) -> np.ndarray:
        ticks = self.arr_cache.get(speed)
        if ticks is None:
            ticks = np.ceil(self.arrivals * speed - 1e-9).astype(np.int64)
            self.arr_cache[speed] = ticks
        return ticks


def _batch_tables(flats: Sequence[FlatInstance]) -> _BatchTables:
    """Cached :class:`_BatchTables` for this exact replicate tuple.

    Attached to the first instance (derived state, not content); the
    entry holds strong references to every other member, so the
    id-tuple key cannot alias a recycled object, and none to the first,
    so dropping it frees the arena without waiting for the cyclic GC.
    """
    key = tuple(id(f) for f in flats)
    anchor = flats[0]
    cached = getattr(anchor, "_batch_tables_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    tables = _BatchTables(flats)
    object.__setattr__(anchor, "_batch_tables_cache", (key, tables))
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
    """Run steal-k-first work stealing on R replicates in one arena.

    ``instances[r]`` is evaluated with seed ``seeds[r]`` (``seeds`` may
    be omitted for fresh-entropy runs, else must have one entry per
    instance; Generators are honored and advanced exactly as the
    reference engine would advance them).  All other parameters are
    shared across the batch and have the semantics of
    :func:`repro.sim.engine._run_work_stealing`.  Returns one
    :class:`ScheduleResult` per instance, in order, **bit-identical**
    to ``[_run_work_stealing(instances[r], ..., seed=seeds[r]) for r]``
    (a :class:`FlatInstance` through :func:`~repro.dag.flat.to_jobset`).
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

    def reference(r: int) -> ScheduleResult:
        inst = instances[r]
        return _run_work_stealing(
            inst if isinstance(inst, JobSet) else to_jobset(inst),
            m,
            speed=speed,
            k=k,
            seed=seeds[r],
            trace=trace,
            max_ticks=max_ticks,
            steals_per_tick=steals_per_tick,
            victim_policy=victim_policy,
            steal_half=steal_half,
            admission=admission,
            sampler=sampler,
            _fast_forward=_fast_forward,
        )

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

    if not reasons:
        kernel = resolve_batch_kernel()
        flats: List[FlatInstance] = [
            inst if isinstance(inst, FlatInstance) else flatten_jobset(inst)
            for inst in instances
        ]
        tables = _batch_tables(flats)
        label = _scheduler_label(k, victim_policy, steal_half, admission)
        arr_ticks = tables.arr_ticks(speed)
        node_off = tables.node_off
        job_off = tables.job_off
        total_nodes = int(node_off[-1])
        total_jobs = int(job_off[-1])

        # Mutable run state, allocated fresh per call (the immutable tables
        # above are the cached part).  Worker state is rep-blocked at
        # r * m; node/job state is indexed by global arena ids.
        preds = tables.preds_master.copy()
        unfin = tables.unfin_master.copy()
        completions = np.zeros(total_jobs, dtype=np.float64)
        cur = np.full(reps * m, -1, dtype=np.int64)
        fin = np.full(reps * m, IDLE_AT, dtype=np.int64)
        fails = np.zeros(reps * m, dtype=np.int64)
        idles = np.empty(reps * m, dtype=np.int64)
        dq_head = np.full(reps * m, -1, dtype=np.int64)
        dq_tail = np.full(reps * m, -1, dtype=np.int64)
        dq_next = np.empty(max(1, total_nodes), dtype=np.int64)
        dq_prev = np.empty(max(1, total_nodes), dtype=np.int64)
        rdy = np.empty(max(1, total_nodes), dtype=np.int64)
        raw = np.zeros((reps, BLOCK), dtype=np.int64)

    results: List[Optional[ScheduleResult]] = [None] * reps
    for r in range(reps):
        t0 = time.perf_counter()
        recorded_seed = (
            None if isinstance(seeds[r], np.random.Generator) else seeds[r]
        )
        if reasons or not tables.sorted_ok[r]:
            # Outside the kernel's scope, or unsorted hand-built
            # arrivals: only the reference engine defines the semantics.
            results[r] = reference(r)
        elif tables.n_jobs[r] == 0:
            results[r] = _empty_result(
                flats[r], label, m, speed, recorded_seed
            )
        else:
            n_r = tables.n_jobs[r]
            rng = make_rng(seeds[r])
            row = raw[r]
            if m > 1:
                # Same up-front first block as UniformVictim; refills
                # happen lazily from C via the callback.
                row[:] = rng.integers(0, m - 1, size=BLOCK)

            def _refill(rep: int, _rng=rng, _row=row) -> None:
                _row[:] = _rng.integers(0, m - 1, size=BLOCK)

            cb = REFILL_CFUNC(_refill)
            if max_ticks is None:
                # Same loose feasibility bound as the reference engine,
                # from this replicate's own totals.
                last_arr = int(arr_ticks[job_off[r + 1] - 1])
                rep_max_ticks = int(
                    tables.total_works[r] + (k + 2) * n_r + last_arr
                    + 64 * m + 64
                ) * 4
            else:
                rep_max_ticks = max_ticks
            # One call over the whole replicate, no stop point.
            state = fresh_state(int(arr_ticks[job_off[r]]))
            rc = kernel(
                _ptr(tables.works),
                _ptr(tables.eo),
                _ptr(tables.et),
                _ptr(tables.chain),
                _ptr(tables.job_of),
                _ptr(tables.jro, job_off[r]),
                _ptr(tables.roots),
                _ptr(arr_ticks, job_off[r]),
                _ptr(preds),
                _ptr(unfin),
                _ptr(completions),
                _ptr(cur, r * m),
                _ptr(fin, r * m),
                _ptr(fails, r * m),
                _ptr(idles, r * m),
                _ptr(dq_head, r * m),
                _ptr(dq_tail, r * m),
                _ptr(dq_next),
                _ptr(dq_prev),
                _ptr(rdy),
                _ptr(row),
                None,
                n_r,
                n_r,
                0,
                m,
                int(k),
                sigma,
                rep_max_ticks,
                NO_CHECKPOINT,
                float(speed),
                _ptr(state),
                cb,
                r,
            )
            if rc != 0:
                raise RuntimeError(
                    f"work-stealing run exceeded max_ticks={rep_max_ticks} "
                    f"({int(state[S_COMPLETED])}/{n_r} jobs complete) -- "
                    f"instance may be overloaded"
                )
            stats = _kernel_stats(state, tables.total_works[r], n_r)
            results[r] = ScheduleResult(
                scheduler=label,
                m=m,
                speed=speed,
                arrivals=np.asarray(flats[r].arrivals, dtype=np.float64),
                completions=completions[job_off[r] : job_off[r + 1]],
                weights=np.asarray(flats[r].weights, dtype=np.float64),
                stats=stats,
                seed=recorded_seed,
            )
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
    return results  # type: ignore[return-value]
