"""The fast tick kernel: compiled work stealing, one replicate per call.

Every work-stealing simulation without a sampler, traced or not,
reaches :func:`run_batch`:
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
  reference engine R times, under its run contract
  (:func:`repro.sim.engine._run_work_stealing`)
  (``tests/sim/test_flat_kernel_equivalence.py``,
  ``tests/sim/test_batch_engine.py`` and
  ``tests/properties/test_kernel_oracle_properties.py`` fuzz this).
  The kernel runs every victim policy, ``steal_half`` and both
  admission orders, with or without a ``trace``.  A run with a
  ``sampler`` runs the reference engine per replicate, and so does a
  hand-built replicate whose arrivals are not sorted (the reference
  re-sorts and re-ids it).
  A host where the kernel cannot be built runs the reference engine
  too, and is the one case warned: a :class:`RuntimeWarning` naming
  ``kernel=unavailable``, once per process.  A hand-built replicate
  whose CSR arrays are malformed, or whose arrivals or weights are out
  of range, raises :class:`ValueError` before the kernel reads them
  (checked once per cached table set).
* **One call site.**  A replicate on the kernel is a one-window run:
  :class:`_KernelWindow` aliases the cached tables, allocates the
  run's mutable state and makes the one kernel call, with no stop
  point.  The streaming engine's window extends the same class.
* **Traces.**  A traced replicate stays on the kernel: it appends one
  ``(worker, node, end tick)`` row per node completion to a buffer
  sized to the instance's nodes, and :func:`_drain_trace` turns the
  rows into the :class:`~repro.sim.trace.TraceRecorder`'s columns in
  one vectorized pass -- the reference engine's segments, in its
  recording order, with its int-to-float divisions.
* **Path report.**  Every result says which engine produced it:
  ``path`` is ``"cext"`` or ``"reference"``, and ``reasons`` holds the
  causes of a fallback (empty on the kernel): ``sampler=...``,
  ``arrivals=unsorted`` or ``kernel=unavailable``.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dag.flat import FlatInstance, _check_flat, flatten_jobset, to_jobset
from repro.dag.job import JobSet
from repro.errors import _caller_stacklevel
from repro.sim import _cext
from repro.sim._cext import (
    BLOCK,
    DONE,
    IDLE_AT,
    N_STATE,
    NO_CHECKPOINT,
    REFILL_CFUNC,
    S_ADMWAIT,
    S_ATT,
    S_COMPLETED,
    S_FAIL,
    S_FF,
    S_IDLE,
    S_MAXQ,
    S_NTRACE,
    S_T,
    fresh_state,
    resolve_batch_kernel,
)
from repro.sim.engine import (
    _arrival_ticks,
    _check_machine,
    _check_work_stealing,
    _empty_result,
    _max_ticks_bound,
    _run_work_stealing,
    _scheduler_label,
)
from repro.sim.policies import _first_victim_block, victim_policy_code
from repro.sim.result import ScheduleResult, SimulationStats
from repro.sim.rng import SeedLike, make_rng

__all__ = ["run_batch"]


# ----------------------------------------------------------------------
# Slow-path visibility
# ----------------------------------------------------------------------

_SLOW_PATH_WARNED = False


def _slow_path_reasons(sampler: Any = None) -> tuple:
    """Why a run takes a Python engine, if it does.

    ``sampler=<SystemSampler>``, the one run argument the kernel does
    not take (every scheduler knob and a trace run on it), then
    ``kernel=unavailable`` (warned once, :func:`_warn_slow_path`) when
    the compiled kernel cannot be built or loaded on this host.  Empty
    means the run takes the kernel.  Shared by :func:`run_batch` and
    the streaming engine, which stamp the result on what they return.
    """
    reasons = [] if sampler is None else ["sampler=<SystemSampler>"]
    if resolve_batch_kernel() is None:
        reasons.append("kernel=unavailable")
        _warn_slow_path()
    return tuple(reasons)


def _warn_slow_path() -> None:
    """One-time RuntimeWarning: the compiled kernel is unavailable here.

    The only warned fallback.  A configuration outside the kernel's
    scope is reported in the result's ``reasons`` (and the
    ``dispatch.slow_path`` telemetry event), never warned.  Warned once
    per process, forked workers included, at the first frame outside
    the package (the user's call).
    """
    global _SLOW_PATH_WARNED
    if _SLOW_PATH_WARNED:
        return
    _SLOW_PATH_WARNED = True
    warnings.warn(
        f"kernel=unavailable: the compiled kernel could not be built or "
        f"loaded ({_cext.unavailable_reason}), so runs fall back to a "
        f"slower Python engine; results are identical, only slower (this "
        f"warning is shown once per process, forked workers included)",
        RuntimeWarning,
        stacklevel=_caller_stacklevel(),
    )


def _before_fork() -> None:
    """Resolve the kernel before a fork; warn once if it is unusable.

    This finishes the background build started at import, so forked
    pool workers inherit the loaded kernel instead of each compiling
    it.  On a host where the kernel cannot be built, the workers inherit
    the warned flag: a pool warns once, not once per worker.
    """
    if resolve_batch_kernel() is None:
        _warn_slow_path()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork)


def _derive_tables(
    eo: np.ndarray, et: np.ndarray, jno: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's derived tables of CSR arrays
    :func:`~repro.dag.flat._check_csr` accepted.

    Returns the in-degrees, chain links (a node's sole successor when
    that successor has in-degree 1, else -1), the ascending root list,
    each job's root offsets (``jro``, one entry per job plus one) and
    each node's job.  Edges
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
    return indeg, chain, roots, jro, job_of


class _BatchTables:
    """Immutable kernel tables of one :class:`FlatInstance`.

    The instance's CSR arrays are used as they are (the kernel only
    reads them, so read-only arrays work); the derived
    tables come from one vectorized numpy pass.  The weights are read
    by weighted admission only.  Cached on the instance,
    so a sweep evaluating many grid points over the same replicate
    builds them once.
    """

    __slots__ = (
        "arrivals",
        "weights",
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
        "arr_cache",
    )

    def __init__(self, flat: FlatInstance) -> None:
        _check_flat(flat)
        works, eo, et, jno = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (
                flat.node_works, flat.edge_offsets, flat.edge_targets,
                flat.job_node_offsets,
            )
        )
        indeg, chain, roots, jro, job_of = _derive_tables(eo, et, jno)
        self.arrivals = np.asarray(flat.arrivals, dtype=np.float64)
        self.weights = np.ascontiguousarray(flat.weights, dtype=np.float64)
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
        #: speed -> arrival-tick array.
        self.arr_cache: Dict[float, np.ndarray] = {}

    def arr_ticks(self, speed: float) -> np.ndarray:
        ticks = self.arr_cache.get(speed)
        if ticks is None:
            ticks = _arrival_ticks(self.arrivals, speed)
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


class _KernelWindow:
    """A run's kernel view: its tables, its mutable state, the kernel call.

    int64 numpy tables in window-local ids.  The kernel reads works,
    edges, chain links, each node's job, root offsets, roots, arrival
    ticks and (weighted admission only) job weights, and writes the
    rest: predecessor and unfinished-node counts, the worker arrays, the
    deques, completions and the completion log.  The deques are linked
    lists: ``dq_head``/``dq_tail``/``dq_len`` per worker and
    ``dq_next``/``dq_prev`` per node, with each queued node's ready tick
    in ``rdy``.  The FIFO queue is the job range ``[q_head, next_arr)``
    of the state vector; weighted admission keeps the queue as a binary
    heap of job ids in ``heap``.  Round-robin victims keep each thief's
    next victim in ``rr_next``.  ``weights`` switches admission to
    weighted; the other knobs default to the paper's uniform victims
    and single-entry steals.  ``tr`` is the trace buffer, three int64
    per window node, or ``None`` (untraced runs and streams pass NULL).
    A materialized replicate is a one-window run over its cached tables
    (:func:`_run_kernel`); the streaming engine's window extends this
    class with the defaults.
    """

    def __init__(
        self,
        m: int,
        rng: np.random.Generator,
        raw: Optional[np.ndarray],
        works: np.ndarray,
        eo: np.ndarray,
        et: np.ndarray,
        chain: np.ndarray,
        job_of: np.ndarray,
        jro: np.ndarray,
        roots: np.ndarray,
        arr_ticks: np.ndarray,
        preds: np.ndarray,
        unfin: np.ndarray,
        victim_policy: str = "uniform",
        steal_half: bool = False,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        self.works = works
        self.eo = eo
        self.et = et
        self.chain = chain
        self.job_of = job_of
        self.jro = jro
        self.roots = roots
        self.arr_ticks = arr_ticks
        self.preds = preds
        self.unfin = unfin
        self.cur = np.full(m, -1, dtype=np.int64)
        self.fin = np.full(m, IDLE_AT, dtype=np.int64)
        self.fails = np.zeros(m, dtype=np.int64)
        self.idles = np.zeros(m, dtype=np.int64)
        self.dq_head = np.full(m, -1, dtype=np.int64)
        self.dq_tail = np.full(m, -1, dtype=np.int64)
        self.dq_next = np.full(len(works), -1, dtype=np.int64)
        self.dq_prev = np.full(len(works), -1, dtype=np.int64)
        self.rdy = np.full(len(works), -1, dtype=np.int64)
        self.dq_len = np.zeros(m, dtype=np.int64)
        self.rr_next = (np.arange(m, dtype=np.int64) + 1) % m
        self.victims = victim_policy_code(victim_policy) if m > 1 else 0
        self.steal_half = steal_half
        self.weighted = weights is not None
        self.weights = weights if weights is not None else np.zeros(0)
        self.heap = np.zeros(len(unfin) if self.weighted else 0, dtype=np.int64)
        self.rng = rng
        # Only uniform victims on two or more workers read the block.
        self.raw = raw if raw is not None else np.zeros(BLOCK, dtype=np.int64)
        self.state = np.zeros(N_STATE, dtype=np.int64)
        self.tr: Optional[np.ndarray] = None
        self._scratch()

    def _scratch(self) -> None:
        """Size the completion outputs to the window: a call completes
        at most every window job once."""
        wn = len(self.unfin)
        self.completions = np.zeros(wn, dtype=np.float64)
        self.log = np.zeros(wn, dtype=np.int64)

    def refill(self) -> None:
        """Draw the next victim block, with UniformVictim's call."""
        self.raw[:] = self.rng.integers(0, len(self.cur) - 1, size=BLOCK)

    def call(
        self,
        n_total: int,
        more: bool,
        m: int,
        k: int,
        sigma: int,
        max_ticks: int,
        ckpt_at: int,
        speed: float,
    ) -> int:
        """The compiled step: run the kernel to its next stop point."""
        return resolve_batch_kernel()(
            _ptr(self.works),
            _ptr(self.eo),
            _ptr(self.et),
            _ptr(self.chain),
            _ptr(self.job_of),
            _ptr(self.jro),
            _ptr(self.roots),
            _ptr(self.arr_ticks),
            _ptr(self.weights),
            _ptr(self.preds),
            _ptr(self.unfin),
            _ptr(self.completions),
            _ptr(self.cur),
            _ptr(self.fin),
            _ptr(self.fails),
            _ptr(self.idles),
            _ptr(self.dq_head),
            _ptr(self.dq_tail),
            _ptr(self.dq_next),
            _ptr(self.dq_prev),
            _ptr(self.rdy),
            _ptr(self.dq_len),
            _ptr(self.rr_next),
            _ptr(self.heap),
            _ptr(self.raw),
            _ptr(self.log),
            None if self.tr is None else _ptr(self.tr),
            len(self.unfin),
            n_total,
            int(more),
            m,
            k,
            sigma,
            max_ticks,
            ckpt_at,
            float(speed),
            _ptr(self.state),
            REFILL_CFUNC(self.refill),
            self.victims,
            int(self.steal_half),
            int(self.weighted),
        )


def _drain_trace(
    w: _KernelWindow,
    tables: _BatchTables,
    flat: FlatInstance,
    speed: float,
    trace: Any,
) -> None:
    """Append the kernel's trace rows to ``trace`` as one block.

    Each ``(worker, node, end tick)`` row is one node's only segment:
    job ``job_of[node]``, local node ``node - job_node_offsets[job]``,
    over ``[(end + 1 - works[node]) / speed, (end + 1) / speed)`` --
    the reference engine's ``starts[i] / speed`` and
    ``(end_tick + 1) / speed``, the same int-to-float divisions.
    """
    rows = w.tr[: 3 * int(w.state[S_NTRACE])].reshape(-1, 3)
    node = rows[:, 1]
    job = tables.job_of[node]
    jno = np.asarray(flat.job_node_offsets, dtype=np.int64)
    end = rows[:, 2] + 1
    trace.extend(
        rows[:, 0], job, node - jno[job],
        (end - tables.works[node]) / speed, end / speed,
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
    victim_policy: str,
    steal_half: bool,
    admission: str,
    trace: Any = None,
) -> ScheduleResult:
    """One replicate on the compiled kernel: a one-window run, no stop point.

    ``flat``'s arrivals must be sorted (``flat.arrivals_sorted``).
    With a ``trace``, the run's segments are appended to it, also when
    the run exceeds ``max_ticks``.
    """
    tables = _batch_tables(flat)
    n = tables.n_jobs
    if n == 0:
        return _empty_result(
            label, m, speed, tables.arrivals, tables.weights, seed, "cext"
        )
    rng = make_rng(seed)
    arr_ticks = tables.arr_ticks(speed)
    max_ticks = _max_ticks_bound(
        max_ticks, tables.total_work, n, int(arr_ticks[-1]), k, m
    )
    # The window aliases the cached immutable tables and owns fresh
    # copies of the two the kernel decrements.  Refills of the first
    # victim block happen lazily from C.
    w = _KernelWindow(
        m,
        rng,
        _first_victim_block(rng, m, victim_policy),
        tables.works,
        tables.eo,
        tables.et,
        tables.chain,
        tables.job_of,
        tables.jro,
        tables.roots,
        arr_ticks,
        tables.preds_master.copy(),
        tables.unfin_master.copy(),
        victim_policy=victim_policy,
        steal_half=steal_half,
        weights=tables.weights if admission == "weight" else None,
    )
    w.state = fresh_state(int(arr_ticks[0]))
    if trace is not None:
        # Every node completes at most once: one row each.
        w.tr = np.empty(3 * len(tables.works), dtype=np.int64)
    rc = w.call(n, False, m, k, sigma, max_ticks, NO_CHECKPOINT, speed)
    if trace is not None:
        _drain_trace(w, tables, flat, speed, trace)
    if rc != DONE:
        raise RuntimeError(
            f"work-stealing run exceeded max_ticks={max_ticks} "
            f"({int(w.state[S_COMPLETED])}/{n} jobs complete) -- "
            f"instance may be overloaded"
        )
    return ScheduleResult(
        scheduler=label,
        m=m,
        speed=speed,
        arrivals=tables.arrivals,
        completions=w.completions,
        weights=tables.weights,
        stats=_kernel_stats(w.state, tables.total_work, n),
        seed=None if isinstance(seed, np.random.Generator) else seed,
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
    (a :class:`FlatInstance` through :func:`~repro.dag.flat.to_jobset`),
    the ``trace`` rows included.  Each result's ``path`` and ``reasons``
    say which engine ran it and why.
    """
    _check_machine(m, speed)
    _check_work_stealing(k, steals_per_tick, victim_policy, admission)
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

    reasons = _slow_path_reasons(sampler)
    label = _scheduler_label(k, victim_policy, steal_half, admission)

    def reference(
        jobset: JobSet, seed: SeedLike, why: tuple
    ) -> ScheduleResult:
        result = _run_work_stealing(
            jobset,
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
        )
        result.reasons = why
        return result

    results: List[ScheduleResult] = []
    for inst, seed in zip(instances, seeds):
        jobset = to_jobset(inst) if isinstance(inst, FlatInstance) else inst
        if reasons:
            results.append(reference(jobset, seed, reasons))
            continue
        flat = flatten_jobset(jobset)
        if flat.arrivals_sorted:
            results.append(
                _run_kernel(
                    flat, m, speed, k, sigma, seed, max_ticks, label,
                    victim_policy, steal_half, admission, trace,
                )
            )
        else:
            # Unsorted hand-built arrivals: the set re-sorted and re-ided
            # the flat's jobs, so only the reference engine runs them.
            results.append(reference(jobset, seed, ("arrivals=unsorted",)))
    return results
