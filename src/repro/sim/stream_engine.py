"""Streaming tick engine: bounded-memory runs over lazy arrival streams.

``engine="flat"``'s streaming sibling for the case the paper describes --
an *online* system where jobs arrive over time and nobody holds the
future in memory.  :func:`_run_stream` consumes a
:class:`~repro.workloads.stream.StreamSpec` instead of a materialized
instance: CSR segments are generated lazily as simulated time reaches
them, completed jobs are retired and their arrays compacted away, and
metrics are accumulated online (:mod:`repro.metrics.online`), so peak
memory is O(live jobs + one chunk) instead of O(total jobs).

Execution
---------
Every run simulates over a *window* of jobs (:class:`_Window`): int64
numpy tables in window-local ids, the linked-list deques, and a state
vector holding the tick loop's loop-top scalars.  One driver,
:func:`_drive`, runs it.  It calls a *step*, which runs the tick loop
over the window until a stop point -- the window ran out of arrivals, a
checkpoint is due, ``max_ticks`` was reached, or the run is done -- and
returns the stop status.  Between steps the driver drains the step's
completion-order log into the online accumulators, pulls the next
segment (appending to the tables), compacts the retired prefix (slicing
the tables and re-basing every id, the deques included) and writes
checkpoints.  There are two steps with one contract, chosen once per
run; the result's ``path`` and ``reasons`` record which one ran and
why:

* **The compiled step** (``_Window.call``, inherited from
  :class:`repro.sim.batch_engine._KernelWindow`, the one kernel call
  site): the C kernel that also runs ``engine="flat"``, for every run
  without a ``utilization_window``.
* **The Python step** (:func:`_python_step`), a transcription of the
  kernel's loop, for the rest: a ``utilization_window`` (a sampler,
  which the kernel does not take), or a host where the kernel cannot be
  built (warned once per process, ``kernel=unavailable``).  It converts
  the tables to lists once per call and writes the mutable ones back on
  return.

Semantics
---------
Both steps are pinned, bit for bit, to the reference engine
(:func:`repro.sim.engine._run_work_stealing`): same phases, same
fast-forwards (completion-driven phase A over absolute finish ticks,
chain links, burst-resolved steal draws), same victim-draw blocks, same
counters -- re-based onto the window:

* the retire frontier is the first incomplete window job; everything
  before it is dead state.  Compaction (at segment pulls and
  checkpoints, once a chunk's worth of jobs has retired) slides the
  window: each job is appended once and removed once, amortized O(1);
* per-job completions feed :class:`~repro.metrics.online.
  OnlineFlowStats`, in completion order, instead of a completions
  array.  Both steps log the identical completions in the identical
  order, so every :class:`StreamResult` field is identical between
  them.  The running max is over the flows the materialized engine
  computes, so ``StreamResult.max_flow`` is bit-identical to
  ``repro.run("flat", stream.materialize(seed), m=m, seed=seed, ...)``,
  as are all final :class:`~repro.sim.result.SimulationStats` counters
  (asserted by ``tests/sim/test_stream_engine.py``).  Mean flow and the
  P^2 quantiles are online estimates (running sum / sketch), not
  bit-matched to their offline numpy counterparts.

One integer seed drives everything: the victim RNG is ``make_rng(seed)``
(the reference engine's stream) and workload generation derives per-chunk
child seeds from the same integer (:mod:`repro.workloads.stream`), so
the materialized twin of a streaming run is simply
``stream.materialize(seed)`` run with the same seed.  ``seed=None``
draws one entropy integer up front and records it on the result, so
even "irreproducible" runs checkpoint and resume exactly.

Checkpoint/restore
------------------
With ``checkpoint_dir`` set, the engine durably snapshots its complete
mutable state (window tables, worker arrays, queues, the victim RNG's
state and current draw block, the stream cursor, the online-metric
accumulators) every ``checkpoint_every`` completed jobs via
:mod:`repro.sim.checkpoint`, and writes a :mod:`repro.obs` manifest
alongside.  Checkpoints are taken right after an arrival-release block,
where the loop-top state is self-consistent: on resume the release
condition is false by construction (every due arrival was released, so
``next_at > t``), and execution re-enters the loop at exactly the
sampler/fast-forward point the uninterrupted run would have reached --
hence a killed-and-resumed run reproduces the uninterrupted run's
floats identically.  The driver writes every checkpoint, so a
checkpoint taken under either step resumes under the other.  The
``checkpoint`` fault stage (:mod:`repro.testing.faults`) fires right
*after* each durable save, giving chaos tests a deterministic kill
point that always leaves a valid checkpoint behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dag.flat import _check_csr
from repro.errors import SweepConfigError
from repro.metrics.online import OnlineFlowStats, WindowedUtilization
from repro.obs.manifest import build_manifest, write_manifest
from repro.sim._cext import (
    BLOCK as _BLOCK,
    CHECKPOINT,
    DONE,
    IDLE_AT as _IDLE_AT,
    MAX_TICKS,
    NEED_SEGMENT,
    NO_CHECKPOINT,
    S_ADMWAIT,
    S_ATT,
    S_COMPLETED,
    S_FAIL,
    S_FF,
    S_IDLE,
    S_MAXQ,
    S_N_BUSY,
    S_NE_COUNT,
    S_NEXT_ARR,
    S_NEXT_AT,
    S_NF,
    S_NLOG,
    S_P,
    S_Q_HEAD,
    S_T,
    fresh_state,
)
from repro.sim.batch_engine import (
    _derive_tables,
    _kernel_stats,
    _KernelWindow,
    _slow_path_reasons,
)
from repro.sim.checkpoint import (
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.engine import (
    _arrival_ticks,
    _check_machine,
    _check_work_stealing,
    _max_ticks_bound,
    _scheduler_label,
)
from repro.sim.policies import _first_victim_block
from repro.sim.result import SimulationStats
from repro.sim.rng import make_rng
from repro.sim.sampling import SystemSampler
from repro.testing.faults import maybe_inject
from repro.workloads.stream import StreamCursor, StreamSpec

PathLike = Union[str, Path]

#: Checkpoint state keys of the kernel's state-vector slots.  The queue
#: head and the non-empty-deque count are not stored: a checkpoint holds
#: the queue and the deques themselves.
_STATE_KEYS = (
    ("t", S_T),
    ("next_arr", S_NEXT_ARR),
    ("next_at", S_NEXT_AT),
    ("p", S_P),
    ("n_busy", S_N_BUSY),
    ("completed", S_COMPLETED),
    ("nf", S_NF),
    ("st_att", S_ATT),
    ("st_fail", S_FAIL),
    ("st_idle", S_IDLE),
    ("st_admwait", S_ADMWAIT),
    ("st_ff", S_FF),
    ("st_maxq", S_MAXQ),
)


@dataclass
class StreamResult:
    """Outcome of one streaming run (per-job arrays are gone by design).

    The online counterpart of :class:`~repro.sim.result.ScheduleResult`:
    aggregate objectives plus the engine's usual
    :class:`~repro.sim.result.SimulationStats`, extended with
    streaming-specific accounting (peak live jobs, segments,
    compactions, checkpoints).
    """

    scheduler: str
    m: int
    speed: float
    seed: int  #: effective seed (drawn entropy when the caller passed None)
    n_jobs: int
    max_flow: float  #: exact; bit-identical to the materialized run
    argmax_job: Optional[int]  #: global id of the job achieving max_flow
    mean_flow: float  #: online running mean (not bit-matched to numpy)
    quantiles: Dict[float, float]  #: P^2 sketch estimates per quantile
    makespan: float  #: last completion time
    stats: SimulationStats
    peak_live_jobs: int  #: max generated-but-incomplete jobs at any pull
    segments_generated: int
    compactions: int
    checkpoints_written: int = 0
    resumed_from: Optional[int] = None  #: completed-job count at restore
    utilization: Optional[WindowedUtilization] = None
    #: ``"cext"`` (the compiled step) or ``"python"`` (the Python step);
    #: like ``reasons`` (why the Python step ran), kept out of ``==``
    #: and :meth:`summary`: the two steps give the same numbers.
    path: str = field(default="cext", compare=False)
    reasons: Tuple[str, ...] = field(default=(), compare=False)

    def summary(self) -> Dict[str, Any]:
        """Flat dict for reports and telemetry."""
        out: Dict[str, Any] = {
            "scheduler": self.scheduler,
            "m": self.m,
            "speed": self.speed,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "max_flow": self.max_flow,
            "argmax_job": self.argmax_job,
            "mean_flow": self.mean_flow,
            "makespan": self.makespan,
            "peak_live_jobs": self.peak_live_jobs,
            "segments_generated": self.segments_generated,
            "compactions": self.compactions,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": self.resumed_from,
        }
        for q, value in sorted(self.quantiles.items()):
            out[f"p{round(q * 100):g}_flow"] = value
        out.update(self.stats.as_dict())
        if self.utilization is not None:
            out["utilization"] = self.utilization.overall()
        return out


def _config_token(
    stream: StreamSpec,
    m: int,
    speed: float,
    k: int,
    sigma: int,
    quantiles: Sequence[float],
    utilization_window: Optional[int],
) -> str:
    """Everything a checkpoint must agree on to be resumable."""
    return (
        f"stream-run({stream.spec_token()},m={m},speed={speed!r},k={k},"
        f"sigma={sigma},quantiles={tuple(sorted(float(q) for q in quantiles))},"
        f"util={utilization_window!r})"
    )


def _segment_tables(
    seg,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate one segment and derive its kernel tables.

    :func:`~repro.sim.batch_engine._derive_tables` of the segment:
    in-degrees, chain links, roots, ``jro`` and each node's job, in
    segment-local ids.
    """
    _check_csr(seg)
    return _derive_tables(
        seg.edge_offsets, seg.edge_targets, seg.job_node_offsets
    )


class _Checkpointer:
    """Durable checkpoint writes of one run: files, manifests, telemetry."""

    def __init__(
        self,
        directory: PathLike,
        keep: int,
        token: str,
        config: Dict[str, Any],
        seed: int,
        telemetry: Optional[Any],
    ) -> None:
        self.directory = directory
        self.keep = keep
        self.token = token
        self.config = config
        self.seed = seed
        self.telemetry = telemetry
        self.index = 0  #: index of the next checkpoint file
        self.written = 0  #: checkpoints written by the run, resumes included

    def save(self, arrays: Dict[str, np.ndarray], state: Dict[str, Any]) -> None:
        """Write one checkpoint, then fire the ``checkpoint`` fault stage."""
        state["checkpoints_written"] = self.written + 1
        state["seed"] = self.seed
        completed = state["completed"]
        t = state["t"]
        path = save_checkpoint(
            self.directory,
            self.index,
            arrays,
            state,
            self.token,
            keep=self.keep,
        )
        manifest = build_manifest(
            "stream-checkpoint",
            config=self.config,
            seed=self.seed,
            extra={
                "checkpoint": str(path),
                "completed": completed,
                "tick": t,
                "ckpt_index": self.index,
            },
        )
        write_manifest(manifest, Path(self.directory) / "manifests")
        if self.telemetry is not None:
            self.telemetry.emit(
                "ckpt.save",
                path=str(path),
                completed=completed,
                tick=t,
                index=self.index,
            )
        saved_index = self.index
        self.index += 1
        self.written += 1
        # Deterministic chaos hook: fires AFTER the durable write, so a
        # kill here always leaves a valid checkpoint to resume from.
        maybe_inject("checkpoint", index=saved_index)


@dataclass
class _Run:
    """Everything the driver needs: configuration and shared state.

    ``rng``, ``cursor``, ``fstats``, ``util`` and ``raw`` are already
    restored when the run resumes; ``restored`` then holds the
    checkpoint's ``(arrays, state)`` for the window.
    """

    n: int
    m: int
    speed: float
    k: int
    sigma: int
    max_ticks: Optional[int]
    compact_min: int
    checkpoint_every: int
    cursor: StreamCursor
    rng: np.random.Generator
    raw: Optional[np.ndarray]  #: the current victim-draw block (m > 1)
    fstats: OnlineFlowStats
    util: Optional[WindowedUtilization]
    ckpt: Optional[_Checkpointer]
    restored: Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]
    telemetry: Optional[Any]


def _run_stream(
    stream: StreamSpec,
    m: int,
    speed: float = 1.0,
    k: int = 0,
    seed: Optional[int] = None,
    steals_per_tick: int = 1,
    max_ticks: Optional[int] = None,
    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
    utilization_window: Optional[int] = None,
    checkpoint_dir: Optional[PathLike] = None,
    checkpoint_every: int = 262144,
    keep_checkpoints: int = 3,
    resume: bool = False,
    telemetry: Optional[Any] = None,
    _compact_min: Optional[int] = None,
) -> StreamResult:
    """Simulate steal-k-first work stealing over a lazy workload stream.

    Parameters mirror :func:`repro.sim.engine._run_work_stealing` where they
    overlap (``m``, ``speed``, ``k``, ``seed``, ``steals_per_tick``,
    ``max_ticks``) and keep its run contract; ``seed`` must be a plain
    int or None because checkpoints serialize it.  Streaming-specific knobs:

    quantiles:
        Flow-time quantiles to sketch online with P^2 (estimates; the
        max is tracked exactly regardless).
    utilization_window:
        When set, attach a :class:`~repro.metrics.online.
        WindowedUtilization` sampler with this window size (in ticks)
        and return it on the result.  Runs with a sampler take the
        Python step.
    checkpoint_dir / checkpoint_every / keep_checkpoints / resume:
        Durable state snapshots every ``checkpoint_every`` completed
        jobs; ``resume=True`` restores the newest complete checkpoint
        in the directory (a fresh run starts when there is none).
    _compact_min:
        Testing knob: retire-compact once this many window jobs are
        complete (default: the stream's ``chunk_jobs``).  Any value
        produces identical results; only memory timing changes.
    """
    if not isinstance(stream, StreamSpec):
        raise TypeError(
            f"_run_stream needs a StreamSpec (got {type(stream).__name__}); "
            f"materialized instances go through engine='flat'"
        )
    _check_machine(m, speed)
    _check_work_stealing(k, steals_per_tick)
    if resume and checkpoint_dir is None:
        raise SweepConfigError(
            "resume=True needs checkpoint_dir: there is nowhere to resume "
            "from.  Pass checkpoint_dir=<dir> (with the same parameters as "
            "the interrupted run)."
        )
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1 job, got {checkpoint_every}"
        )
    sigma = int(steals_per_tick)
    n = stream.n_jobs
    label = _scheduler_label(k, "uniform", False, "fifo")
    token = _config_token(
        stream, m, speed, k, sigma, quantiles, utilization_window
    )
    compact_min = (
        int(_compact_min) if _compact_min is not None else stream.chunk_jobs
    )
    if compact_min < 1:
        raise ValueError(f"_compact_min must be >= 1, got {_compact_min}")

    fstats = OnlineFlowStats(quantiles)
    util = (
        WindowedUtilization(m, utilization_window)
        if utilization_window is not None
        else None
    )

    # ---- fresh initial state -------------------------------------------
    # StreamCursor validates the seed type and replaces None with drawn
    # entropy; seed_eff keys the victim RNG too, so the whole run --
    # generation and scheduling -- is a function of one integer.
    cursor = StreamCursor(stream, seed)
    seed_eff = cursor.seed
    rng = make_rng(seed_eff)

    # A utilization_window attaches a sampler, which the kernel does not
    # take.
    reasons = _slow_path_reasons()
    if utilization_window is not None:
        reasons = (f"utilization_window={utilization_window}",) + reasons
    path = "python" if reasons else "cext"

    raw = _first_victim_block(rng, m)

    ckpt = None
    if checkpoint_dir is not None:
        ckpt = _Checkpointer(
            checkpoint_dir,
            keep_checkpoints,
            token,
            config={
                "stream": stream.spec_token(),
                "m": m,
                "speed": speed,
                "k": k,
                "steals_per_tick": sigma,
                "quantiles": [float(q) for q in quantiles],
                "utilization_window": utilization_window,
            },
            seed=seed_eff,
            telemetry=telemetry,
        )

    # ---- restore from the newest checkpoint, if asked -------------------
    # The run-wide state is restored here; the driver restores the
    # window from ``restored``.
    restored = None
    resumed_from: Optional[int] = None
    if resume and ckpt is not None:
        found = latest_checkpoint(ckpt.directory)
        if found is not None:
            arrays, st = load_checkpoint(found, token)
            restored = (arrays, st)
            if m > 1:
                raw = np.array(arrays["raw"], dtype=np.int64)
            rng.bit_generator.state = st["rng_state"]
            cursor = StreamCursor.restore(stream, st["cursor"])
            fstats.load_state(st["fstats"])
            if util is not None:
                util.load_state(st["util"])
            ckpt.index = int(st["index"]) + 1
            ckpt.written = int(st["checkpoints_written"])
            resumed_from = int(st["completed"])
            if telemetry is not None:
                telemetry.emit(
                    "ckpt.restore",
                    path=str(found),
                    completed=resumed_from,
                    tick=int(st["t"]),
                )

    if telemetry is not None:
        if reasons:
            telemetry.emit(
                "dispatch.slow_path", engine="stream", reasons=list(reasons)
            )
        telemetry.emit(
            "stream.start",
            n_jobs=n,
            chunk_jobs=stream.chunk_jobs,
            m=m,
            k=k,
            steals_per_tick=sigma,
            speed=speed,
            seed=seed_eff,
            resumed_from=resumed_from,
            path=path,
            reasons=list(reasons),
        )

    run = _Run(
        n=n,
        m=m,
        speed=speed,
        k=k,
        sigma=sigma,
        max_ticks=max_ticks,
        compact_min=compact_min,
        checkpoint_every=checkpoint_every,
        cursor=cursor,
        rng=rng,
        raw=raw,
        fstats=fstats,
        util=util,
        ckpt=ckpt,
        restored=restored,
        telemetry=telemetry,
    )
    step: _Step = (
        partial(_python_step, sampler=util)
        if reasons
        else _Window.call
    )
    stats, peak_live, segments_generated, compactions = _drive(run, step)

    result = StreamResult(
        scheduler=label,
        m=m,
        speed=speed,
        seed=seed_eff,
        n_jobs=n,
        max_flow=fstats.max_flow,
        argmax_job=fstats.argmax_job,
        mean_flow=fstats.mean_flow,
        quantiles=fstats.quantile_estimates(),
        makespan=fstats.last_completion,
        stats=stats,
        peak_live_jobs=peak_live,
        segments_generated=segments_generated,
        compactions=compactions,
        checkpoints_written=ckpt.written if ckpt is not None else 0,
        resumed_from=resumed_from,
        utilization=util,
        path=path,
        reasons=reasons,
    )
    if telemetry is not None:
        telemetry.emit(
            "stream.done",
            max_flow=result.max_flow,
            completed=n,
            elapsed_ticks=stats.elapsed_ticks,
            peak_live_jobs=peak_live,
            segments=segments_generated,
            compactions=compactions,
            checkpoints=result.checkpoints_written,
            path=path,
            reasons=list(reasons),
        )
    return result


def _rebase(ids: np.ndarray, cut: int) -> np.ndarray:
    """Node ids shifted down by ``cut``; -1 (none) stays -1."""
    return np.where(ids >= 0, ids - cut, -1)


class _Window(_KernelWindow):
    """The run's window: kernel tables that slide over the stream.

    Node-, edge- and job-indexed tables are rebuilt (appended to at
    segment pulls, sliced at compactions); worker arrays, the victim-draw
    block and the kernel's state vector keep their identity.  ``jno``
    and ``arrivals`` are the window's job-node offsets and arrival
    times.  ``boundary`` is the sampler's pending boundary snapshot, the
    one loop-top value the kernel does not keep (it takes no sampler).
    """

    def __init__(
        self, m: int, rng: np.random.Generator, raw: Optional[np.ndarray]
    ) -> None:
        # Shared placeholders: the first pull or a restore replaces
        # every table.
        empty = np.zeros(0, dtype=np.int64)
        head = np.zeros(1, dtype=np.int64)  # an empty CSR offset array
        super().__init__(
            m, rng, raw, empty, head, empty, empty, empty, head, empty,
            empty, empty, empty,
        )
        self.jno = head
        self.arrivals = np.zeros(0, dtype=np.float64)
        self.boundary = False

    def append(self, seg, speed: float) -> int:
        """Extend the tables with one segment; returns its work."""
        indeg, chain_np, roots_np, jro_np, job_of = _segment_tables(seg)
        node_base = len(self.works)
        n_nodes = seg.n_nodes
        cat = np.concatenate
        self.works = cat((self.works, seg.node_works))
        self.eo = cat((self.eo, seg.edge_offsets[1:] + len(self.et)))
        self.et = cat((self.et, seg.edge_targets + node_base))
        self.chain = cat(
            (self.chain, np.where(chain_np >= 0, chain_np + node_base, -1))
        )
        self.job_of = cat((self.job_of, job_of + len(self.unfin)))
        self.preds = cat((self.preds, indeg))
        unlinked = np.full(n_nodes, -1, dtype=np.int64)
        self.dq_next = cat((self.dq_next, unlinked))
        self.dq_prev = cat((self.dq_prev, unlinked))
        self.rdy = cat((self.rdy, unlinked))
        self.jno = cat((self.jno, seg.job_node_offsets[1:] + node_base))
        self.jro = cat((self.jro, jro_np[1:] + len(self.roots)))
        self.roots = cat((self.roots, roots_np + node_base))
        self.unfin = cat((self.unfin, np.diff(seg.job_node_offsets)))
        ticks = _arrival_ticks(seg.arrivals, speed)
        self.arr_ticks = cat((self.arr_ticks, ticks))
        self.arrivals = cat((self.arrivals, seg.arrivals))
        self._scratch()
        return int(seg.node_works.sum())

    def advance_frontier(self, frontier: int) -> int:
        """The first incomplete window job at or after ``frontier``."""
        busy = np.flatnonzero(self.unfin[frontier:])
        return frontier + int(busy[0]) if busy.size else len(self.unfin)

    def compact(self, fr: int) -> None:
        """Drop the first ``fr`` (retired) jobs and re-base every id.

        Retired jobs are fully complete: no worker, deque entry or queued
        job references the dropped prefix.  Absolute quantities (ticks,
        ``fin``, ``nf``, the RNG stream) are untouched.
        """
        node_cut = int(self.jno[fr])
        e_cut = int(self.eo[node_cut])
        root_cut = int(self.jro[fr])
        self.works = self.works[node_cut:].copy()
        self.eo = self.eo[node_cut:] - e_cut
        self.et = self.et[e_cut:] - node_cut
        self.chain = _rebase(self.chain[node_cut:], node_cut)
        self.job_of = self.job_of[node_cut:] - fr
        self.preds = self.preds[node_cut:].copy()
        self.dq_next = _rebase(self.dq_next[node_cut:], node_cut)
        self.dq_prev = _rebase(self.dq_prev[node_cut:], node_cut)
        self.rdy = self.rdy[node_cut:].copy()
        self.roots = self.roots[root_cut:] - node_cut
        self.jro = self.jro[fr:] - root_cut
        self.jno = self.jno[fr:] - node_cut
        self.unfin = self.unfin[fr:].copy()
        self.arr_ticks = self.arr_ticks[fr:].copy()
        self.arrivals = self.arrivals[fr:].copy()
        for arr in (self.cur, self.dq_head, self.dq_tail):
            arr[arr >= 0] -= node_cut
        self.state[S_NEXT_ARR] -= fr
        self.state[S_Q_HEAD] -= fr
        self._scratch()

    def drain(self, fstats: OnlineFlowStats, job_base: int) -> None:
        """Feed the call's completions to ``fstats`` in completion order."""
        jobs = self.log[: int(self.state[S_NLOG])]
        completions = self.completions[jobs]
        flows = completions - self.arrivals[jobs]
        flows[flows < 0.0] = 0.0
        fstats.observe_many(flows, completions, jobs + job_base)

    # -- checkpoint round-trip --------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The checkpoint arrays."""
        items: List[Tuple[int, int]] = []
        offsets = [0]
        for i in range(len(self.cur)):
            g = int(self.dq_head[i])
            while g >= 0:
                items.append((g, int(self.rdy[g])))
                g = int(self.dq_next[g])
            offsets.append(len(items))
        m = len(self.cur)
        return {
            "works": self.works,
            "eo": self.eo,
            "et": self.et,
            "chain": self.chain,
            "job_of": self.job_of,
            "preds": self.preds,
            "jno": self.jno,
            "jro": self.jro,
            "roots": self.roots,
            "unfin": self.unfin,
            "arr_ticks": self.arr_ticks,
            "arrivals": self.arrivals,
            "cur": self.cur,
            "fin": self.fin,
            "fails": self.fails,
            "queue": np.arange(
                self.state[S_Q_HEAD], self.state[S_NEXT_ARR], dtype=np.int64
            ),
            "deque_items": np.asarray(items, dtype=np.int64).reshape(-1, 2),
            "deque_offsets": np.asarray(offsets, dtype=np.int64),
            "ne": np.flatnonzero(self.dq_head >= 0).astype(np.int64),
            "raw": self.raw if m > 1 else np.zeros(0, dtype=np.int64),
        }

    def load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore the tables, worker arrays and deques of a checkpoint."""
        for name in (
            "works", "eo", "et", "chain", "job_of", "preds", "jno", "jro",
            "roots", "unfin", "arr_ticks",
        ):
            setattr(self, name, np.array(arrays[name], dtype=np.int64))
        self.arrivals = np.array(arrays["arrivals"], dtype=np.float64)
        self.cur[:] = arrays["cur"]
        self.fin[:] = arrays["fin"]
        self.fails[:] = arrays["fails"]
        n_nodes = len(self.works)
        self.dq_next = np.full(n_nodes, -1, dtype=np.int64)
        self.dq_prev = np.full(n_nodes, -1, dtype=np.int64)
        self.rdy = np.full(n_nodes, -1, dtype=np.int64)
        items = arrays["deque_items"]
        offsets = arrays["deque_offsets"]
        for i in range(len(self.cur)):
            nodes = items[offsets[i] : offsets[i + 1], 0]
            if not nodes.size:
                continue
            self.rdy[nodes] = items[offsets[i] : offsets[i + 1], 1]
            self.dq_head[i] = nodes[0]
            self.dq_tail[i] = nodes[-1]
            self.dq_next[nodes[:-1]] = nodes[1:]
            self.dq_prev[nodes[1:]] = nodes[:-1]
        self.dq_len[:] = np.diff(offsets)
        self._scratch()


#: A step runs the window from its state vector to the next stop point
#: and returns the stop status: ``_Window.call`` (the compiled kernel)
#: or :func:`_python_step`.  Arguments: the window, then ``n_total,
#: more, m, k, sigma, max_ticks, ckpt_at, speed``.
_Step = Callable[..., int]

#: The window tables a step writes (the draw block aside).
_STEP_MUTABLE = (
    "preds", "unfin", "cur", "fin", "fails",
    "dq_head", "dq_tail", "dq_next", "dq_prev", "rdy",
)


def _python_step(
    w: _Window,
    n_total: int,
    more: bool,
    m: int,
    k: int,
    sigma: int,
    max_ticks: int,
    ckpt_at: int,
    speed: float,
    *,
    sampler: Optional[SystemSampler] = None,
) -> int:
    """The Python step: ``repro_batch_run_rep``'s loop, transcribed.

    Same contract as the compiled step: it runs the window from its
    state vector to the next stop point and returns the same status,
    having advanced the window's tables, deques, draw block, completions
    and completion log as the kernel would.  The tables are converted to
    lists once per call and the mutable ones are written back on return.
    It adds what the kernel does not take: a ``sampler``, called where
    the reference engine calls it (``w.boundary`` carries a
    fast-forward's pending boundary snapshot across calls).
    """
    works = w.works.tolist()
    eo = w.eo.tolist()
    et = w.et.tolist()
    chain = w.chain.tolist()
    job_of = w.job_of.tolist()
    jro = w.jro.tolist()
    roots = w.roots.tolist()
    arr_ticks = w.arr_ticks.tolist()
    mutable = [a.tolist() for a in attrgetter(*_STEP_MUTABLE)(w)]
    (
        preds, unfin, cur, fin, fails, dq_head, dq_tail, dq_next, dq_prev,
        rdy,
    ) = mutable
    raw = w.raw.tolist()
    n = len(unfin)
    ne = set(np.flatnonzero(w.dq_head >= 0).tolist())  # non-empty deques
    log: List[int] = []  # jobs completed by this call, in order
    comp: List[float] = []  # and their completion times

    state = w.state.tolist()
    t = state[S_T]
    next_arr = state[S_NEXT_ARR]
    next_at = state[S_NEXT_AT]
    q_head = state[S_Q_HEAD]
    p = state[S_P]
    n_busy = state[S_N_BUSY]
    completed0 = completed = state[S_COMPLETED]
    nf = state[S_NF]
    st_att = state[S_ATT]
    st_fail = state[S_FAIL]
    st_idle = state[S_IDLE]
    st_admwait = state[S_ADMWAIT]
    st_ff = state[S_FF]
    st_maxq = state[S_MAXQ]
    boundary = w.boundary

    # The helpers bind every name they read as a default argument, and
    # no comprehension reads a local, so the loop's locals stay fast
    # locals rather than closure cells.
    def _push(
        i: int,
        g: int,
        ready: int,
        dq_head=dq_head,
        dq_tail=dq_tail,
        dq_next=dq_next,
        dq_prev=dq_prev,
        rdy=rdy,
        ne=ne,
    ) -> None:
        """``dq_push``: append node ``g`` to worker ``i``'s deque."""
        tail = dq_tail[i]
        rdy[g] = ready
        dq_next[g] = -1
        dq_prev[g] = tail
        if tail < 0:
            dq_head[i] = g
            ne.add(i)
        else:
            dq_next[tail] = g
        dq_tail[i] = g

    def _complete(
        i: int,
        end_tick: int,
        works=works,
        eo=eo,
        et=et,
        chain=chain,
        job_of=job_of,
        preds=preds,
        unfin=unfin,
        cur=cur,
        fin=fin,
        dq_head=dq_head,
        dq_tail=dq_tail,
        dq_prev=dq_prev,
        dq_next=dq_next,
        ne=ne,
        log=log,
        comp=comp,
        push=_push,
        speed=speed,
    ) -> int:
        """``complete_node``: finish worker ``i``'s node at the end of
        ``end_tick``; returns the worker's new finish tick (``IDLE_AT``
        when it went idle)."""
        g = cur[i]
        j = job_of[g]
        u = unfin[j] - 1
        unfin[j] = u
        g2 = chain[g]
        if g2 < 0:
            if u == 0:
                log.append(j)
                comp.append((end_tick + 1) / speed)
            for x in range(eo[g], eo[g + 1]):
                s2 = et[x]
                pc = preds[s2] - 1
                preds[s2] = pc
                if pc == 0:
                    if g2 < 0:
                        g2 = s2
                    else:  # an enabled sibling, ready next tick
                        push(i, s2, end_tick + 1)
            if g2 < 0:  # dq_pop_back: LIFO, own-deque continuation
                g2 = dq_tail[i]
                if g2 < 0:
                    cur[i] = -1
                    fin[i] = _IDLE_AT
                    return _IDLE_AT
                prev = dq_prev[g2]
                dq_tail[i] = prev
                if prev < 0:
                    dq_head[i] = -1
                    ne.discard(i)
                else:
                    dq_next[prev] = -1
        cur[i] = g2
        f = fin[i] = end_tick + works[g2]
        return f

    rc = DONE
    while completed < n_total:
        # ---- release arrivals due at or before the current tick --------
        if next_at <= t:
            while next_arr < n and arr_ticks[next_arr] <= t:
                next_arr += 1
            if next_arr < n:
                next_at = arr_ticks[next_arr]
            elif more:
                rc = NEED_SEGMENT  # pull a segment, then re-enter here
                break
            else:
                next_at = _IDLE_AT  # no further arrivals, ever
            if next_arr - q_head > st_maxq:
                st_maxq = next_arr - q_head
            if completed >= ckpt_at:
                rc = CHECKPOINT
                break

        if t >= max_ticks:
            rc = MAX_TICKS
            break

        if sampler is not None:
            if boundary:
                sampler.record_boundary(
                    t, n_busy, next_arr - q_head, len(ne), completed
                )
                boundary = False
            else:
                sampler.maybe_record(
                    t, n_busy, next_arr - q_head, len(ne), completed
                )

        # ---- fast-forward: whole system empty --------------------------
        if n_busy == 0 and q_head == next_arr:
            gap = next_at - t
            for i in range(m):
                f = fails[i] + gap * sigma
                fails[i] = f if f < k else k
            st_idle += gap * m
            st_ff += gap
            if sampler is not None:
                sampler.record_boundary(t, 0, 0, len(ne), completed)
                boundary = True
            t += gap
            continue

        # ---- fast-forward: every worker busy ---------------------------
        if n_busy == m:
            blind = nf - t
            if blind > 0:
                st_ff += blind
                if sampler is not None:
                    sampler.record_boundary(
                        t, n_busy, next_arr - q_head, len(ne), completed
                    )
                    boundary = True
                t += blind
                continue

        # ---- fast-forward: nothing stealable, nothing admissible -------
        elif not ne and n_busy > 0 and q_head == next_arr:
            delta = nf - t + 1
            if next_arr < n and next_at - t < delta:
                delta = next_at - t
            blind = delta - 1
            if blind >= 1:
                n_idle = m - n_busy
                for i in range(m):
                    if cur[i] < 0:
                        f = fails[i] + blind * sigma
                        fails[i] = f if f < k else k
                st_att += blind * n_idle * sigma
                st_fail += blind * n_idle * sigma
                st_ff += blind
                if sampler is not None:
                    sampler.record_boundary(t, n_busy, 0, 0, completed)
                    boundary = True
                t += blind
                continue

        # ---- general tick ----------------------------------------------
        # Workers idle at the start of the tick, before phase A: workers
        # idled by a completion cascade act from the next tick on.
        idles = [i for i, g in enumerate(cur) if g < 0] if n_busy < m else ()

        # Phase A: completion cascades; nf is recomputed wholesale.
        if nf == t:
            for i in range(m):
                if fin[i] == t and _complete(i, t) == _IDLE_AT:
                    n_busy -= 1
            nf = min(fin)

        # Phase B: idle workers admit, burn or steal.  ``g`` is the node
        # a worker acquires, ``ready`` whether it may run this tick.
        for i in idles:
            budget = sigma
            g = -1
            ready = True
            while budget > 0:
                fi = fails[i]
                if fi >= k and q_head != next_arr:
                    # Admit the head-of-line job.
                    ro = jro[q_head]
                    g = roots[ro]
                    for x in range(ro + 1, jro[q_head + 1]):
                        _push(i, roots[x], t)
                    st_admwait += t - arr_ticks[q_head]
                    q_head += 1
                    break
                if not ne:
                    # Nothing stealable: burn just enough to unlock
                    # admission when the queue is non-empty, else the
                    # whole budget -- no draws.
                    if q_head != next_arr and k - fi <= budget:
                        burned = k - fi
                    else:
                        burned = budget
                    f = fi + burned
                    fails[i] = f if f < k else k
                    st_att += burned
                    st_fail += burned
                    budget -= burned
                    continue
                # Live steal attempts against the draw block.
                allowed = budget
                if q_head != next_arr and k - fi < allowed:
                    allowed = k - fi
                got = -1
                while True:
                    if p == _BLOCK:
                        w.refill()
                        raw = w.raw.tolist()
                        p = 0
                    stop = p + allowed
                    if stop > _BLOCK:
                        stop = _BLOCK
                    for jdx in range(p, stop):
                        v = raw[jdx]
                        if v >= i:
                            v += 1
                        if dq_head[v] >= 0:
                            got = jdx
                            break
                    if got >= 0:
                        n_failed = got - p
                        fails[i] += n_failed
                        st_att += n_failed + 1
                        st_fail += n_failed
                        budget -= n_failed + 1
                        p = got + 1
                        break
                    n_failed = stop - p
                    fails[i] += n_failed
                    st_att += n_failed
                    st_fail += n_failed
                    budget -= n_failed
                    allowed -= n_failed
                    p = stop
                    if allowed == 0:
                        break
                if got < 0:
                    continue  # budget spent or admission unlocked
                # dq_pop_front: FIFO, steal.
                v = raw[got]
                victim = v + 1 if v >= i else v
                g = dq_head[victim]
                nxt = dq_next[g]
                dq_head[victim] = nxt
                if nxt < 0:
                    dq_tail[victim] = -1
                    ne.discard(victim)
                else:
                    dq_prev[nxt] = -1
                # Same-tick execution only if it was ready at tick start.
                ready = rdy[g] <= t
                break
            if g < 0:
                continue
            # The admission or steal consumes the rest of the tick.
            cur[i] = g
            fails[i] = 0
            n_busy += 1
            if sigma > 1 and ready:
                if works[g] == 1:
                    f = _complete(i, t)
                    if f == _IDLE_AT:
                        n_busy -= 1
                else:
                    f = fin[i] = t + works[g] - 1
            else:
                f = fin[i] = t + works[g]
            if f < nf:
                nf = f
        t += 1
        completed = completed0 + len(log)

    for name, values in zip(_STEP_MUTABLE, mutable):
        getattr(w, name)[:] = values
    nlog = state[S_NLOG]
    if log:
        w.log[nlog : nlog + len(log)] = log
        w.completions[log] = comp
    for slot, value in (
        (S_T, t),
        (S_NEXT_ARR, next_arr),
        (S_NEXT_AT, next_at),
        (S_Q_HEAD, q_head),
        (S_P, p),
        (S_N_BUSY, n_busy),
        (S_COMPLETED, completed),
        (S_NF, nf),
        (S_NE_COUNT, len(ne)),
        (S_ATT, st_att),
        (S_FAIL, st_fail),
        (S_IDLE, st_idle),
        (S_ADMWAIT, st_admwait),
        (S_FF, st_ff),
        (S_MAXQ, st_maxq),
        (S_NLOG, nlog + len(log)),
    ):
        w.state[slot] = value
    w.boundary = boundary
    return rc


def _drive(
    run: _Run, step: _Step
) -> Tuple[SimulationStats, int, int, int]:
    """The stream driver: pulls, compactions and checkpoints between steps.

    ``step`` runs the window to its next stop point.  Between steps the
    driver drains the completion log into the online accumulators, then
    acts on the stop status: it pulls the next segment (compacting the
    retired prefix first when a chunk's worth has retired), writes a
    checkpoint, or raises the engine's ``max_ticks`` error.  Returns the
    final stats, the peak live-job count, the segments generated and the
    compactions.
    """
    n = run.n
    m = run.m
    speed = run.speed
    k = run.k
    cursor = run.cursor
    rng = run.rng
    telemetry = run.telemetry
    w = _Window(m, rng, run.raw)
    state = w.state

    job_base = 0  # global id of window job 0
    frontier = 0  # window-local: all jobs < frontier are complete
    total_work_seen = 0
    peak_live = 0
    segments_generated = 0
    compactions = 0
    if run.restored is not None:
        arrays, st = run.restored
        w.load_arrays(arrays)
        for key, slot in _STATE_KEYS:
            state[slot] = int(st[key])
        queue = arrays["queue"]
        state[S_Q_HEAD] = queue[0] if queue.size else state[S_NEXT_ARR]
        state[S_NE_COUNT] = int(np.count_nonzero(w.dq_head >= 0))
        w.boundary = bool(st["boundary"])
        job_base = int(st["job_base"])
        frontier = int(st["frontier"])
        total_work_seen = int(st["total_work_seen"])
        peak_live = int(st["peak_live"])
        segments_generated = int(st["segments"])
        compactions = int(st["compactions"])

    def compact() -> None:
        nonlocal frontier, job_base, compactions
        w.compact(frontier)
        job_base += frontier
        frontier = 0
        compactions += 1

    def pull() -> None:
        """Generate the next chunk; retire-compact first when worthwhile."""
        nonlocal frontier, total_work_seen, segments_generated, peak_live
        completed = int(state[S_COMPLETED])
        frontier = w.advance_frontier(frontier)
        if frontier >= run.compact_min:
            retired = frontier
            before = len(w.unfin)
            compact()
            if telemetry is not None:
                telemetry.emit(
                    "stream.compact",
                    retired=retired,
                    window_before=before,
                    window_after=len(w.unfin),
                    completed=completed,
                )
        seg = cursor.next_segment()
        assert seg is not None  # a step stops for one only while more follow
        total_work_seen += w.append(seg, speed)
        segments_generated += 1
        live = cursor.emitted - completed
        if live > peak_live:
            peak_live = live
        if telemetry is not None:
            telemetry.emit(
                "stream.segment",
                index=segments_generated - 1,
                jobs=seg.n_jobs,
                window_jobs=len(w.unfin),
                live=live,
            )

    if run.restored is None:
        pull()
        state[:] = fresh_state(int(w.arr_ticks[0]))

    every = run.checkpoint_every
    last_ckpt_completed = int(state[S_COMPLETED])

    def bound() -> int:
        """``max_ticks`` over the generated prefix (the default grows
        with each segment to the materialized run's)."""
        last_tick = int(_arrival_ticks(cursor.last_arrival, speed))
        return _max_ticks_bound(
            run.max_ticks, total_work_seen, cursor.emitted, last_tick, k, m
        )

    max_ticks_eff = bound()
    while True:
        ckpt_at = (
            last_ckpt_completed + every
            if run.ckpt is not None
            else NO_CHECKPOINT
        )
        state[S_NLOG] = 0
        rc = step(
            w, n, not cursor.exhausted, m, k, run.sigma,
            max_ticks_eff, ckpt_at, speed,
        )
        w.drain(run.fstats, job_base)
        if rc == DONE:
            break
        if rc == MAX_TICKS:
            raise RuntimeError(
                f"work-stealing run exceeded max_ticks={max_ticks_eff} "
                f"({int(state[S_COMPLETED])}/{n} jobs complete) -- stream "
                f"may be overloaded"
            )
        if rc == CHECKPOINT:
            # Right after a full release, every arrival <= t is released:
            # on resume the step skips the release block (next_at > t)
            # and continues exactly here.
            frontier = w.advance_frontier(frontier)
            if frontier:
                compact()
            st = {key: int(state[slot]) for key, slot in _STATE_KEYS}
            st.update(
                job_base=job_base,
                frontier=frontier,
                total_work_seen=total_work_seen,
                peak_live=peak_live,
                segments=segments_generated,
                compactions=compactions,
                boundary=w.boundary,
                rng_state=rng.bit_generator.state,
                cursor=cursor.state_dict(),
                fstats=run.fstats.state_dict(),
                util=run.util.state_dict() if run.util is not None else None,
            )
            run.ckpt.save(w.to_arrays(), st)
            last_ckpt_completed = st["completed"]
        else:  # NEED_SEGMENT
            pull()
            max_ticks_eff = bound()

    stats = _kernel_stats(state, total_work_seen, n)
    return stats, peak_live, segments_generated, compactions
