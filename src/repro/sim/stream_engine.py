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
Every run simulates over a *window* of jobs, and takes one of two
paths, chosen by :func:`repro.sim.batch_engine._slow_path_reasons`:

* **The compiled kernel** (``_batch_kernel.c``, the one that runs
  ``engine="flat"``), for every configuration it covers.  The window
  tables are int64 numpy arrays.  The kernel's tick loop runs over them
  until a stop point -- the window ran out of arrivals, a checkpoint is
  due, ``max_ticks`` was reached, or the run is done -- and returns with
  its loop-top state in a state vector.  Between calls,
  :func:`_kernel_window` pulls the next segment (appending to the
  tables), compacts the retired prefix (slicing the tables and re-basing
  every id, the linked-list deques included), writes checkpoints, and
  drains the kernel's completion-order log into the online accumulators.
* **The Python window loop** (:func:`_python_window`), the one Python
  transcription of the tick loop, for the rest: a
  ``utilization_window`` (a sampler), ``_fast_forward=False``, or a host
  where the kernel cannot be built (warned once per process, like
  ``run_batch``).  Its window tables are Python lists mutated in place.

Semantics
---------
Both paths are pinned, bit for bit, to the reference engine
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
  array.  Both paths feed it the identical flow floats in the identical
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
floats identically.  Both paths write the same format, so either
resumes the other's checkpoints.  The ``checkpoint`` fault stage
(:mod:`repro.testing.faults`) fires right *after* each durable save,
giving chaos tests a deterministic kill point that always leaves a
valid checkpoint behind.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SweepConfigError
from repro.metrics.online import OnlineFlowStats, WindowedUtilization
from repro.obs.manifest import build_manifest, write_manifest
from repro.sim._cext import (
    BLOCK as _BLOCK,
    CHECKPOINT,
    DONE,
    IDLE_AT as _IDLE_AT,
    MAX_TICKS,
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
    resolve_batch_kernel,
)
from repro.sim.batch_engine import (
    _check_csr,
    _check_jobs,
    _kernel_stats,
    _ptr,
    _slow_path_reasons,
    _warn_slow_path,
)
from repro.sim.checkpoint import (
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.engine import _scheduler_label
from repro.sim.result import SimulationStats
from repro.sim.rng import make_rng
from repro.sim.sampling import SystemSampler
from repro.testing.faults import maybe_inject
from repro.workloads.stream import StreamCursor, StreamSpec

PathLike = Union[str, Path]

#: Live-attempt bursts shorter than this scan the draw list directly;
#: longer bursts amortize a per-value position index over the block
#: (measured crossover on the 500-job reference workload).
_SHORT_BURST = 8

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


def _stream_reasons(
    utilization_window: Optional[int] = None, _fast_forward: bool = True
) -> tuple:
    """Why a streaming run with these knobs takes the Python window loop.

    Empty means the run takes the compiled kernel.  A
    ``utilization_window`` attaches a sampler, which the kernel does
    not take.
    """
    return _slow_path_reasons(
        sampler=utilization_window, _fast_forward=_fast_forward
    )


def _segment_tables(
    seg,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate one segment and derive its kernel tables.

    Returns the segment-local in-degrees, chain links (sole successor
    with in-degree 1, else -1), ascending root list, per-job root
    offsets (``jro``, ``n_jobs + 1`` entries) and each node's job: the
    vectorized ``_BatchTables`` computations.  Edges never cross jobs,
    so per-segment derivation equals whole-instance derivation
    restricted to the segment.
    """
    _check_csr(seg)
    eo_np = seg.edge_offsets
    et_np = seg.edge_targets
    indeg = np.bincount(et_np, minlength=seg.n_nodes)
    outdeg = np.diff(eo_np)
    chain_np = np.full(seg.n_nodes, -1, dtype=np.int64)
    cand = np.flatnonzero(outdeg == 1)
    if cand.size:
        tgt = et_np[eo_np[cand]]
        ok = indeg[tgt] == 1
        chain_np[cand[ok]] = tgt[ok]
    roots_np = np.flatnonzero(indeg == 0)
    jro_np = np.searchsorted(roots_np, seg.job_node_offsets)
    job_of = np.repeat(
        np.arange(seg.n_jobs, dtype=np.int64), np.diff(seg.job_node_offsets)
    )
    _check_jobs(outdeg, et_np, job_of, jro_np)
    return indeg, chain_np, roots_np, jro_np, job_of


def _max_ticks_bound(
    user_max_ticks: Optional[int],
    total_work_seen: int,
    cursor: StreamCursor,
    speed: float,
    k: int,
    m: int,
) -> int:
    """The reference feasibility bound, over the generated prefix.

    Grows as segments arrive; once the stream is exhausted it equals
    the bound the reference computes for the full instance.
    """
    if user_max_ticks is not None:
        return user_max_ticks
    last_tick = int(np.ceil(cursor.last_arrival * speed - 1e-9))
    return (
        int(total_work_seen + (k + 2) * cursor.emitted + last_tick + 64 * m + 64)
        * 4
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
    """Everything either path needs: configuration and shared state.

    ``rng``, ``cursor``, ``fstats``, ``util`` and ``raw`` are already
    restored when the run resumes; ``restored`` then holds the
    checkpoint's ``(arrays, state)`` for the path's own tables.
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
    fast_forward: bool


#: What a path returns: final stats, peak live jobs, segments, compactions.
_PathOutcome = Tuple[SimulationStats, int, int, int]


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
    _fast_forward: bool = True,
    _compact_min: Optional[int] = None,
) -> StreamResult:
    """Simulate steal-k-first work stealing over a lazy workload stream.

    Parameters mirror :func:`repro.sim.engine._run_work_stealing` where they
    overlap (``m``, ``speed``, ``k``, ``seed``, ``steals_per_tick``,
    ``max_ticks``, ``_fast_forward``); ``seed`` must be a plain int or
    None because checkpoints serialize it.  Streaming-specific knobs:

    quantiles:
        Flow-time quantiles to sketch online with P^2 (estimates; the
        max is tracked exactly regardless).
    utilization_window:
        When set, attach a :class:`~repro.metrics.online.
        WindowedUtilization` sampler with this window size (in ticks)
        and return it on the result.  Runs with a sampler take the
        Python window loop.
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

    if n == 0:
        return StreamResult(
            scheduler=label,
            m=m,
            speed=speed,
            seed=seed_eff,
            n_jobs=0,
            max_flow=0.0,
            argmax_job=None,
            mean_flow=0.0,
            quantiles={float(q): float("nan") for q in quantiles},
            makespan=0.0,
            stats=SimulationStats(
                steal_attempts=0,
                failed_steals=0,
                admissions=0,
                admission_wait_ticks=0,
                ff_skipped_ticks=0,
                max_queue_depth=0,
            ),
            peak_live_jobs=0,
            segments_generated=0,
            compactions=0,
            utilization=util,
        )

    reasons = _stream_reasons(utilization_window, _fast_forward)
    _warn_slow_path(reasons)
    path = "python" if reasons else "cext"

    # The first victim-draw block, drawn up front like UniformVictim's.
    raw = rng.integers(0, m - 1, size=_BLOCK) if m > 1 else None

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
    # The state both paths share is restored here; each path restores
    # its own tables from ``restored``.
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
        fast_forward=_fast_forward,
    )
    stats, peak_live, segments_generated, compactions = (
        _python_window(run) if reasons else _kernel_window(run)
    )

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


def _python_window(run: _Run) -> _PathOutcome:
    """The Python window loop: the tick loop over window-local lists.

    Serves the configurations outside the compiled kernel's scope (a
    sampler, ``_fast_forward=False``) and hosts without the kernel.
    """
    n = run.n
    m = run.m
    speed = run.speed
    k = run.k
    sigma = run.sigma
    cursor = run.cursor
    rng = run.rng
    fstats = run.fstats
    util = run.util
    sampler: Optional[SystemSampler] = util  # duck-typed protocol
    compact_min = run.compact_min
    checkpoint_every = run.checkpoint_every
    telemetry = run.telemetry

    # Window-local tables: plain lists, only ever mutated IN PLACE (slice
    # assignment / del / extend), never rebound -- _complete()'s
    # default-bound references and the hot loop's locals must keep
    # pointing at the same objects across pulls and compactions.
    works: List[int] = []
    eo: List[int] = [0]
    et: List[int] = []
    chain: List[int] = []
    job_of: List[int] = []
    preds: List[int] = []
    jno: List[int] = [0]
    jro: List[int] = [0]
    roots_l: List[int] = []
    unfin: List[int] = []
    arr_ticks: List[int] = []
    arrivals_w: List[float] = []

    cur = [-1] * m  # current global node id, -1 when idle
    fin = [_IDLE_AT] * m  # absolute tick at whose END cur[i] completes
    fails = [0] * m  # consecutive failed steals (admission unlock)
    deques: List[deque] = [deque() for _ in range(m)]
    queue: deque = deque()  # FIFO of waiting window job ids
    ne: set = set()  # workers with a non-empty deque

    raw_np = run.raw
    raw = raw_np.tolist() if raw_np is not None else None
    p = 0  # next unconsumed draw position in the current block
    pos_of: Dict[int, list] = {}

    t = 0
    next_arr = 0  # window-local index of the next unreleased job
    next_at = 0  # tick of that job's arrival (set after the first pull)
    completed = 0
    n_busy = 0
    nf = _IDLE_AT  # min over busy workers of fin[i]
    job_base = 0  # global id of window job 0
    frontier = 0  # window-local: all jobs < frontier are complete
    total_work_seen = 0
    peak_live = 0
    segments_generated = 0
    compactions = 0
    last_ckpt_completed = 0
    resumed_from: Optional[int] = None

    st_att = 0
    st_fail = 0
    st_idle = 0
    st_admwait = 0
    st_ff = 0
    st_maxq = 0
    boundary = False  # force a sampler snapshot at the next loop top

    # ---- restore the window from the checkpoint, if resuming ------------
    if run.restored is not None:
        arrays, st = run.restored
        works[:] = arrays["works"].tolist()
        eo[:] = arrays["eo"].tolist()
        et[:] = arrays["et"].tolist()
        chain[:] = arrays["chain"].tolist()
        job_of[:] = arrays["job_of"].tolist()
        preds[:] = arrays["preds"].tolist()
        jno[:] = arrays["jno"].tolist()
        jro[:] = arrays["jro"].tolist()
        roots_l[:] = arrays["roots"].tolist()
        unfin[:] = arrays["unfin"].tolist()
        arr_ticks[:] = arrays["arr_ticks"].tolist()
        arrivals_w[:] = arrays["arrivals"].tolist()
        cur[:] = arrays["cur"].tolist()
        fin[:] = arrays["fin"].tolist()
        fails[:] = arrays["fails"].tolist()
        queue.clear()
        queue.extend(arrays["queue"].tolist())
        dq_flat = arrays["deque_items"]
        dq_off = arrays["deque_offsets"].tolist()
        for i in range(m):
            deques[i].clear()
            for x in range(dq_off[i], dq_off[i + 1]):
                deques[i].append((int(dq_flat[x, 0]), int(dq_flat[x, 1])))
        ne.clear()
        ne.update(int(v) for v in arrays["ne"].tolist())
        p = int(st["p"])
        pos_of = {}  # lazily rebuilt; depends only on raw_np and p
        t = int(st["t"])
        next_arr = int(st["next_arr"])
        next_at = int(st["next_at"])
        completed = int(st["completed"])
        n_busy = int(st["n_busy"])
        nf = int(st["nf"])
        job_base = int(st["job_base"])
        frontier = int(st["frontier"])
        total_work_seen = int(st["total_work_seen"])
        peak_live = int(st["peak_live"])
        segments_generated = int(st["segments"])
        compactions = int(st["compactions"])
        last_ckpt_completed = completed
        st_att = int(st["st_att"])
        st_fail = int(st["st_fail"])
        st_idle = int(st["st_idle"])
        st_admwait = int(st["st_admwait"])
        st_ff = int(st["st_ff"])
        st_maxq = int(st["st_maxq"])
        boundary = bool(st["boundary"])
        resumed_from = completed

    # Hot-path mirrors of the OnlineFlowStats scalar fields.  A method
    # call per completion costs more than the whole inlined update, so
    # the tick loop maintains these as plain locals and syncs them into
    # ``fstats`` only where its state is actually read: checkpoint
    # saves and the end of the run.  Sketch updates are the one
    # per-completion cost that cannot be deferred; with no quantiles
    # configured the tuple is empty and the loop is free.
    fs_max = fstats.max_flow
    fs_amax_job = fstats.argmax_job
    fs_amax_c = fstats.argmax_completion
    fs_sum = fstats.flow_sum
    fs_last = fstats.last_completion
    sk_updates = tuple(s.update for s in fstats.sketches.values())

    # Helper closures: every name the tick loop reads is either passed
    # explicitly or bound as a default argument here.  A free reference
    # from any nested function would turn that name into a cell variable
    # of _python_window, downgrading every hot-loop access from
    # LOAD_FAST to LOAD_DEREF -- a measured ~20% throughput loss.  Only
    # the names _complete must rebind (completed/n_busy/nf/idles_dirty,
    # plus job_base) stay cells.
    def _bound(
        total_work_seen: int,
        cursor=cursor,
        speed=speed,
        k=k,
        m=m,
        user_max_ticks=run.max_ticks,
    ) -> int:
        return _max_ticks_bound(
            user_max_ticks, total_work_seen, cursor, speed, k, m
        )

    def _append_segment(
        seg,
        works=works,
        eo=eo,
        et=et,
        chain=chain,
        job_of=job_of,
        preds=preds,
        jno=jno,
        jro=jro,
        roots_l=roots_l,
        unfin=unfin,
        arr_ticks=arr_ticks,
        arrivals_w=arrivals_w,
        speed=speed,
    ) -> int:
        """Extend the window tables with one segment; returns its work."""
        indeg, chain_np, roots_np, jro_np, seg_job_of = _segment_tables(seg)
        jno_np = seg.job_node_offsets
        job_sizes = np.diff(jno_np)

        node_base = len(works)
        jb_local = len(unfin)
        edge_base = len(et)
        root_base = len(roots_l)
        was_enabled = gc.isenabled()
        if was_enabled:
            # Appends materialize millions of acyclic ints; gen-2 passes
            # over the growing lists would dominate the pull.
            gc.disable()
        try:
            works.extend(seg.node_works.tolist())
            eo.extend((seg.edge_offsets[1:] + edge_base).tolist())
            et.extend((seg.edge_targets + node_base).tolist())
            chain.extend(
                np.where(chain_np >= 0, chain_np + node_base, -1).tolist()
            )
            job_of.extend((seg_job_of + jb_local).tolist())
            preds.extend(indeg.tolist())
            jno.extend((jno_np[1:] + node_base).tolist())
            jro.extend((jro_np[1:] + root_base).tolist())
            roots_l.extend((roots_np + node_base).tolist())
            unfin.extend(job_sizes.tolist())
            arr_ticks.extend(
                np.ceil(seg.arrivals * speed - 1e-9).astype(np.int64).tolist()
            )
            arrivals_w.extend(seg.arrivals.tolist())
        finally:
            if was_enabled:
                gc.enable()
        return int(seg.node_works.sum())

    def _advance_frontier(frontier: int, unfin=unfin) -> int:
        wn = len(unfin)
        while frontier < wn and unfin[frontier] == 0:
            frontier += 1
        return frontier

    def _compact(
        frontier: int,
        next_arr: int,
        job_base: int,
        works=works,
        eo=eo,
        et=et,
        chain=chain,
        job_of=job_of,
        preds=preds,
        jno=jno,
        jro=jro,
        roots_l=roots_l,
        unfin=unfin,
        arr_ticks=arr_ticks,
        arrivals_w=arrivals_w,
        cur=cur,
        deques=deques,
        queue=queue,
        m=m,
    ) -> Tuple[int, int, int]:
        """Drop the retired prefix and rewrite all live ids, in place.

        Returns the shifted ``(frontier, next_arr, job_base)``.  Only
        window-local *indices* change; every absolute quantity (ticks,
        fin, nf, the RNG stream) is untouched, so compaction is
        unobservable in the results (asserted via the ``_compact_min``
        knob).  Retired jobs are fully complete: no worker, deque entry,
        or queued job can reference the dropped prefix.
        """
        nonlocal compactions
        fr = frontier
        if fr == 0:
            return frontier, next_arr, job_base
        node_cut = jno[fr]
        e_cut = eo[node_cut]
        root_cut = jro[fr]
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            works[:] = works[node_cut:]
            eo[:] = [x - e_cut for x in eo[node_cut:]]
            et[:] = [x - node_cut for x in et[e_cut:]]
            chain[:] = [
                x - node_cut if x >= 0 else -1 for x in chain[node_cut:]
            ]
            job_of[:] = [x - fr for x in job_of[node_cut:]]
            preds[:] = preds[node_cut:]
            roots_l[:] = [x - node_cut for x in roots_l[root_cut:]]
            jro[:] = [x - root_cut for x in jro[fr:]]
            jno[:] = [x - node_cut for x in jno[fr:]]
            del unfin[:fr]
            del arr_ticks[:fr]
            del arrivals_w[:fr]
        finally:
            if was_enabled:
                gc.enable()
        for i in range(m):
            if cur[i] >= 0:
                cur[i] -= node_cut
            dq = deques[i]
            if dq:
                items = [(g - node_cut, rdy) for g, rdy in dq]
                dq.clear()
                dq.extend(items)
        if queue:
            items2 = [j - fr for j in queue]
            queue.clear()
            queue.extend(items2)
        compactions += 1
        return 0, next_arr - fr, job_base + fr

    def _pull_segment(
        completed: int,
        frontier: int,
        next_arr: int,
        job_base: int,
        cursor=cursor,
        unfin=unfin,
        compact_min=compact_min,
    ) -> Tuple[int, int, int]:
        """Generate the next chunk; retire-compact first when worthwhile.

        Returns the (possibly shifted) ``(frontier, next_arr, job_base)``.
        """
        nonlocal peak_live, segments_generated, total_work_seen
        frontier = _advance_frontier(frontier)
        if frontier >= compact_min:
            retired = frontier
            before = len(unfin)
            frontier, next_arr, job_base = _compact(
                frontier, next_arr, job_base
            )
            if telemetry is not None:
                telemetry.emit(
                    "stream.compact",
                    retired=retired,
                    window_before=before,
                    window_after=len(unfin),
                    completed=completed,
                )
        seg = cursor.next_segment()
        assert seg is not None  # caller checks cursor.exhausted first
        total_work_seen += _append_segment(seg)
        segments_generated += 1
        live = cursor.emitted - completed
        if live > peak_live:
            peak_live = live
        if telemetry is not None:
            telemetry.emit(
                "stream.segment",
                index=segments_generated - 1,
                jobs=seg.n_jobs,
                window_jobs=len(unfin),
                live=live,
            )
        return frontier, next_arr, job_base

    def _save_ckpt(
        t: int,
        next_arr: int,
        next_at: int,
        p: int,
        job_base: int,
        frontier: int,
        boundary: bool,
        raw_np,
        st_att: int,
        st_fail: int,
        st_idle: int,
        st_admwait: int,
        st_ff: int,
        st_maxq: int,
        works=works,
        eo=eo,
        et=et,
        chain=chain,
        job_of=job_of,
        preds=preds,
        jno=jno,
        jro=jro,
        roots_l=roots_l,
        unfin=unfin,
        arr_ticks=arr_ticks,
        arrivals_w=arrivals_w,
        cur=cur,
        fin=fin,
        fails=fails,
        deques=deques,
        queue=queue,
        ne=ne,
        rng=rng,
        cursor=cursor,
        fstats=fstats,
        util=util,
        m=m,
    ) -> None:
        """Durably snapshot every mutable value the loop can observe.

        The loop-state scalars arrive as arguments (they are rebound
        every tick); the window lists and accumulators are default-bound
        (mutated in place, never rebound).
        """
        dq_off = [0]
        dq_items: List[List[int]] = []
        for i in range(m):
            for g, rdy in deques[i]:
                dq_items.append([g, rdy])
            dq_off.append(len(dq_items))
        arrays = {
            "works": np.asarray(works, dtype=np.int64),
            "eo": np.asarray(eo, dtype=np.int64),
            "et": np.asarray(et, dtype=np.int64),
            "chain": np.asarray(chain, dtype=np.int64),
            "job_of": np.asarray(job_of, dtype=np.int64),
            "preds": np.asarray(preds, dtype=np.int64),
            "jno": np.asarray(jno, dtype=np.int64),
            "jro": np.asarray(jro, dtype=np.int64),
            "roots": np.asarray(roots_l, dtype=np.int64),
            "unfin": np.asarray(unfin, dtype=np.int64),
            "arr_ticks": np.asarray(arr_ticks, dtype=np.int64),
            "arrivals": np.asarray(arrivals_w, dtype=np.float64),
            "cur": np.asarray(cur, dtype=np.int64),
            "fin": np.asarray(fin, dtype=np.int64),
            "fails": np.asarray(fails, dtype=np.int64),
            "queue": np.asarray(list(queue), dtype=np.int64),
            "deque_items": np.asarray(dq_items, dtype=np.int64).reshape(-1, 2),
            "deque_offsets": np.asarray(dq_off, dtype=np.int64),
            "ne": np.asarray(sorted(ne), dtype=np.int64),
            "raw": (
                raw_np if raw_np is not None else np.zeros(0, dtype=np.int64)
            ),
        }
        run.ckpt.save(
            arrays,
            {
                "t": t,
                "next_arr": next_arr,
                "next_at": next_at,
                "completed": completed,
                "n_busy": n_busy,
                "nf": nf,
                "p": p,
                "job_base": job_base,
                "frontier": frontier,
                "total_work_seen": total_work_seen,
                "peak_live": peak_live,
                "segments": segments_generated,
                "compactions": compactions,
                "st_att": st_att,
                "st_fail": st_fail,
                "st_idle": st_idle,
                "st_admwait": st_admwait,
                "st_ff": st_ff,
                "st_maxq": st_maxq,
                "boundary": boundary,
                "rng_state": rng.bit_generator.state,
                "cursor": cursor.state_dict(),
                "fstats": fstats.state_dict(),
                "util": util.state_dict() if util is not None else None,
            },
        )

    if resumed_from is None:
        frontier, next_arr, job_base = _pull_segment(
            completed, frontier, next_arr, job_base
        )
        next_at = arr_ticks[0]
        t = next_at  # nothing can happen before the first arrival

    max_ticks_eff = _bound(total_work_seen)
    ckpt_enabled = run.ckpt is not None
    ff = run.fast_forward

    idles: List[int] = []
    idles_dirty = True

    def _complete(
        i: int,
        end_tick: int,
        # Free variables rebound as defaults (LOAD_FAST instead of
        # LOAD_DEREF); valid because the window lists are only ever
        # mutated in place, never rebound.
        works=works,
        chain=chain,
        job_of=job_of,
        eo=eo,
        et=et,
        preds=preds,
        unfin=unfin,
        cur=cur,
        fin=fin,
        deques=deques,
        ne=ne,
        arrivals_w=arrivals_w,
        speed=speed,
        sk_updates=sk_updates,
    ) -> None:
        """Finish worker ``i``'s current node at the end of ``end_tick``.

        The reference cascade: decrement the job's unfinished count,
        enable successors (first enabled child continues on this worker,
        the rest push onto its deque), else pop the worker's own deque
        LIFO, else go idle; a chain link skips the successor walk when
        the outcome is forced.  Job completion feeds the online
        accumulators.  Phase A inlines a copy of this body; keep the two
        in sync.
        """
        nonlocal completed, n_busy, nf, idles_dirty
        nonlocal fs_max, fs_amax_job, fs_amax_c, fs_sum, fs_last
        g = cur[i]
        j = job_of[g]
        u = unfin[j] - 1
        unfin[j] = u
        cn = chain[g]
        if cn >= 0:
            cur[i] = cn
            f = end_tick + works[cn]
            fin[i] = f
            if f < nf:
                nf = f
            return
        lo = eo[g]
        hi = eo[g + 1]
        if u == 0:
            c = (end_tick + 1) / speed
            flow = c - arrivals_w[j]
            if flow < 0.0:
                flow = 0.0
            fs_sum += flow
            if flow > fs_max:
                fs_max = flow
                fs_amax_job = job_base + j
                fs_amax_c = c
            if c > fs_last:
                fs_last = c
            if sk_updates:
                for _upd in sk_updates:
                    _upd(flow)
            completed += 1
        if lo != hi:
            if hi - lo == 1:
                s2 = et[lo]
                pc = preds[s2] - 1
                preds[s2] = pc
                if pc == 0:
                    cur[i] = s2
                    f = end_tick + works[s2]
                    fin[i] = f
                    if f < nf:
                        nf = f
                    return
            else:
                first = -1
                extras = None
                for s2 in et[lo:hi]:
                    pc = preds[s2] - 1
                    preds[s2] = pc
                    if pc == 0:
                        if first < 0:
                            first = s2
                        elif extras is None:
                            extras = [s2]
                        else:
                            extras.append(s2)
                if first >= 0:
                    cur[i] = first
                    f = end_tick + works[first]
                    fin[i] = f
                    if f < nf:
                        nf = f
                    if extras is not None:
                        dq = deques[i]
                        if not dq:
                            ne.add(i)
                        nt = end_tick + 1
                        for s2 in extras:
                            dq.append((s2, nt))
                    return
        dq = deques[i]
        if dq:
            g2 = dq.pop()[0]
            if not dq:
                ne.discard(i)
            cur[i] = g2
            f = end_tick + works[g2]
            fin[i] = f
            if f < nf:
                nf = f
        else:
            cur[i] = -1
            fin[i] = _IDLE_AT
            n_busy -= 1
            idles_dirty = True

    while completed < n:
        # ---- release arrivals due at or before the current tick ---------
        # Draining the window may require pulling the next segment to
        # learn the next arrival tick (one-chunk generation lookahead,
        # the stream's only one).
        if next_at <= t:
            while True:
                wn = len(unfin)
                while next_arr < wn and arr_ticks[next_arr] <= t:
                    queue.append(next_arr)
                    next_arr += 1
                if next_arr < wn:
                    next_at = arr_ticks[next_arr]
                    break
                if cursor.exhausted:
                    next_at = _IDLE_AT  # no further arrivals, ever
                    break
                frontier, next_arr, job_base = _pull_segment(
                    completed, frontier, next_arr, job_base
                )
                max_ticks_eff = _bound(total_work_seen)
            ql = len(queue)
            if ql > st_maxq:
                st_maxq = ql
            if (
                ckpt_enabled
                and completed - last_ckpt_completed >= checkpoint_every
            ):
                # Post-release is a clean cut: every arrival <= t is
                # released, so on resume the release block is skipped
                # (next_at > t) and the loop continues exactly here.
                frontier = _advance_frontier(frontier)
                frontier, next_arr, job_base = _compact(
                    frontier, next_arr, job_base
                )
                # Flush the hot-path mirrors so the serialized fstats
                # state is current (count tracks completed exactly).
                fstats.max_flow = fs_max
                fstats.argmax_job = fs_amax_job
                fstats.argmax_completion = fs_amax_c
                fstats.flow_sum = fs_sum
                fstats.last_completion = fs_last
                fstats.count = completed
                _save_ckpt(
                    t, next_arr, next_at, p, job_base, frontier,
                    boundary, raw_np, st_att, st_fail, st_idle,
                    st_admwait, st_ff, st_maxq,
                )
                last_ckpt_completed = completed

        if t >= max_ticks_eff:
            raise RuntimeError(
                f"work-stealing run exceeded max_ticks={max_ticks_eff} "
                f"({completed}/{n} jobs complete) -- stream may be overloaded"
            )

        if sampler is not None:
            if boundary:
                sampler.record_boundary(t, n_busy, len(queue), len(ne), completed)
                boundary = False
            else:
                sampler.maybe_record(t, n_busy, len(queue), len(ne), completed)

        if ff:
            # ---- fast-forward: whole system empty -----------------------
            if n_busy == 0 and not queue:
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

            # ---- fast-forward: every worker busy ------------------------
            if n_busy == m:
                blind = nf - t
                if blind > 0:
                    st_ff += blind
                    if sampler is not None:
                        sampler.record_boundary(
                            t, n_busy, len(queue), len(ne), completed
                        )
                        boundary = True
                    t += blind
                    continue

            # ---- fast-forward: nothing stealable, nothing admissible ----
            elif not ne and n_busy > 0 and not queue:
                delta = nf - t + 1
                if next_at < _IDLE_AT and next_at - t < delta:
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

        # ---- general tick -------------------------------------------------
        if idles_dirty:
            idles = []
            for i in range(m):
                if cur[i] < 0:
                    idles.append(i)
            idles_dirty = False

        # Phase A: inlined copy of _complete() minus the nf upkeep (nf is
        # recomputed wholesale).
        if nf == t:
            nt = t + 1
            nfi = _IDLE_AT
            for i in range(m):
                f = fin[i]
                if f == t:
                    g = cur[i]
                    j = job_of[g]
                    u = unfin[j] - 1
                    unfin[j] = u
                    cn = chain[g]
                    if cn >= 0:
                        cur[i] = cn
                        f = t + works[cn]
                        fin[i] = f
                        if f < nfi:
                            nfi = f
                        continue
                    lo = eo[g]
                    hi = eo[g + 1]
                    if u == 0:
                        c = nt / speed
                        flow = c - arrivals_w[j]
                        if flow < 0.0:
                            flow = 0.0
                        fs_sum += flow
                        if flow > fs_max:
                            fs_max = flow
                            fs_amax_job = job_base + j
                            fs_amax_c = c
                        if c > fs_last:
                            fs_last = c
                        if sk_updates:
                            for _upd in sk_updates:
                                _upd(flow)
                        completed += 1
                    if lo != hi:
                        if hi - lo == 1:
                            s2 = et[lo]
                            pc = preds[s2] - 1
                            preds[s2] = pc
                            if pc == 0:
                                cur[i] = s2
                                f = t + works[s2]
                                fin[i] = f
                                if f < nfi:
                                    nfi = f
                                continue
                        else:
                            first = -1
                            extras = None
                            for s2 in et[lo:hi]:
                                pc = preds[s2] - 1
                                preds[s2] = pc
                                if pc == 0:
                                    if first < 0:
                                        first = s2
                                    elif extras is None:
                                        extras = [s2]
                                    else:
                                        extras.append(s2)
                            if first >= 0:
                                cur[i] = first
                                f = t + works[first]
                                fin[i] = f
                                if f < nfi:
                                    nfi = f
                                if extras is not None:
                                    dq = deques[i]
                                    if not dq:
                                        ne.add(i)
                                    for s2 in extras:
                                        dq.append((s2, nt))
                                continue
                    dq = deques[i]
                    if dq:
                        g2 = dq.pop()[0]
                        if not dq:
                            ne.discard(i)
                        cur[i] = g2
                        f = t + works[g2]
                        fin[i] = f
                    else:
                        cur[i] = -1
                        f = _IDLE_AT
                        fin[i] = f
                        n_busy -= 1
                        idles_dirty = True
                if f < nfi:
                    nfi = f
            nf = nfi

        # Phase B: idle workers acquire work in the reference's branch
        # order (admission, burn, live attempts) with the same RNG draw
        # count; failed live attempts resolve in bulk against the block.
        for i in idles:
            budget = sigma
            while budget > 0:
                fi = fails[i]
                if fi >= k and queue:
                    jb = queue.popleft()
                    ro = jro[jb]
                    rhi = jro[jb + 1]
                    r0 = roots_l[ro]
                    cur[i] = r0
                    fails[i] = 0
                    n_busy += 1
                    idles_dirty = True
                    st_admwait += t - arr_ticks[jb]
                    if rhi - ro > 1:
                        dq = deques[i]
                        if not dq:
                            ne.add(i)
                        for x in range(ro + 1, rhi):
                            dq.append((roots_l[x], t))
                    if sigma > 1:
                        if works[r0] == 1:
                            _complete(i, t)
                        else:
                            f = t + works[r0] - 1
                            fin[i] = f
                            if f < nf:
                                nf = f
                    else:
                        f = t + works[r0]
                        fin[i] = f
                        if f < nf:
                            nf = f
                    break
                if not ne:
                    if queue and k - fi <= budget:
                        burned = k - fi
                    else:
                        burned = budget
                    f2 = fi + burned
                    fails[i] = f2 if f2 < k else k
                    st_att += burned
                    st_fail += burned
                    budget -= burned
                    if budget > 0:
                        continue
                    break
                allowed = budget
                if queue:
                    d = k - fi
                    if d < allowed:
                        allowed = d
                got = -1
                while True:
                    if p == _BLOCK:
                        raw_np = rng.integers(0, m - 1, size=_BLOCK)
                        raw = raw_np.tolist()
                        p = 0
                        pos_of = {}
                    stop = p + allowed
                    if stop > _BLOCK:
                        stop = _BLOCK
                    if allowed < _SHORT_BURST or 2 * len(ne) >= m - 1:
                        got = -1
                        for jdx in range(p, stop):
                            v = raw[jdx]
                            if v >= i:
                                v += 1
                            if deques[v]:
                                got = jdx
                                break
                    else:
                        best = stop
                        for s in ne:
                            if s == i:
                                continue
                            c2 = s if s < i else s - 1
                            entry = pos_of.get(c2)
                            if entry is None:
                                lst = np.flatnonzero(raw_np == c2).tolist()
                                lst.append(_BLOCK)
                                entry = [lst, 0]
                                pos_of[c2] = entry
                            lst = entry[0]
                            q = entry[1]
                            pos = lst[q]
                            while pos < p:
                                q += 1
                                pos = lst[q]
                            entry[1] = q
                            if pos < best:
                                best = pos
                        got = best if best < stop else -1
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
                    continue
                v = raw[got]
                victim = v + 1 if v >= i else v
                vdq = deques[victim]
                g2, rdy = vdq.popleft()
                if not vdq:
                    ne.discard(victim)
                cur[i] = g2
                fails[i] = 0
                n_busy += 1
                idles_dirty = True
                if sigma > 1 and rdy <= t:
                    if works[g2] == 1:
                        _complete(i, t)
                    else:
                        f = t + works[g2] - 1
                        fin[i] = f
                        if f < nf:
                            nf = f
                else:
                    f = t + works[g2]
                    fin[i] = f
                    if f < nf:
                        nf = f
                break

        t += 1

    fstats.max_flow = fs_max
    fstats.argmax_job = fs_amax_job
    fstats.argmax_completion = fs_amax_c
    fstats.flow_sum = fs_sum
    fstats.last_completion = fs_last
    fstats.count = completed

    stats = SimulationStats()
    stats.busy_steps = total_work_seen
    stats.steal_attempts = st_att
    stats.failed_steals = st_fail
    stats.admissions = n
    stats.idle_steps = st_idle
    stats.elapsed_ticks = t
    stats.admission_wait_ticks = st_admwait
    stats.ff_skipped_ticks = st_ff
    stats.max_queue_depth = st_maxq
    return stats, peak_live, segments_generated, compactions


def _rebase(ids: np.ndarray, cut: int) -> np.ndarray:
    """Node ids shifted down by ``cut``; -1 (none) stays -1."""
    return np.where(ids >= 0, ids - cut, -1)


class _KernelWindow:
    """The kernel path's window: int64 numpy tables in window-local ids.

    Node-, edge- and job-indexed tables are rebuilt (appended to at
    segment pulls, sliced at compactions); worker arrays, the victim-draw
    block and the kernel's state vector keep their identity.  The deques
    are linked lists: ``dq_head``/``dq_tail`` per worker and
    ``dq_next``/``dq_prev`` per node, with each queued node's ready tick
    in ``rdy``.  The FIFO queue is the job range ``[q_head, next_arr)``.
    """

    def __init__(self, m: int, raw: Optional[np.ndarray]) -> None:
        def empty() -> np.ndarray:
            return np.zeros(0, dtype=np.int64)

        self.works = empty()
        self.eo = np.zeros(1, dtype=np.int64)
        self.et = empty()
        self.chain = empty()
        self.job_of = empty()
        self.preds = empty()
        self.dq_next = empty()
        self.dq_prev = empty()
        self.rdy = empty()
        self.jno = np.zeros(1, dtype=np.int64)
        self.jro = np.zeros(1, dtype=np.int64)
        self.roots = empty()
        self.unfin = empty()
        self.arr_ticks = empty()
        self.arrivals = np.zeros(0, dtype=np.float64)
        self.cur = np.full(m, -1, dtype=np.int64)
        self.fin = np.full(m, _IDLE_AT, dtype=np.int64)
        self.fails = np.zeros(m, dtype=np.int64)
        self.idles = np.zeros(m, dtype=np.int64)
        self.dq_head = np.full(m, -1, dtype=np.int64)
        self.dq_tail = np.full(m, -1, dtype=np.int64)
        # With one worker there are no victims and the block is unused.
        self.raw = raw if raw is not None else np.zeros(_BLOCK, dtype=np.int64)
        self.state = np.zeros(N_STATE, dtype=np.int64)
        self._scratch()

    def _scratch(self) -> None:
        """Size the completion outputs to the window: a call completes
        at most every window job once."""
        wn = len(self.unfin)
        self.completions = np.zeros(wn, dtype=np.float64)
        self.log = np.zeros(wn, dtype=np.int64)

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
        self.arr_ticks = cat((
            self.arr_ticks,
            np.ceil(seg.arrivals * speed - 1e-9).astype(np.int64),
        ))
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

    def call(
        self,
        kernel: Any,
        n_total: int,
        more: bool,
        m: int,
        k: int,
        sigma: int,
        max_ticks: int,
        ckpt_at: int,
        speed: float,
        refill: Any,
    ) -> int:
        """Run the kernel to its next stop point; returns its status."""
        self.state[S_NLOG] = 0
        return kernel(
            _ptr(self.works),
            _ptr(self.eo),
            _ptr(self.et),
            _ptr(self.chain),
            _ptr(self.job_of),
            _ptr(self.jro),
            _ptr(self.roots),
            _ptr(self.arr_ticks),
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
            _ptr(self.raw),
            _ptr(self.log),
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
            refill,
            0,
        )

    def drain(self, fstats: OnlineFlowStats, job_base: int) -> None:
        """Feed the call's completions to ``fstats`` in completion order."""
        jobs = self.log[: int(self.state[S_NLOG])]
        completions = self.completions[jobs]
        flows = completions - self.arrivals[jobs]
        flows[flows < 0.0] = 0.0
        fstats.observe_many(flows, completions, jobs + job_base)

    # -- checkpoint round-trip --------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The checkpoint arrays, in the format both paths share."""
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
        self._scratch()


def _kernel_window(run: _Run) -> _PathOutcome:
    """The kernel driver: pulls, compactions and checkpoints between calls.

    Every stop point of the compiled loop corresponds to one place in
    the Python window loop (the segment pull inside the release block,
    the checkpoint right after it, the ``max_ticks`` raise), and the
    driver does there what that loop does, so the two paths produce
    identical results and identical checkpoints.
    """
    kernel = resolve_batch_kernel()
    n = run.n
    m = run.m
    speed = run.speed
    k = run.k
    cursor = run.cursor
    rng = run.rng
    telemetry = run.telemetry
    w = _KernelWindow(m, run.raw)
    state = w.state
    raw = w.raw

    def _refill(rep: int) -> None:
        raw[:] = rng.integers(0, m - 1, size=_BLOCK)

    refill = REFILL_CFUNC(_refill)

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
        assert seg is not None  # the kernel stops only while more follow
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
    max_ticks_eff = _max_ticks_bound(
        run.max_ticks, total_work_seen, cursor, speed, k, m
    )
    while True:
        ckpt_at = (
            last_ckpt_completed + every
            if run.ckpt is not None
            else NO_CHECKPOINT
        )
        rc = w.call(
            kernel, n, not cursor.exhausted, m, k, run.sigma,
            max_ticks_eff, ckpt_at, speed, refill,
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
                boundary=False,
                rng_state=rng.bit_generator.state,
                cursor=cursor.state_dict(),
                fstats=run.fstats.state_dict(),
                util=None,
            )
            run.ckpt.save(w.to_arrays(), st)
            last_ckpt_completed = st["completed"]
        else:  # NEED_SEGMENT
            pull()
            max_ticks_eff = _max_ticks_bound(
                run.max_ticks, total_work_seen, cursor, speed, k, m
            )

    stats = _kernel_stats(state, total_work_seen, n)
    return stats, peak_live, segments_generated, compactions
