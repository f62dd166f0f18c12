"""The :func:`repro.run` facade: one entrypoint for every engine.

:func:`run` is the single way to simulate a schedule, with normalized
knobs (``m`` or its alias ``num_workers``, ``speed`` or its alias
``augmentation``):

* pass a :class:`~repro.core.base.Scheduler` *instance* (or a Scheduler
  subclass, instantiated with defaults) to dispatch through its
  polymorphic ``run``;
* pass an *engine name string* to reach an engine directly:
  ``"work-stealing"`` (the reference tick engine; extra keyword
  arguments such as ``k``, ``steals_per_tick``, ``trace`` forward to
  it), ``"flat"`` (the compiled kernel,
  :func:`repro.sim.batch_engine.run_batch` at one replicate --
  bit-identical to the reference, same knobs, and additionally accepts
  a :class:`~repro.dag.flat.FlatInstance` directly; knobs outside the
  kernel's scope, or a host without a C compiler, run the reference
  engine, and only the missing compiler is warned) or ``"speedup-fifo"`` /
  ``"speedup-equi"`` (the speedup-curves engines, which take a
  :class:`~repro.speedup.model.SpeedupJobSet`).  An engine name is
  wrapped in the same :class:`_EngineScheduler` adapter
  :func:`repro.sweep` uses, so both facades share one name table.

The facade is also where observability attaches: pass
``telemetry=Telemetry(...)`` and the run emits ``run.start`` /
``run.done`` events (scheduler label, machine size, wall time, and the
full :class:`~repro.sim.result.SimulationStats` snapshot).  With
``telemetry=None`` nothing is recorded and the schedule is
bit-identical -- the engines never see the telemetry object at all.

ISSUE 4 adds the sibling :func:`repro.sweep` facade: the same scheduler
forms and keyword normalization, dispatched to
:func:`~repro.experiments.sweep._grid_sweep`'s fault-tolerant executor
(per-cell deadlines, bounded retries, pool respawn, lossless resume).
One mental model covers both: ``repro.run`` simulates one instance,
``repro.sweep`` crosses a parameter grid over generated instances.
"""

from __future__ import annotations

import copy
import functools
import time
from typing import Any, Callable, Dict, Optional, Sequence, Union

from repro.core.base import Scheduler
from repro.errors import SweepConfigError
from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike

#: Engine-name strings accepted by :func:`run`.
ENGINE_NAMES = ("work-stealing", "flat", "speedup-fifo", "speedup-equi")

#: The valid instance/stream combinations, quoted by configuration
#: errors so the fix is visible in the message itself.
_STREAM_COMBINATIONS = (
    "valid combinations:\n"
    "  repro.run(engine_or_scheduler, jobset, m=...)        "
    "-- materialized instance (any engine)\n"
    "  repro.run('flat', stream=spec.stream(), m=...)       "
    "-- streaming run (bounded memory, returns StreamResult)\n"
    "  repro.sweep(scheduler, grid, workload, m=...)        "
    "-- grid sweep over materialized instances (no stream=)"
)


def _n_jobs(jobset: Any) -> int:
    """Job count of either instance form (JobSet or FlatInstance)."""
    n = getattr(jobset, "n_jobs", None)
    return int(n) if n is not None else len(jobset)


def _resolve_size(
    m: Optional[int], num_workers: Optional[int], who: str = "run()"
) -> int:
    """Normalize the machine-size aliases (``m`` wins the docs)."""
    if m is not None and num_workers is not None and m != num_workers:
        raise TypeError(
            f"got both m={m} and num_workers={num_workers}; "
            f"they are aliases -- pass exactly one"
        )
    size = m if m is not None else num_workers
    if size is None:
        raise TypeError(f"{who} requires a machine size: pass m=...")
    return int(size)


def _resolve_speed(
    speed: Optional[float], augmentation: Optional[float]
) -> float:
    """Normalize the speed aliases (``speed`` is canonical)."""
    if speed is not None and augmentation is not None and speed != augmentation:
        raise TypeError(
            f"got both speed={speed} and augmentation={augmentation}; "
            f"they are aliases -- pass exactly one"
        )
    if speed is not None:
        return float(speed)
    if augmentation is not None:
        return float(augmentation)
    return 1.0


def run(
    scheduler: Union[Scheduler, type, str],
    jobset: Any = None,
    *,
    stream: Optional[Any] = None,
    m: Optional[int] = None,
    num_workers: Optional[int] = None,
    speed: Optional[float] = None,
    augmentation: Optional[float] = None,
    seed: SeedLike = None,
    telemetry: Optional[Any] = None,
    **engine_kwargs: Any,
) -> ScheduleResult:
    """Simulate ``scheduler`` on ``jobset`` (see module docstring).

    Parameters
    ----------
    scheduler:
        A :class:`~repro.core.base.Scheduler` instance, a Scheduler
        subclass (instantiated with its defaults), or an engine name
        from :data:`ENGINE_NAMES`.
    jobset:
        A :class:`~repro.dag.job.JobSet` (DAG engines) or
        :class:`~repro.speedup.model.SpeedupJobSet` (speedup engines).
        Omit it when passing ``stream=``.
    stream:
        A :class:`~repro.workloads.stream.StreamSpec` (from
        :meth:`WorkloadSpec.stream`) for a bounded-memory streaming run;
        only valid with the ``"flat"`` engine name and exclusive with
        ``jobset``.  The run returns a
        :class:`~repro.sim.stream_engine.StreamResult` (online metrics,
        no per-job arrays); streaming keyword arguments
        (``checkpoint_dir``, ``checkpoint_every``, ``resume``,
        ``quantiles``, ``utilization_window``, ...) forward to
        :func:`~repro.sim.stream_engine._run_stream`.  See
        docs/STREAMING.md.
    m, num_workers:
        Machine size; ``num_workers`` is an accepted alias, pass exactly
        one.
    speed, augmentation:
        Resource augmentation factor (default 1.0); ``augmentation`` is
        an accepted alias, pass exactly one.
    seed:
        Seed for randomized policies.  The deterministic speedup engines
        take no seed and reject a non-None one loudly rather than
        silently ignoring it.
    telemetry:
        Optional :class:`repro.obs.Telemetry`; when given, ``run.start``
        and ``run.done`` events are emitted around the simulation.
        ``run.done`` carries the ``path`` the result reports
        (``"cext"`` or ``"reference"``), and a result that names
        ``reasons`` for not taking the compiled loop
        (``kernel=unavailable``, a ``sampler``,
        ``dynamic=True``, ``arrivals=unsorted``) is reported in a
        ``dispatch.slow_path`` event first.  Never alters the schedule.
    **engine_kwargs:
        Forwarded to the dispatch target (e.g. ``k=16`` for
        ``"work-stealing"``, ``trace=...``/``sampler=...`` for
        schedulers that accept them).

    Returns
    -------
    ScheduleResult
        Bit-identical to calling the underlying engine directly.
        (Streaming runs return a StreamResult instead.)
    """
    size = _resolve_size(m, num_workers)
    s = _resolve_speed(speed, augmentation)

    if stream is not None:
        return _run_streaming(
            scheduler,
            jobset,
            stream,
            size,
            s,
            seed,
            telemetry,
            engine_kwargs,
        )
    if jobset is None:
        raise SweepConfigError(
            "run() got no instance: pass a JobSet/FlatInstance as the "
            "second argument, or stream= a StreamSpec.\n"
            + _STREAM_COMBINATIONS
        )

    engine = "scheduler"
    if isinstance(scheduler, str):
        engine = scheduler
        if engine in ("speedup-fifo", "speedup-equi") and seed is not None:
            raise TypeError(
                f"{engine!r} is deterministic and takes no seed; "
                f"got seed={seed!r}"
            )
        # Engine knobs travel in the adapter, not in the run call.
        scheduler = _EngineScheduler(engine, **engine_kwargs)
        engine_kwargs = {}
    elif isinstance(scheduler, type) and issubclass(scheduler, Scheduler):
        scheduler = scheduler()
    if not isinstance(scheduler, Scheduler):
        raise TypeError(
            f"scheduler must be a Scheduler, a Scheduler subclass, or an "
            f"engine name string, got {type(scheduler).__name__}"
        )

    def dispatch() -> ScheduleResult:
        return scheduler.run(
            jobset, m=size, speed=s, seed=seed, **engine_kwargs
        )

    if telemetry is None:
        return dispatch()

    telemetry.emit(
        "run.start",
        scheduler=scheduler.name,
        engine=engine,
        m=size,
        speed=s,
        seed=seed,
        n_jobs=_n_jobs(jobset),
    )
    t0 = time.perf_counter()
    result = dispatch()
    wall = time.perf_counter() - t0
    if result.reasons:
        # Every fallback run is recorded here; the engines warn only
        # once per process, and only for kernel=unavailable.
        telemetry.emit(
            "dispatch.slow_path", engine=engine, reasons=list(result.reasons)
        )
    telemetry.emit(
        "run.done",
        scheduler=result.scheduler,
        engine=engine,
        m=size,
        speed=s,
        wall_s=round(wall, 6),
        max_flow=result.max_flow,
        stats=result.stats.as_dict(),
        path=result.path,
    )
    return result


def _run_streaming(
    scheduler: Union[Scheduler, type, str],
    jobset: Any,
    stream: Any,
    size: int,
    s: float,
    seed: SeedLike,
    telemetry: Optional[Any],
    engine_kwargs: Dict[str, Any],
) -> Any:
    """Validate the ``stream=`` combination and dispatch to the engine.

    All rejections are :class:`~repro.errors.SweepConfigError` with the
    valid-combination table in the message -- a bounded-memory 10M-job
    run that dies on a bare ``TypeError`` hours in is the failure mode
    this guards against, so misconfiguration must be caught before any
    simulation starts.
    """
    from repro.sim.stream_engine import _run_stream
    from repro.workloads.stream import StreamSpec

    if jobset is not None:
        raise SweepConfigError(
            f"run() got both a materialized instance "
            f"({type(jobset).__name__}) and stream=: a run is either "
            f"materialized or streaming, never both.\n"
            + _STREAM_COMBINATIONS
        )
    if not isinstance(stream, StreamSpec):
        hint = (
            " (call .stream() on it to get a StreamSpec)"
            if hasattr(stream, "stream")
            else ""
        )
        raise SweepConfigError(
            f"stream= expects a StreamSpec, got "
            f"{type(stream).__name__}{hint}.\n" + _STREAM_COMBINATIONS
        )
    if not (isinstance(scheduler, str) and scheduler == "flat"):
        shown = (
            repr(scheduler)
            if isinstance(scheduler, str)
            else type(scheduler).__name__
        )
        raise SweepConfigError(
            f"streaming runs are only supported by the 'flat' engine "
            f"(got {shown}): the streaming kernel is the fast tick "
            f"loop over a sliding window.\n" + _STREAM_COMBINATIONS
        )

    if telemetry is None:
        return _run_stream(
            stream, size, speed=s, seed=seed, **engine_kwargs
        )
    telemetry.emit(
        "run.start",
        scheduler="flat",
        engine="stream",
        m=size,
        speed=s,
        seed=seed,
        n_jobs=stream.n_jobs,
    )
    # The engine emits dispatch.slow_path itself; run.done records the
    # path here too, as it does for materialized runs.
    t0 = time.perf_counter()
    result = _run_stream(
        stream, size, speed=s, seed=seed, telemetry=telemetry, **engine_kwargs
    )
    telemetry.emit(
        "run.done",
        scheduler=result.scheduler,
        engine="stream",
        m=size,
        speed=s,
        wall_s=round(time.perf_counter() - t0, 6),
        max_flow=result.max_flow,
        stats=result.stats.as_dict(),
        path=result.path,
        reasons=list(result.reasons),
    )
    return result


# ----------------------------------------------------------------------
# The repro.sweep() facade (ISSUE 4)
# ----------------------------------------------------------------------


class _EngineScheduler(Scheduler):
    """Adapter presenting a named engine as a :class:`Scheduler`.

    The one engine-name table: :func:`run` wraps an engine name in it,
    and :func:`sweep` crosses a parameter grid over it exactly as it
    does over a scheduler class, the grid's keyword arguments becoming
    engine keyword arguments (e.g. ``k=16`` for ``"work-stealing"``).
    Module-level and attribute-only, hence picklable across pool
    workers; its ``repr`` is content-stable so the cell cache can key
    on it.
    """

    def __init__(self, engine: str, **engine_kwargs: Any):
        if engine not in ENGINE_NAMES:
            raise SweepConfigError(
                f"unknown engine name {engine!r}; "
                f"expected one of {ENGINE_NAMES} or a Scheduler"
            )
        if engine not in ("work-stealing", "flat") and engine_kwargs:
            raise TypeError(
                f"{engine!r} accepts no extra engine arguments; "
                f"got {sorted(engine_kwargs)}"
            )
        self.engine = engine
        self.engine_kwargs = engine_kwargs

    @property
    def name(self) -> str:
        return self.engine

    @property
    def consumes_flat(self) -> bool:
        """Whether :meth:`run` can take a raw :class:`FlatInstance`.

        The sweep layer ships every instance as a :class:`FlatInstance`
        and checks this to decide whether a task derives the
        ``to_jobset()`` view first; when true it hands the kernel the
        attached CSR arrays directly.
        """
        return self.engine == "flat"

    def run(
        self,
        jobset: Any,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[Any] = None,
    ) -> ScheduleResult:
        if self.engine in ("work-stealing", "flat"):
            kwargs = dict(self.engine_kwargs)
            if trace is not None:
                kwargs["trace"] = trace
            if self.engine == "work-stealing":
                from repro.sim.engine import _run_work_stealing

                return _run_work_stealing(
                    jobset, m=m, speed=speed, seed=seed, **kwargs
                )
            from repro.sim.batch_engine import run_batch

            return run_batch(
                [jobset], m=m, speed=speed, seeds=[seed], **kwargs
            )[0]
        from repro.speedup.engine import _run_speedup_equi, _run_speedup_fifo

        target = (
            _run_speedup_fifo
            if self.engine == "speedup-fifo"
            else _run_speedup_equi
        )
        # The speedup engines are deterministic: the sweep's derived
        # cell seeds carry no information for them and are dropped.
        return target(jobset, m=m, speed=speed)

    def __repr__(self) -> str:
        opts = "".join(
            f", {k}={self.engine_kwargs[k]!r}"
            for k in sorted(self.engine_kwargs)
        )
        return f"_EngineScheduler({self.engine!r}{opts})"


class _InstanceFactory:
    """Per-cell factory cloning a prototype scheduler instance.

    ``sweep(WorkStealingScheduler(k=4, steals_per_tick=64), ...)`` must
    vary grid parameters while keeping the prototype's other
    configuration.  Each cell gets a shallow copy of the prototype with
    the cell's grid parameters assigned over it -- schedulers are
    stateless policy descriptions (see :class:`repro.core.base`), so a
    shallow copy is a faithful clone.  Unknown parameter names fail
    loudly: silently creating attributes would "sweep" nothing.

    Picklable (the prototype travels by value) and content-keyed: the
    ``repr`` folds in the prototype's full ``vars()``, so two factories
    over differently configured prototypes never share cache cells.
    """

    def __init__(self, prototype: Scheduler):
        self.prototype = prototype

    def __call__(self, **params: Any) -> Scheduler:
        sched = copy.copy(self.prototype)
        for key, value in params.items():
            if not hasattr(sched, key):
                raise SweepConfigError(
                    f"{type(sched).__name__} has no parameter {key!r}; "
                    f"grid keys must name attributes of the prototype "
                    f"scheduler"
                )
            setattr(sched, key, value)
        return sched

    def __repr__(self) -> str:
        state = ", ".join(
            f"{k}={v!r}" for k, v in sorted(vars(self.prototype).items())
        )
        return (
            f"_InstanceFactory({type(self.prototype).__qualname__}({state}))"
        )


def _as_factory(scheduler: Union[Scheduler, type, str, Callable]) -> Callable:
    """Normalize every accepted scheduler form into a cell factory."""
    if isinstance(scheduler, type):
        if not issubclass(scheduler, Scheduler):
            raise TypeError(
                f"scheduler class must subclass Scheduler, got "
                f"{scheduler.__name__}"
            )
        return scheduler
    if isinstance(scheduler, Scheduler):
        return _InstanceFactory(scheduler)
    if isinstance(scheduler, str):
        _EngineScheduler(scheduler)  # fails fast on an unknown name
        return functools.partial(_EngineScheduler, scheduler)
    if callable(scheduler):
        return scheduler
    raise TypeError(
        f"scheduler must be a Scheduler, a Scheduler subclass, an engine "
        f"name string, or a factory callable, got "
        f"{type(scheduler).__name__}"
    )


def sweep(
    scheduler: Union[Scheduler, type, str, Callable],
    grid: Dict[str, Sequence[Any]],
    workload: Callable[[int], Any],
    *,
    stream: Optional[Any] = None,
    m: Optional[int] = None,
    num_workers: Optional[int] = None,
    speed: Optional[float] = None,
    augmentation: Optional[float] = None,
    reps: int = 1,
    seed: int = 0,
    metrics: Sequence[str] = ("max_flow", "mean_flow"),
    max_workers: Optional[int] = None,
    cache: Any = None,
    resume: bool = False,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    telemetry: Optional[Any] = None,
    shard: Union[tuple, str, None] = None,
):
    """Run a fault-tolerant parameter-grid sweep (mirror of :func:`run`).

    ``repro.run`` simulates one instance; ``repro.sweep`` crosses a
    parameter grid over generated instances, on the supervised executor
    of :mod:`repro.experiments.parallel` (per-cell deadlines, bounded
    deterministic retries, pool respawn, incremental checkpointing into
    the content-addressed cache; each repetition instance reaches a
    pool worker once).

    Parameters
    ----------
    scheduler:
        The same forms :func:`run` accepts, plus a factory callable:

        * a :class:`~repro.core.base.Scheduler` *subclass* -- called
          with one keyword argument per grid dimension;
        * a Scheduler *instance* -- used as a prototype: each cell gets
          a copy with the grid parameters assigned over it (they must
          name existing attributes);
        * an *engine name* (``"work-stealing"``, ``"flat"``,
          ``"speedup-fifo"``, ``"speedup-equi"``) -- grid parameters
          forward to the engine (the deterministic speedup engines
          accept none and ignore seeds).  ``"flat"`` additionally runs
          pool workers straight on the repetition's CSR arrays,
          skipping the per-worker object-graph rebuild;
        * any other *callable* -- passed through unchanged, i.e. the
          raw :func:`~repro.experiments.sweep._grid_sweep` contract.
    grid:
        Parameter name -> values to sweep (full cross product).
    workload:
        Callable mapping a derived repetition seed to an instance; a
        :class:`~repro.workloads.WorkloadSpec` works directly and
        additionally unlocks the instance cache and the vectorized
        build path.
    stream:
        Not supported: sweeps materialize per-repetition instances.
        Passing a value raises :class:`~repro.errors.SweepConfigError`
        pointing at ``repro.run('flat', stream=...)``.
    m, num_workers:
        Machine size; aliases, pass exactly one.
    speed, augmentation:
        Resource augmentation factor (default 1.0); aliases, pass
        exactly one.
    reps, seed, metrics, max_workers, cache, resume, telemetry:
        Forwarded to :func:`~repro.experiments.sweep._grid_sweep`
        unchanged.
    cell_timeout, retries:
        Fault-tolerance knobs (see
        :func:`repro.experiments.parallel.parallel_map`): per-cell
        deadline in seconds and retry budget for crashed / hung cells.
        Defaults resolve from ``REPRO_CELL_TIMEOUT`` / ``REPRO_RETRIES``
        (the CLI's ``--cell-timeout`` / ``--retries``).
    shard:
        Run one shard of the grid for multi-host scale-out: ``(index,
        count)`` or ``"index/count"`` (identical after normalization;
        invalid values raise :class:`~repro.errors.SweepConfigError`).
        Shards partition the grid's cells disjointly and exhaustively,
        each writing into its own ``cache`` dir with a shard manifest;
        :func:`repro.merge_caches` combines them into one resumable
        cache, and a final ``resume=True`` sweep over it is
        bit-identical to an unsharded run.  Requires an explicit
        ``cache`` (or ``REPRO_CACHE``).  See
        :func:`repro.experiments.sweep._grid_sweep` and EXPERIMENTS.md.

    Returns
    -------
    SweepResult
        Cells in cross-product order (the shard's slice when ``shard=``
        is given); bit-identical to an undisturbed serial run even when
        workers crashed, hung, or were retried.
    """
    if stream is not None:
        raise SweepConfigError(
            "sweep() does not take stream=: a sweep crosses a grid over "
            "*materialized* per-repetition instances, while a streaming "
            "run is one bounded-memory simulation -- use "
            "repro.run('flat', stream=..., m=...) for that.\n"
            + _STREAM_COMBINATIONS
        )
    # Lazy import: repro.api must stay importable without pulling the
    # experiments stack (numpy-heavy) until a sweep actually runs.
    from repro.experiments.sweep import _grid_sweep

    size = _resolve_size(m, num_workers, who="sweep()")
    s = _resolve_speed(speed, augmentation)
    factory = _as_factory(scheduler)
    return _grid_sweep(
        factory,
        grid,
        workload,
        m=size,
        reps=reps,
        seed=seed,
        speed=s,
        metrics=metrics,
        max_workers=max_workers,
        cache=cache,
        resume=resume,
        telemetry=telemetry,
        cell_timeout=cell_timeout,
        retries=retries,
        shard=shard,
    )


# ----------------------------------------------------------------------
# The repro.search() / repro.ablate() facades (ISSUE 9)
# ----------------------------------------------------------------------


def search(
    scheduler: Union[Scheduler, type, str, Callable],
    space: Dict[str, Sequence[Any]],
    workload: Callable[[int], Any],
    *,
    budget: Optional[float] = None,
    objective: str = "max_flow",
    metrics: Optional[Sequence[str]] = None,
    m: Optional[int] = None,
    num_workers: Optional[int] = None,
    speed: Optional[float] = None,
    augmentation: Optional[float] = None,
    r0: int = 1,
    eta: int = 2,
    rounds: Optional[int] = None,
    reps: int = 1,
    seed: int = 0,
    refine: Optional[str] = None,
    refine_generations: int = 3,
    refine_population: Optional[int] = None,
    cache: Any = None,
    max_workers: Optional[int] = None,
    telemetry: Optional[Any] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
):
    """Adaptively search a candidate space instead of sweeping it.

    The third member of the facade family: ``repro.run`` simulates one
    instance, ``repro.sweep`` pays for every grid point, ``repro.search``
    answers the *question* behind the grid while evaluating only the
    candidates that stay competitive.  Two modes, picked by ``budget``:

    * **optimize** (``budget=None``) -- deterministic successive halving
      over the full ``space`` (optionally polished by a ``refine="ga"``
      stage): round ``r`` evaluates the surviving candidates at
      ``r0 * eta**r`` repetitions and keeps the best ``1/eta`` fraction.
      Returns the incumbent as a
      :class:`~repro.experiments.search.SearchResult`.
    * **threshold** (``budget=<float>``) -- ``space`` must hold exactly
      one axis, sorted ascending; bisects it for the smallest value
      whose ``objective`` meets the budget, assuming the objective is
      non-increasing along the axis.  The axis may be a scheduler knob
      or the speed axis itself (``{"speed": [...]}`` /
      ``{"augmentation": [...]}``) -- the paper's minimum-epsilon
      question::

          repro.search(
              WorkStealingScheduler(k=16),
              {"speed": [1.0, 1.1, 1.25, 1.5, 2.0]},
              workload, m=16, budget=150.0, reps=3,
          )

        raises :class:`~repro.errors.SearchInfeasibleError` when even
        the largest candidate misses the budget.

    Accepts every scheduler form of :func:`run`/:func:`sweep` (instance
    prototype, subclass, engine name, raw factory) and the same keyword
    aliases (``num_workers``≡``m``, ``augmentation``≡``speed``).  Every
    candidate evaluation routes through the content-addressed cell
    cache with *global* cell identity, so search cells are byte-identical
    to exhaustive-sweep cells, refinement rounds re-hitting a coordinate
    are nearly free, and a rerun against the same ``cache`` directory is
    almost entirely cache hits.  Same seed, same pruning decisions, same
    incumbent -- bit-for-bit.
    """
    from repro.experiments.search import successive_halving, threshold_search

    size = _resolve_size(m, num_workers, who="search()")
    s = _resolve_speed(speed, augmentation)
    factory = _as_factory(scheduler)
    if budget is not None:
        if not isinstance(space, dict) or len(space) != 1:
            raise SweepConfigError(
                f"threshold search (budget=...) needs exactly one "
                f"candidate axis, got "
                f"{sorted(space) if isinstance(space, dict) else space!r}; "
                f"pass space={{param: sorted_values}}"
            )
        ((param, values),) = space.items()
        return threshold_search(
            factory,
            param,
            values,
            workload,
            m=size,
            budget=budget,
            objective=objective,
            metrics=metrics,
            reps=reps,
            seed=seed,
            speed=s,
            cache=cache,
            max_workers=max_workers,
            telemetry=telemetry,
            cell_timeout=cell_timeout,
            retries=retries,
        )
    if reps != 1:
        raise SweepConfigError(
            f"reps={reps} only applies to threshold mode (budget=...); "
            f"successive halving controls repetitions through r0/eta "
            f"(round r evaluates at r0 * eta**r reps)"
        )
    return successive_halving(
        factory,
        space,
        workload,
        m=size,
        objective=objective,
        metrics=metrics,
        r0=r0,
        eta=eta,
        rounds=rounds,
        seed=seed,
        speed=s,
        refine=refine,
        refine_generations=refine_generations,
        refine_population=refine_population,
        cache=cache,
        max_workers=max_workers,
        telemetry=telemetry,
        cell_timeout=cell_timeout,
        retries=retries,
    )


def ablate(
    scheduler: Union[Scheduler, type, str, Callable],
    baseline: Dict[str, Any],
    deltas: Dict[str, Dict[str, Any]],
    workload: Callable[[int], Any],
    *,
    objective: str = "max_flow",
    metrics: Optional[Sequence[str]] = None,
    m: Optional[int] = None,
    num_workers: Optional[int] = None,
    speed: Optional[float] = None,
    augmentation: Optional[float] = None,
    reps: int = 1,
    seed: int = 0,
    cache: Any = None,
    max_workers: Optional[int] = None,
    telemetry: Optional[Any] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
):
    """Declarative ablation: baseline + named deltas -> ranked impact.

    Runs the baseline configuration and one variant per entry of
    ``deltas`` (each applied independently on top of the baseline) on
    the **same** instances -- identical repetition seeds, so every
    impact number is a paired comparison -- and returns an
    :class:`~repro.experiments.ablate.AblationReport` ranked by
    ``|impact on the objective|`` with ``summary()`` /
    ``to_markdown()`` / ``as_dict()`` renderings.

    Delta (and baseline) mappings address all knob layers: scheduler
    parameters (``{"k": 0}``), machine size (``m`` / ``num_workers``),
    speed (``speed`` / ``augmentation``), workload fields
    (``{"workload.qps": 1500}``), and the engine itself
    (``{"scheduler": "flat"}`` -- any scheduler form :func:`run`
    accepts).  See :mod:`repro.experiments.ablate` for the full
    vocabulary and an example.

    Accepts every scheduler form of :func:`run`/:func:`sweep`; all
    variants run through the content-addressed cell cache, so repeated
    reports are free.
    """
    from repro.experiments.ablate import ablate as _ablate

    size = _resolve_size(m, num_workers, who="ablate()")
    s = _resolve_speed(speed, augmentation)
    factory = _as_factory(scheduler)

    def normalize(who: str, overrides: Any) -> Any:
        # Engine deltas: the core harness wants a factory callable; the
        # facade accepts the full scheduler vocabulary there too.
        if isinstance(overrides, dict) and "scheduler" in overrides:
            overrides = dict(overrides)
            overrides["scheduler"] = _as_factory(overrides["scheduler"])
        return overrides

    baseline = normalize("baseline", baseline)
    if isinstance(deltas, dict):
        deltas = {
            name: normalize(name, overrides)
            for name, overrides in deltas.items()
        }
    return _ablate(
        factory,
        baseline,
        deltas,
        workload,
        m=size,
        objective=objective,
        metrics=metrics,
        reps=reps,
        seed=seed,
        speed=s,
        cache=cache,
        max_workers=max_workers,
        telemetry=telemetry,
        cell_timeout=cell_timeout,
        retries=retries,
    )
