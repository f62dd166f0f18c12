"""Generic parameter-grid sweeps over schedulers.

The named experiments in :mod:`repro.experiments.figures` are hand-built
for the paper's artifacts; this module is the *user-facing* counterpart
for running your own ablations: give it a scheduler factory, a parameter
grid, and a workload factory, and it runs the full cross product with
paired workloads and derived seeds, returning a structured table.

Example -- re-deriving the paper's k sweep in three lines::

    sweep = repro.sweep(
        WorkStealingScheduler,
        {"k": [0, 4, 16, 64]},
        WorkloadSpec(BingDistribution(), 1200, 1500),
        m=16, reps=3, seed=0,
    )
    print(sweep.render())

Entry points: :func:`repro.sweep` is the public facade over the
private :func:`_grid_sweep`, which also powers the adaptive layers: :mod:`repro.experiments.search` evaluates
arbitrary subsets of a grid via ``cells=`` (global cell identity, so
search evaluations are byte-identical to exhaustive-sweep cells), and
:mod:`repro.experiments.ablate` runs single-configuration "grids"
through the same cached path.

Execution pipeline: :func:`_grid_sweep` *plans* -- each repetition's
instance is built (or loaded from the content-addressed cache) **once**
in the parent, as flat CSR arrays, the only format the sweep caches and
ships; it derives the factory token, selects the ``shard=`` / ``cells=``
slice, writes the shard manifest, and lists one task, cell key and set
of event coordinates per (cell, repetition).  :func:`_run_cell_tasks`
*executes*: it is the one cell executor, shared with the Figure 2
panels (:func:`repro.experiments.runner._run_figure2_cells`).  It
serves cached cells under ``resume``, runs the cold tasks through
:func:`~repro.experiments.parallel.parallel_map` with a checkpoint per
finished cell, emits ``sweep.start`` / ``cell.cached`` / ``cell.run`` /
``sweep.done`` and writes the run manifest.  The rep instances reach
each pool worker once, as the ``shared`` data of ``parallel_map``, so a
task carries its coordinates and a repetition index, never an instance.
Only a task whose scheduler's ``consumes_flat`` is false derives the
JobSet view (:func:`~repro.dag.flat.to_jobset`).  Resumed and cold
paths are bit-identical to a cold serial sweep
(``tests/experiments/test_cache.py``).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import time
import types
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.base import Scheduler
from repro.dag.flat import (
    FlatInstance,
    _cache_jobset_view,
    content_hash,
    flatten_jobset,
    to_jobset,
)
from repro.dag.job import JobSet
from repro.errors import SweepConfigError
from repro.experiments.cache import CACHE_ENV, SweepCache, cell_key
from repro.experiments.parallel import parallel_map, shared_data
from repro.sim.result import ScheduleResult
from repro.sim.rng import derive_seed
from repro.testing.faults import maybe_inject

#: Metric name -> extractor over a ScheduleResult.
METRICS: Dict[str, Callable[[ScheduleResult], float]] = {
    "max_flow": lambda r: r.max_flow,
    "mean_flow": lambda r: r.mean_flow,
    "p99_flow": lambda r: r.flow_percentile(99),
    "max_weighted_flow": lambda r: r.max_weighted_flow,
    "makespan": lambda r: r.makespan,
}


@dataclass(frozen=True)
class SweepCell:
    """One grid point's outcome: parameters plus metric means over reps."""

    params: Dict[str, Any]
    metrics: Dict[str, float]


@dataclass
class SweepResult:
    """All cells of a grid sweep, with a paper-style text rendering.

    ``shard`` is the ``"i/n"`` label when the sweep ran one shard of a
    partitioned grid (``cells`` then holds only that shard's grid
    points, still in global cross-product order), else None.

    ``n_cold`` / ``n_cached`` account for how the (cell, repetition)
    tasks were satisfied: computed fresh vs served from the cell cache.
    The adaptive-search driver (:mod:`repro.experiments.search`) builds
    its cache-reuse claims on these counters.
    """

    param_names: List[str]
    metric_names: List[str]
    cells: List[SweepCell]
    shard: Optional[str] = None
    n_cold: int = 0
    n_cached: int = 0

    def best(self, metric: str = "max_flow") -> SweepCell:
        """The cell minimizing ``metric``."""
        return min(self.cells, key=lambda c: c.metrics[metric])

    def column(self, metric: str) -> List[float]:
        """One metric across cells, in grid order."""
        return [c.metrics[metric] for c in self.cells]

    def render(self) -> str:
        """Aligned table: one row per grid point."""
        header = (
            "".join(f"{p:>12}" for p in self.param_names)
            + "".join(f"{m:>16}" for m in self.metric_names)
        )
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            row = "".join(f"{cell.params[p]!s:>12}" for p in self.param_names)
            row += "".join(
                f"{cell.metrics[m]:>16.3f}" for m in self.metric_names
            )
            lines.append(row)
        return "\n".join(lines)


def _digest_code(code: types.CodeType, h) -> None:
    """Fold a code object's behavior (recursively) into ``h``."""
    h.update(code.co_code)
    h.update(repr(code.co_names).encode())
    h.update(repr(code.co_varnames).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _digest_code(const, h)
        else:
            h.update(repr(const).encode())


def _freeze_value(value: Any) -> Optional[str]:
    """A run-stable string for a captured value, or None if none exists.

    ``repr`` is stable for the plain parameter values factories actually
    capture (numbers, strings, tuples, classes).  The default object
    repr embeds a memory address, which changes between runs -- a key
    built from it could never hit, so it counts as uncapturable.
    """
    if isinstance(value, types.FunctionType):
        return _callable_token(value)
    r = repr(value)
    return None if " at 0x" in r else r


def _callable_token(fn: Callable) -> Optional[str]:
    """A content-based identity string for a factory, for cell-cache keys.

    Module + qualname alone is not an identity: every lambda (or nested
    function) defined in the same scope shares one qualname, and any
    configuration it captures is invisible -- two factories that build
    *different* schedulers would collide and serve each other's cached
    cells under ``resume``.  The token therefore also folds in the
    factory's bytecode, constants, argument defaults, and captured
    closure values.  Returns None when the behavior cannot be captured
    stably (e.g. a closure over an object whose repr embeds a memory
    address); callers must then bypass the cell cache rather than risk
    a collision.
    """
    base = (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', '?')}"
    )
    if isinstance(fn, functools.partial):
        inner = _callable_token(fn.func)
        frozen = [_freeze_value(a) for a in fn.args]
        for name in sorted(fn.keywords or {}):
            value = _freeze_value(fn.keywords[name])
            frozen.append(None if value is None else f"{name}={value}")
        if inner is None or any(f is None for f in frozen):
            return None
        return "\x1f".join([f"partial({inner})", *frozen])
    if isinstance(fn, type):
        # A named class: the dotted name is its identity.
        return base
    code = getattr(fn, "__code__", None)
    if code is None:
        # A callable object: identified by its (address-free) repr.
        return _freeze_value(fn)
    h = hashlib.sha256()
    _digest_code(code, h)
    frozen = []
    for value in getattr(fn, "__defaults__", None) or ():
        frozen.append(_freeze_value(value))
    for name in sorted(getattr(fn, "__kwdefaults__", None) or {}):
        value = _freeze_value(fn.__kwdefaults__[name])
        frozen.append(None if value is None else f"{name}={value}")
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            frozen.append(_freeze_value(cell.cell_contents))
        except ValueError:  # pragma: no cover - not-yet-filled cell
            frozen.append("<empty-cell>")
    if any(f is None for f in frozen):
        return None
    return "\x1f".join([base, h.hexdigest(), *frozen])


def _sweep_rep_task(task) -> Dict[str, Any]:
    """One (grid point, repetition) cell, as a picklable top-level task.

    ``task`` is ``(scheduler_factory, params, rep, m, speed, run_seed,
    metrics, task_index)``.  ``rep`` indexes the batch's shared
    repetition instances (:func:`~repro.experiments.parallel.shared_data`);
    a scheduler whose ``consumes_flat`` is false gets the instance's
    :func:`~repro.dag.flat.to_jobset` view.  The
    run seed arrives precomputed from the cell coordinates, so where (or
    in what order) the task runs cannot affect its result -- which is
    also what makes the task safely *re-runnable* after a worker crash
    or deadline kill.  ``task_index`` is the cell's global task index;
    it exists so the deterministic fault harness
    (:mod:`repro.testing.faults`) can target one specific cell.

    Returns ``{"metrics", "wall_s", "pid", "stats", "path"}``: the
    extracted metric values (the only part results depend on -- cheaper
    to ship between processes than a full ScheduleResult) plus the
    worker-side observability payload the parent turns into
    ``cell.run`` telemetry events, including the engine that ran the
    cell.  Wall time is measured around the simulation only, inside
    the worker, so pool queueing never inflates it.
    """
    (factory, params, rep, m, speed, run_seed, metrics, task_index) = task
    maybe_inject("dispatch", index=task_index)
    scheduler = factory(**params)
    instance = shared_data()[rep]
    if not getattr(scheduler, "consumes_flat", False):
        instance = to_jobset(instance)
    maybe_inject("cell", index=task_index)
    t0 = time.perf_counter()
    result = scheduler.run(instance, m=m, speed=speed, seed=run_seed)
    wall = time.perf_counter() - t0
    return {
        "metrics": {name: METRICS[name](result) for name in metrics},
        "wall_s": round(wall, 6),
        "pid": os.getpid(),
        "stats": result.stats.as_dict(),
        "path": result.path,
    }


def _resolve_sinks(
    cache: Union[SweepCache, str, None],
    resume: bool,
    telemetry: Optional[Any],
):
    """The ``(cache, telemetry)`` a cell executor run writes to.

    A path becomes a :class:`SweepCache`; ``resume`` without a cache
    resolves the documented precedence chain (``REPRO_CACHE``, else the
    default directory); no telemetry means the ``--telemetry`` sink, if
    the CLI set one (it routes through ``REPRO_TELEMETRY`` rather than a
    parameter of every figure function).  The sink is bound to the cache
    so instance and cell loads and stores land in the same event stream.
    """
    if isinstance(cache, str) or hasattr(cache, "__fspath__"):
        cache = SweepCache(cache)
    if cache is None and resume:
        cache = SweepCache()
    if telemetry is None:
        from repro.obs.telemetry import default_telemetry

        telemetry = default_telemetry()
    if cache is not None and telemetry is not None and cache.telemetry is None:
        cache.telemetry = telemetry
    return cache, telemetry


def _warn_cache_bypass(caller: str, what: str, obj: Any,
                       telemetry: Optional[Any]) -> None:
    """Warn (and emit ``cache.bypass``) that ``obj`` has no stable key."""
    warnings.warn(
        f"{caller}: cannot derive a stable content key for {what} "
        f"{obj!r} (it captures state whose identity is not reproducible "
        f"across runs); the cell cache is bypassed for this sweep. Use a "
        f"module-level function, class, or functools.partial over plain "
        f"values to enable cell caching.",
        RuntimeWarning,
        stacklevel=3,
    )
    if telemetry is not None:
        telemetry.emit("cache.bypass", factory=repr(obj))


def _run_cell_tasks(
    kind: str,
    fn: Callable[[Any], Dict[str, Any]],
    tasks: Sequence[Any],
    keys: Sequence[Optional[str]],
    fields: Sequence[Dict[str, Any]],
    metric_names: Sequence[str],
    *,
    n_cells: int,
    coords: Dict[str, Any],
    manifest: Dict[str, Any],
    cache: Optional[SweepCache],
    resume: bool,
    telemetry: Optional[Any],
    t_start: float,
    max_workers: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    shared: Sequence[Any] = (),
):
    """The cell executor: run ``tasks`` through the cell cache and pool.

    ``keys[i]`` is task ``i``'s cell-cache key (None: never cached) and
    ``fields[i]`` the coordinates its ``cell.cached`` / ``cell.run``
    events carry.  Under ``resume`` a cached cell holding every name in
    ``metric_names`` is served; the rest run as ``fn(task)`` through
    :func:`~repro.experiments.parallel.parallel_map` (with ``shared``),
    each checkpointed into the cache the moment it lands.  ``fn``
    returns ``{"metrics", "wall_s", "pid", ...}``; everything but the
    metrics goes into the task's ``cell.run`` event, tagged with
    ``kind`` (what ``wall_s`` times differs per kind).  Emits
    ``sweep.start`` (``kind``, counts, ``coords``), ``cell.cached``,
    ``cell.run`` and ``sweep.done``, and writes a run manifest
    (``manifest`` holds its ``config``, ``seed`` and optional rep seeds
    and instance hashes) whenever there is a durable place for it.

    Returns ``(metrics per task in task order, number of cold tasks)``.
    """
    results: List[Optional[Dict[str, float]]] = [None] * len(tasks)
    if resume and cache is not None:
        for i, key in enumerate(keys):
            hit = cache.load_cell(key) if key is not None else None
            if hit is not None and set(hit) >= set(metric_names):
                results[i] = {name: hit[name] for name in metric_names}
    cold = [i for i, values in enumerate(results) if values is None]
    n_cached = len(tasks) - len(cold)
    if telemetry is not None:
        telemetry.emit(
            "sweep.start", kind=kind, n_cells=n_cells, n_tasks=len(tasks),
            n_cold=len(cold), **coords,
        )
        for i, values in enumerate(results):
            if values is not None:
                telemetry.emit("cell.cached", **fields[i], metrics=values)

    def checkpoint(cold_idx: int, payload: Dict[str, Any]) -> None:
        # Flush each finished cell to the cache the moment its result
        # lands in the parent (completion order), so a sweep killed
        # mid-flight loses nothing already computed: the rerun resumes
        # from these cells.  A checkpoint-write failure must not abort
        # the sweep -- the result is still in memory; only resumability
        # degrades.
        key = keys[cold[cold_idx]]
        if cache is None or key is None:
            return
        try:
            cache.store_cell(key, payload["metrics"])
        except Exception as exc:
            if telemetry is not None:
                telemetry.emit(
                    "cache.store_failed",
                    key=key,
                    error=f"{type(exc).__name__}: {exc}",
                )

    payloads = parallel_map(
        fn,
        [tasks[i] for i in cold],
        max_workers=max_workers,
        telemetry=telemetry,
        cell_timeout=cell_timeout,
        retries=retries,
        on_result=checkpoint,
        shared=shared,
    )
    for i, payload in zip(cold, payloads):
        results[i] = payload["metrics"]
        if telemetry is not None:
            worker = {k: v for k, v in payload.items() if k != "metrics"}
            telemetry.emit(
                "cell.run", kind=kind, **fields[i], **worker,
                metrics=payload["metrics"],
            )

    # Run manifest: written whenever there is a durable place to put it
    # (a cache dir, or the telemetry log's directory); a purely in-memory
    # run leaves no artifact, so there is nothing to make reproducible.
    manifest_path = None
    log_path = telemetry.path if telemetry is not None else None
    if cache is not None or log_path is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        record = build_manifest(
            kind=kind,
            timings={"wall_s": round(time.perf_counter() - t_start, 6)},
            event_log=log_path,
            cache_dir=cache.root if cache is not None else None,
            extra={
                "n_cells": n_cells,
                "n_tasks": len(tasks),
                "n_cold": len(cold),
                "n_cached": n_cached,
            },
            **manifest,
        )
        directory = (
            cache.root if cache is not None else log_path.parent
        ) / "manifests"
        manifest_path = write_manifest(record, directory)
    if telemetry is not None:
        telemetry.emit(
            "sweep.done",
            kind=kind,
            wall_s=round(time.perf_counter() - t_start, 6),
            n_cold=len(cold),
            n_cached=n_cached,
            manifest=str(manifest_path) if manifest_path else None,
        )
    return results, len(cold)


def _materialize_rep_instance(
    jobset_factory: Callable[[int], JobSet],
    jobset_seed: int,
    cache: Optional[SweepCache],
):
    """Build or cache-load one repetition's instance.

    Returns ``(flat, from_cache)``.  The instance cache engages only for
    factories exposing ``cache_key`` (e.g.
    :class:`~repro.workloads.generator.WorkloadSpec`): arbitrary
    callables have no stable content identity to key on.  No
    :class:`JobSet` is built here unless the factory itself returns one;
    then that set becomes the flat's :func:`to_jobset` view, so a
    scheduler that needs it does not rebuild it.
    """
    key_fn = getattr(jobset_factory, "cache_key", None)
    instance_key = key_fn(jobset_seed) if callable(key_fn) else None

    if cache is not None and instance_key is not None:
        flat = cache.load_instance(instance_key)
        if flat is not None:
            return flat, True

    build_flat = getattr(jobset_factory, "build_flat", None)
    if callable(build_flat):
        # Vectorized path: CSR arrays straight from the generator.
        flat = build_flat(jobset_seed)
    else:
        jobset = jobset_factory(jobset_seed)
        flat = flatten_jobset(jobset)
        _cache_jobset_view(flat, jobset)
    if cache is not None and instance_key is not None:
        cache.store_instance(instance_key, flat)
    return flat, False


def _grid_sweep(
    scheduler_factory: Callable[..., Scheduler],
    grid: Dict[str, Sequence[Any]],
    jobset_factory: Callable[[int], JobSet],
    m: int,
    reps: int = 1,
    seed: int = 0,
    speed: float = 1.0,
    metrics: Sequence[str] = ("max_flow", "mean_flow"),
    max_workers: int | None = None,
    cache: Union[SweepCache, str, None] = None,
    resume: bool = False,
    telemetry: Optional[Any] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    shard: Union[tuple, str, None] = None,
    cells: Optional[Sequence[int]] = None,
    allow_empty_grid: bool = False,
) -> SweepResult:
    """Run the full parameter cross product with paired comparisons.

    Parameters
    ----------
    scheduler_factory:
        Called with one keyword argument per grid dimension; returns the
        scheduler for that cell.
    grid:
        Parameter name -> values to sweep (cross product over all).
    jobset_factory:
        Called with a derived rep seed; must return the instance for
        that repetition.  The same rep seeds are used for every cell,
        so comparisons across cells are paired.  Each repetition's
        instance is built once in the parent and shipped to each pool
        worker once.  A :class:`WorkloadSpec` works directly
        (it is callable) and additionally unlocks the instance cache
        and the fully vectorized flat build path.
    m, speed:
        Machine configuration shared by every cell.
    reps:
        Repetitions per cell; metrics are means across them.
    seed:
        Base seed; cell and rep seeds derive from it.
    metrics:
        Metric names from :data:`METRICS`.
    max_workers:
        Process-pool width for fanning out (cell, repetition) tasks; see
        :func:`repro.experiments.parallel.parallel_map` for resolution
        and fallback rules.  Results are aggregated in deterministic
        (cell, rep) order, so parallel and serial sweeps are
        bit-identical.  Lambda scheduler factories cannot cross process
        boundaries and run serially (with a one-time warning).  Every
        cold (cell, repetition) pair is one task running one
        simulation, so a ``cell_timeout`` deadline always covers exactly
        one run and each finished rep is checkpointed on its own.
    cache:
        A :class:`~repro.experiments.cache.SweepCache`, a directory
        path, or None.  When set, generated instances (for factories
        with ``cache_key``) and computed cell results are stored in it.
    resume:
        With a cache, serve previously computed (cell, rep) results
        from it instead of recomputing; cold cells still run and are
        stored.  Cached numbers are the exact floats of the original
        run, so resumed sweeps are bit-identical to cold ones.  Cell
        keys include a content token of ``scheduler_factory`` (bytecode,
        defaults, captured closure values -- not just its name), so two
        different lambdas never serve each other's cells; a factory
        whose captured state cannot be keyed stably bypasses the cell
        cache entirely, with a :class:`RuntimeWarning`.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When given, the sweep
        emits structured events (``sweep.start``, ``dispatch.*``,
        ``cache.*``, ``fault.*`` / ``pool.respawn``
        for every recovery action, ``cell.run`` with per-rep wall time
        / worker pid / engine stats, ``cell.cached``, ``sweep.done``)
        and writes a run manifest (config hash, rep seeds, instance
        content hashes, package versions, timings) under
        ``<cache>/manifests/`` -- or next to the telemetry log file when
        no cache is in play.  Telemetry never changes any result: the
        sweep is bit-identical with it on or off.
    cell_timeout, retries:
        Fault-tolerance knobs forwarded to
        :func:`repro.experiments.parallel.parallel_map`: the per-cell
        deadline in seconds (default ``REPRO_CELL_TIMEOUT`` /
        ``--cell-timeout``) and the per-cell retry budget for crashed or
        hung workers (default ``REPRO_RETRIES`` / ``--retries``, else
        2).  Retried cells re-run from their coordinate-derived seeds,
        so recovery never changes a number; exhaustion raises
        :class:`~repro.errors.CellTimeoutError` /
        :class:`~repro.errors.CellCrashedError`.  Completed cells are
        checkpointed into the cache as they finish, so an aborted sweep
        resumes losslessly with ``resume=True``.
    shard:
        Run one shard of the grid instead of all of it: an ``(index,
        count)`` tuple or the equivalent ``"index/count"`` string (both
        forms normalize identically; invalid input raises
        :class:`~repro.errors.SweepConfigError`).  Shard ``i`` of ``n``
        owns a contiguous, balanced slice of the grid's cross-product
        cells -- the disjoint union over all shards is exactly the
        unsharded sweep.  Cell keys and per-cell run seeds use *global*
        cell indices, so a shard's cached cells are exactly the cells
        the unsharded sweep would cache: run each shard on its own host
        into its own cache dir, combine with
        :func:`repro.experiments.shard.merge_caches`, and a final
        ``resume=True`` sweep over the merged cache is bit-identical to
        a single-host run (EXPERIMENTS.md has the full recipe).  A
        sharded sweep requires an explicit ``cache`` (or ``REPRO_CACHE``)
        and a cache-keyable scheduler factory -- silently sharding into
        the implicit default directory, or computing shards whose cells
        cannot be cached for merging, raises ``SweepConfigError``
        instead.  Each shard writes a shard manifest (grid digest,
        coordinate range, owned cell keys, host metadata) under
        ``<cache>/manifests/`` *before* running, so even a killed shard
        leaves provenance for the merge step.
    cells:
        Run only these *global* cross-product cell indices (any subset,
        any order; evaluated and returned in ascending global order).
        This is the arbitrary-subset generalization of ``shard``:
        per-cell run seeds and cache keys still derive from a cell's
        global position, so evaluating a subset produces cells (and
        cache files) byte-identical to the ones an exhaustive sweep of
        the full grid would produce at the same coordinates.  The
        adaptive-search driver (:mod:`repro.experiments.search`) relies
        on this to make refinement rounds nearly free under ``resume``.
        Mutually exclusive with ``shard``.
    allow_empty_grid:
        Internal: permit ``grid={}`` -- one cell, no parameters
        (``scheduler_factory()`` called with no arguments).  The
        ablation harness uses it for configurations whose knobs all
        live outside the scheduler (machine size, speed, workload).

    Returns
    -------
    SweepResult
        Cells in cross-product order (last grid key varies fastest).
    """
    t_start = time.perf_counter()
    if m < 1:
        raise SweepConfigError(f"need m >= 1, got {m}")
    if reps < 1:
        raise SweepConfigError(f"need reps >= 1, got {reps}")
    if not grid and not allow_empty_grid:
        raise SweepConfigError("grid must have at least one dimension")
    if cells is not None and shard is not None:
        raise SweepConfigError(
            "cells= and shard= are mutually exclusive: shard partitions "
            "the grid into contiguous slices, cells= names an explicit "
            "subset -- pass one"
        )
    unknown = [name for name in metrics if name not in METRICS]
    if unknown:
        raise SweepConfigError(
            f"unknown metrics {unknown}; available: {sorted(METRICS)}"
        )
    spec = None
    if shard is not None:
        from repro.experiments.shard import parse_shard

        spec = parse_shard(shard)
    if cache is None and spec is not None:
        # Precedence rule (see repro.experiments.cache): explicit arg >
        # REPRO_CACHE > default -- except a sharded sweep refuses the
        # implicit default, because n shards falling back to whatever
        # ".repro_cache" means on each host produces caches nobody can
        # find (or, on one host, a single dir the shards were meant to
        # keep separate).
        if os.environ.get(CACHE_ENV):
            cache = SweepCache()
        else:
            raise SweepConfigError(
                f"sharded sweep (shard={spec}) needs an explicit cache "
                f"directory: pass cache=... (or set {CACHE_ENV}) so each "
                f"shard's results land somewhere merge_caches can find. "
                f"Refusing to silently shard into the default "
                f"'.repro_cache'."
            )
    cache, telemetry = _resolve_sinks(cache, resume, telemetry)

    param_names = list(grid)
    combos = list(itertools.product(*grid.values()))
    metric_names = list(metrics)

    # One instance per repetition, built (or cache-loaded) in the
    # parent.  The old design shipped `jobset_factory` into every task,
    # regenerating the *same* rep instance once per grid point.
    rep_flats: List[FlatInstance] = []
    rep_hashes: List[str] = []
    for rep in range(reps):
        jobset_seed = derive_seed(seed, 9000, rep)
        flat, _ = _materialize_rep_instance(jobset_factory, jobset_seed, cache)
        rep_flats.append(flat)
        rep_hashes.append(content_hash(flat))

    factory_token = _callable_token(scheduler_factory)
    if spec is not None and factory_token is None:
        # An unkeyable factory bypasses the cell cache, and a shard
        # whose cells are never cached has nothing to merge -- the whole
        # point of sharding.  Fail loudly instead of burning n hosts.
        raise SweepConfigError(
            f"sharded sweep (shard={spec}) needs a cache-keyable "
            f"scheduler factory, but {scheduler_factory!r} captures "
            f"state with no stable content identity, so its cells "
            f"cannot be cached for merging. Use a module-level "
            f"function, class, or functools.partial over plain values."
        )
    if cache is not None and factory_token is None:
        _warn_cache_bypass(
            "grid_sweep", "scheduler factory", scheduler_factory, telemetry
        )
    # The shard's slice of the grid, as *global* cell indices: run
    # seeds and cell keys derive from a cell's cross-product position,
    # so a sharded cell is byte-for-byte the cell the unsharded sweep
    # would compute (and cache) at the same coordinates.
    if spec is not None:
        from repro.experiments.shard import shard_cells

        cell_indices = list(shard_cells(len(combos), spec))
    elif cells is not None:
        cell_indices = sorted({int(c) for c in cells})
        if len(cell_indices) != len(list(cells)):
            raise SweepConfigError(
                f"cells= contains duplicate indices: {sorted(cells)}"
            )
        if not cell_indices:
            raise SweepConfigError("cells= must name at least one cell")
        if cell_indices[0] < 0 or cell_indices[-1] >= len(combos):
            raise SweepConfigError(
                f"cells= indices must lie in [0, {len(combos) - 1}] "
                f"(the grid has {len(combos)} cells), got "
                f"{cell_indices[0]}..{cell_indices[-1]}"
            )
    else:
        cell_indices = list(range(len(combos)))

    # One task per (cell, rep), carrying a repetition index: the
    # instances travel once per worker as the batch's shared data.
    tasks: List[tuple] = []
    task_keys: List[Optional[str]] = []
    fields: List[Dict[str, Any]] = []
    for cell_idx in cell_indices:
        params = dict(zip(param_names, combos[cell_idx]))
        for rep in range(reps):
            run_seed = derive_seed(seed, cell_idx, rep)
            key = None
            if cache is not None and factory_token is not None:
                key = cell_key(
                    "grid-cell",
                    rep_hashes[rep],
                    factory_token,
                    sorted(params.items()),
                    m,
                    speed,
                    run_seed,
                    metric_names,
                )
            task_keys.append(key)
            fields.append({"params": params, "rep": rep, "seed": run_seed})
            tasks.append((
                scheduler_factory, params, rep, m, speed, run_seed,
                metric_names, len(tasks),
            ))

    # Shard manifest: written at *plan* time, before any cell runs, so
    # a shard killed mid-flight still leaves a provenance record of
    # which cell keys its partial cache may contain (merge_caches uses
    # it to attribute conflicts to a host/shard/time).
    if spec is not None:
        from repro.experiments.shard import (
            build_shard_manifest,
            grid_digest,
            write_shard_manifest,
        )

        digest = grid_digest(
            grid, factory_token, m, speed, seed, reps, metric_names
        )
        shard_manifest = build_shard_manifest(
            spec,
            digest,
            n_cells_total=len(combos),
            reps=reps,
            cell_keys=[k for k in task_keys if k is not None],
            instance_hashes=rep_hashes,
            cache_root=cache.root,
        )
        write_shard_manifest(shard_manifest, cache)
        if telemetry is not None:
            telemetry.emit(
                "shard.plan",
                shard=str(spec),
                grid_digest=digest,
                cell_start=shard_manifest.cell_start,
                cell_stop=shard_manifest.cell_stop,
                n_cells_total=len(combos),
                cache_dir=str(cache.root),
            )

    shard_label = str(spec) if spec is not None else None
    coords = {
        "m": m,
        "speed": speed,
        "reps": reps,
        "metrics": metric_names,
        "factory": factory_token or repr(scheduler_factory),
        "shard": shard_label,
    }
    rep_metrics, n_cold = _run_cell_tasks(
        "grid_sweep",
        _sweep_rep_task,
        tasks,
        task_keys,
        fields,
        metric_names,
        n_cells=len(cell_indices),
        coords=coords,
        manifest={
            "config": {
                "grid": {name: list(vals) for name, vals in grid.items()},
                **coords,
                "cells": cell_indices if cells is not None else None,
            },
            "seed": seed,
            "rep_seeds": [derive_seed(seed, 9000, rep) for rep in range(reps)],
            "instance_hashes": rep_hashes,
        },
        cache=cache,
        resume=resume,
        telemetry=telemetry,
        t_start=t_start,
        max_workers=max_workers,
        cell_timeout=cell_timeout,
        retries=retries,
        shared=rep_flats,
    )

    # Aggregate in (cell, rep) task order -- the same float summation
    # order as the serial loop, keeping means bit-identical.  Task
    # positions are local to this run's cell list (the shard's slice,
    # or the whole grid), while cell identity stays global.
    out_cells: List[SweepCell] = []
    for local_idx, cell_idx in enumerate(cell_indices):
        sums = {name: 0.0 for name in metric_names}
        for rep in range(reps):
            values = rep_metrics[local_idx * reps + rep]
            for name in metric_names:
                sums[name] += values[name]
        out_cells.append(
            SweepCell(
                params=dict(zip(param_names, combos[cell_idx])),
                metrics={name: sums[name] / reps for name in metric_names},
            )
        )
    return SweepResult(
        param_names=param_names,
        metric_names=metric_names,
        cells=out_cells,
        shard=shard_label,
        n_cold=n_cold,
        n_cached=len(tasks) - n_cold,
    )
