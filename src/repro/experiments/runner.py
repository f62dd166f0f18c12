"""Generic sweep execution with seed management.

The two building blocks every figure uses:

* :func:`run_schedulers` -- run a set of schedulers on one instance (the
  same instance: paired comparison) and collect results;
* :func:`run_figure2_cell` -- one (workload, QPS) cell of Figure 2:
  build the workload's JobSet view, run OPT / steal-k-first /
  admit-first (and FIFO, for reference) on it, average over
  repetitions;
* :func:`_run_figure2_cells` -- a whole QPS sweep of such cells: it
  builds one task and one cell-cache key per QPS point and hands them
  to the cell executor grid sweeps use
  (:func:`repro.experiments.sweep._run_cell_tasks`: cache, supervised
  process pool, telemetry, run manifest); the figure functions are its
  public faces.

Seed discipline: a cell's seed is derived from the experiment seed and
the cell coordinates via :func:`repro.sim.rng.derive_seed`, so any single
cell can be reproduced in isolation and adding QPS points never shifts
other cells' randomness.  Because seeds come from coordinates -- never
from shared RNG state or execution order -- parallel and serial sweeps
are bit-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.base import Scheduler
from repro.core.fifo import FifoScheduler
from repro.core.opt import OptLowerBound
from repro.core.work_stealing import WorkStealingScheduler
from repro.dag.job import JobSet
from repro.experiments.cache import SweepCache, cell_key, resume_enabled_by_env
from repro.experiments.config import ExperimentScale, Figure2Config
from repro.experiments.sweep import (
    _callable_token,
    _freeze_value,
    _resolve_sinks,
    _run_cell_tasks,
    _warn_cache_bypass,
)
from repro.sim.result import ScheduleResult
from repro.sim.rng import derive_seed
from repro.testing.faults import maybe_inject
from repro.workloads.generator import WorkloadSpec


def run_schedulers(
    jobset: JobSet,
    schedulers: Iterable[Scheduler],
    m: int,
    speed: float = 1.0,
    seed: Optional[int] = None,
) -> Dict[str, ScheduleResult]:
    """Run each scheduler on the same instance; returns name -> result.

    Each scheduler gets its own derived seed so that, e.g., adding a
    scheduler to the comparison never changes the victim-selection
    stream of the others.  They share ``jobset``: a
    :func:`~repro.dag.flat.to_jobset` view builds its jobs at most once,
    for the first scheduler that iterates them.
    """
    out: Dict[str, ScheduleResult] = {}
    for i, sched in enumerate(schedulers):
        run_seed = derive_seed(seed, 1000 + i)
        out[sched.name] = sched.run(jobset, m=m, speed=speed, seed=run_seed)
    return out


def figure2_schedulers(cfg: Figure2Config, include_fifo: bool = False) -> List[Scheduler]:
    """The scheduler lineup of Figure 2 (plus optional FIFO reference)."""
    lineup: List[Scheduler] = [
        OptLowerBound(),
        WorkStealingScheduler(k=cfg.k, steals_per_tick=cfg.steals_per_tick),
        WorkStealingScheduler(k=0, steals_per_tick=cfg.steals_per_tick),
    ]
    if include_fifo:
        lineup.append(FifoScheduler())
    return lineup


def run_figure2_cell(
    cfg: Figure2Config,
    qps: float,
    scale: ExperimentScale,
    seed: int = 0,
    include_fifo: bool = False,
) -> Dict[str, float]:
    """One Figure 2 data point: mean max flow (ms) per scheduler.

    Runs ``scale.reps`` independent workload draws and averages the max
    flow of each scheduler across them, converting to milliseconds with
    the config's time unit.  Each draw is built as the JobSet view of
    a :class:`~repro.dag.flat.FlatInstance` (``spec.build``), run
    through :func:`run_schedulers` and dropped before the next, so one
    instance is alive at a time.  OPT reads the flat's per-job arrays
    and the two work-stealing schedulers run it on the compiled kernel
    (see :class:`~repro.core.work_stealing.WorkStealingScheduler`),
    bit-identical to the reference engine; FIFO (``include_fifo``)
    ranks the view's arrival columns, so no job is built.
    """
    lineup = figure2_schedulers(cfg, include_fifo)
    spec = WorkloadSpec(
        distribution=cfg.distribution_factory(),
        qps=qps,
        n_jobs=scale.n_jobs,
        m=cfg.m,
        units_per_ms=cfg.units_per_ms,
        target_chunks=cfg.target_chunks,
    )
    sums: Dict[str, float] = {}
    for rep in range(scale.reps):
        cell_seed = derive_seed(seed, int(qps), rep)
        results = run_schedulers(
            spec.build(seed=cell_seed),
            lineup,
            m=cfg.m,
            seed=cell_seed,
        )
        for name, res in results.items():
            sums[name] = sums.get(name, 0.0) + res.max_flow * cfg.time_unit_ms
    return {name: total / scale.reps for name, total in sums.items()}


#: One cell-task: (config, qps, scale, seed, include_fifo, task_index).
#: A plain tuple of picklable values so the task crosses process
#: boundaries; ``task_index`` is the cell's position in the panel, which
#: the fault harness (:mod:`repro.testing.faults`) targets.
Figure2CellTask = Tuple[Figure2Config, float, ExperimentScale, int, bool, int]


def _figure2_cell_task(task: Figure2CellTask) -> Dict[str, Any]:
    """Top-level (hence picklable) adapter around :func:`run_figure2_cell`.

    Returns the cell's metric dict wrapped with worker-side telemetry
    (wall time measured inside the worker, worker pid); the parent turns
    the wrapper into a ``cell.run`` event and stores only the metrics.
    """
    cfg, qps, scale, seed, include_fifo, task_index = task
    maybe_inject("dispatch", index=task_index)
    maybe_inject("cell", index=task_index)
    t0 = time.perf_counter()
    metrics = run_figure2_cell(
        cfg, qps, scale, seed=seed, include_fifo=include_fifo
    )
    return {
        "metrics": metrics,
        "wall_s": round(time.perf_counter() - t0, 6),
        "pid": os.getpid(),
    }


def _config_token(cfg: Figure2Config) -> Optional[str]:
    """The config's cell-key component, or None when it has none.

    An address-free ``repr(cfg)`` is the token (the shipped panels, whose
    distribution factories are classes).  A lambda or closure factory
    puts a memory address into the repr, and a later factory can reuse
    a freed address; such a factory is keyed by its content token
    (:func:`~repro.experiments.sweep._callable_token`) instead, the rule
    grid sweeps apply to scheduler factories.
    """
    frozen = _freeze_value(cfg)
    if frozen is not None:
        return frozen
    token = _callable_token(cfg.distribution_factory)
    if token is None:
        return None
    return _freeze_value(replace(cfg, distribution_factory=token))


def _run_figure2_cells(
    cfg: Figure2Config,
    qps_values: Sequence[float],
    scale: ExperimentScale,
    seed: int = 0,
    include_fifo: bool = False,
    max_workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    resume: Optional[bool] = None,
    telemetry: Optional[Any] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> List[Dict[str, float]]:
    """All QPS cells of one Figure 2 panel, fanned out over processes.

    Every cell's randomness derives from ``(seed, qps, rep)`` inside
    :func:`run_figure2_cell`, so the fan-out cannot change any result:
    the returned list (in ``qps_values`` order) is bit-identical to a
    serial loop.  The cells run through the cell executor that grid
    sweeps use (:func:`repro.experiments.sweep._run_cell_tasks`):
    ``max_workers``, ``cell_timeout`` and ``retries`` follow the
    resolution rules of :func:`repro.experiments.parallel.parallel_map`,
    whose supervised pool retries crashed or deadline-expired cells from
    their coordinate-derived seeds and respawns a broken pool; completed
    cells are checkpointed into the cache as they finish, so an aborted
    panel resumes losslessly.

    With ``resume`` (default: the ``REPRO_RESUME`` environment variable,
    i.e. the CLI's ``--resume`` flag) previously computed cells are
    served from the content-addressed cell cache
    (:mod:`repro.experiments.cache`) and only cold cells run; cached
    values are the exact floats of the original run.  Cell keys cover
    the config (:func:`_config_token`), scale, seed and lineup, so any
    parameter change misses cleanly; a distribution factory with no
    stable content identity bypasses the cell cache, with a
    :class:`RuntimeWarning`.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) records the
    panel as structured events -- ``sweep.start``, per-cell
    ``cell.cached`` / ``cell.run`` (worker-measured wall time + pid),
    ``cache.*``, ``sweep.done`` -- and a run manifest is written next to
    the cache dir (or the telemetry log).  Results are bit-identical
    either way.
    """
    t_start = time.perf_counter()
    if resume is None:
        resume = resume_enabled_by_env()
    cache, telemetry = _resolve_sinks(cache, resume, telemetry)
    token = _config_token(cfg)
    if cache is not None and token is None:
        _warn_cache_bypass(
            "run_figure2_cells", "distribution factory",
            cfg.distribution_factory, telemetry,
        )
    keys = [
        None if token is None else cell_key(
            "fig2-cell", token, float(qps), scale.n_jobs, scale.reps,
            seed, include_fifo,
        )
        for qps in qps_values
    ]
    results, _ = _run_cell_tasks(
        "run_figure2_cells",
        _figure2_cell_task,
        [
            (cfg, qps, scale, seed, include_fifo, i)
            for i, qps in enumerate(qps_values)
        ],
        keys,
        [{"params": {"qps": qps}, "seed": seed} for qps in qps_values],
        [s.name for s in figure2_schedulers(cfg, include_fifo)],
        n_cells=len(qps_values),
        coords={"m": cfg.m, "reps": scale.reps, "include_fifo": include_fifo},
        manifest={
            "config": {
                "config": repr(cfg),
                "qps_values": [float(q) for q in qps_values],
                "n_jobs": scale.n_jobs,
                "reps": scale.reps,
                "include_fifo": include_fifo,
            },
            "seed": seed,
        },
        cache=cache,
        resume=resume,
        telemetry=telemetry,
        t_start=t_start,
        max_workers=max_workers,
        cell_timeout=cell_timeout,
        retries=retries,
    )
    return results
