"""Generic sweep execution with seed management.

The two building blocks every figure uses:

* :func:`run_schedulers` -- run a set of schedulers on one instance (the
  same instance: paired comparison) and collect results;
* :func:`run_figure2_cell` -- one (workload, QPS) cell of Figure 2:
  build the workload, run OPT / steal-k-first / admit-first (and FIFO,
  for reference), average over repetitions;
* :func:`_run_figure2_cells` -- a whole QPS sweep of such cells, fanned
  out over a process pool (see :mod:`repro.experiments.parallel`); the
  figure functions and :func:`repro.sweep` are its public faces.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Scheduler
from repro.core.fifo import FifoScheduler
from repro.core.opt import OptLowerBound
from repro.core.work_stealing import WorkStealingScheduler
from repro.dag.job import JobSet
from repro.experiments.cache import (
    SweepCache,
    cell_key,
    resume_enabled_by_env,
)
from repro.experiments.config import ExperimentScale, Figure2Config
from repro.experiments.parallel import parallel_map
from repro.sim.result import ScheduleResult
from repro.sim.rng import derive_seed
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
    stream of the others.
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
    the config's time unit.  Each draw is built, run through
    :func:`run_schedulers` and dropped before the next, so one instance
    is alive at a time.  The two work-stealing schedulers run on the
    compiled kernel (see :class:`~repro.core.work_stealing.WorkStealingScheduler`),
    bit-identical to the reference engine.
    """
    lineup = figure2_schedulers(cfg, include_fifo)
    sums: Dict[str, float] = {}
    for rep in range(scale.reps):
        cell_seed = derive_seed(seed, int(qps), rep)
        spec = WorkloadSpec(
            distribution=cfg.distribution_factory(),
            qps=qps,
            n_jobs=scale.n_jobs,
            m=cfg.m,
            units_per_ms=cfg.units_per_ms,
            target_chunks=cfg.target_chunks,
        )
        results = run_schedulers(
            spec.build(seed=cell_seed),
            lineup,
            m=cfg.m,
            seed=cell_seed,
        )
        for name, res in results.items():
            sums[name] = sums.get(name, 0.0) + res.max_flow * cfg.time_unit_ms
    return {name: total / scale.reps for name, total in sums.items()}


#: One cell-task: (config, qps, scale, seed, include_fifo).  A plain
#: tuple of picklable values so the task crosses process boundaries.
Figure2CellTask = Tuple[Figure2Config, float, ExperimentScale, int, bool]


def _figure2_cell_task(task: Figure2CellTask) -> Dict[str, Any]:
    """Top-level (hence picklable) adapter around :func:`run_figure2_cell`.

    Returns the cell's metric dict wrapped with worker-side telemetry
    (wall time measured inside the worker, worker pid); the parent turns
    the wrapper into a ``cell.run`` event and stores only the metrics.
    """
    cfg, qps, scale, seed, include_fifo = task
    t0 = time.perf_counter()
    metrics = run_figure2_cell(
        cfg, qps, scale, seed=seed, include_fifo=include_fifo
    )
    return {
        "metrics": metrics,
        "wall_s": round(time.perf_counter() - t0, 6),
        "pid": os.getpid(),
    }


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
    serial loop.  ``max_workers``, ``cell_timeout`` and ``retries``
    follow the resolution rules of
    :func:`repro.experiments.parallel.parallel_map`, whose supervised
    pool retries crashed or deadline-expired cells from their
    coordinate-derived seeds and respawns a broken pool; completed
    cells are checkpointed into the cache as they finish, so an aborted
    sweep resumes losslessly.

    With ``resume`` (default: the ``REPRO_RESUME`` environment variable,
    i.e. the CLI's ``--resume`` flag) previously computed cells are
    served from the content-addressed cell cache
    (:mod:`repro.experiments.cache`) and only cold cells run; cached
    values are the exact floats of the original run.  Cell keys cover
    the full config (a frozen dataclass with a canonical repr), scale,
    seed and lineup, so any parameter change misses cleanly.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) records the
    sweep as structured events -- ``sweep.start``, per-cell ``cell.run``
    (worker-measured wall time + pid) / ``cell.cached``, ``cache.*``,
    ``sweep.done`` -- and writes a run manifest next to the cache dir
    (or the telemetry log).  Results are bit-identical either way.
    """
    t_start = time.perf_counter()
    if resume is None:
        resume = resume_enabled_by_env()
    if resume and cache is None:
        cache = SweepCache()
    if telemetry is None:
        # CLI path: the --telemetry flag routes through REPRO_TELEMETRY
        # rather than threading a parameter into every figure function.
        from repro.obs.telemetry import default_telemetry

        telemetry = default_telemetry()
    if cache is not None and telemetry is not None and cache.telemetry is None:
        cache.telemetry = telemetry

    keys = [
        cell_key(
            "fig2-cell", repr(cfg), float(qps), scale.n_jobs, scale.reps,
            seed, include_fifo,
        )
        for qps in qps_values
    ]
    results: List[Optional[Dict[str, float]]] = [None] * len(qps_values)
    if resume and cache is not None:
        for i, key in enumerate(keys):
            results[i] = cache.load_cell(key)

    cold = [i for i in range(len(qps_values)) if results[i] is None]
    if telemetry is not None:
        telemetry.emit(
            "sweep.start",
            kind="run_figure2_cells",
            n_cells=len(qps_values),
            n_tasks=len(qps_values),
            n_cold=len(cold),
            m=cfg.m,
            reps=scale.reps,
            include_fifo=include_fifo,
        )
        for i in range(len(qps_values)):
            if results[i] is not None:
                telemetry.emit(
                    "cell.cached",
                    params={"qps": qps_values[i]},
                    metrics=results[i],
                )
    tasks: List[Figure2CellTask] = [
        (cfg, qps_values[i], scale, seed, include_fifo) for i in cold
    ]

    def checkpoint(batch_idx: int, payload: Dict[str, Any]) -> None:
        # Flush each finished cell to the cache immediately (completion
        # order), so a killed sweep resumes from everything already
        # computed.  A failed checkpoint write only degrades
        # resumability, never the run.
        if cache is None:
            return
        try:
            cache.store_cell(keys[cold[batch_idx]], payload["metrics"])
        except Exception as exc:
            if telemetry is not None:
                telemetry.emit(
                    "cache.store_failed",
                    key=keys[cold[batch_idx]],
                    error=f"{type(exc).__name__}: {exc}",
                )

    cold_results = parallel_map(
        _figure2_cell_task, tasks, max_workers=max_workers,
        telemetry=telemetry, cell_timeout=cell_timeout, retries=retries,
        on_result=checkpoint,
    )
    for i, payload in zip(cold, cold_results):
        value = payload["metrics"]
        results[i] = value
        if telemetry is not None:
            telemetry.emit(
                "cell.run",
                params={"qps": qps_values[i]},
                seed=seed,
                wall_s=payload["wall_s"],
                pid=payload["pid"],
                metrics=value,
            )

    manifest_path = None
    log_path = telemetry.path if telemetry is not None else None
    if cache is not None or log_path is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        manifest = build_manifest(
            kind="run_figure2_cells",
            config={
                "config": repr(cfg),
                "qps_values": [float(q) for q in qps_values],
                "n_jobs": scale.n_jobs,
                "reps": scale.reps,
                "include_fifo": include_fifo,
            },
            seed=seed,
            timings={"wall_s": round(time.perf_counter() - t_start, 6)},
            event_log=log_path,
            cache_dir=cache.root if cache is not None else None,
            extra={"n_cells": len(qps_values), "n_cold": len(cold)},
        )
        directory = (
            cache.root if cache is not None else log_path.parent
        ) / "manifests"
        manifest_path = write_manifest(manifest, directory)
    if telemetry is not None:
        telemetry.emit(
            "sweep.done",
            kind="run_figure2_cells",
            wall_s=round(time.perf_counter() - t_start, 6),
            n_cold=len(cold),
            n_cached=len(qps_values) - len(cold),
            manifest=str(manifest_path) if manifest_path else None,
        )
    return results  # type: ignore[return-value]


def mean_and_spread(values: List[float]) -> Dict[str, float]:
    """Mean / min / max summary used when reporting repetitions."""
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
