"""Declarative ablation harness: baseline + named deltas -> impact report.

An ablation asks "which knob *matters*?": take a baseline
configuration, apply one named change at a time, run every variant on
the **same** instances, and rank the changes by how much they move the
objective.  Before this module that meant hand-rolling a grid whose
axes are not really axes (each delta touches a different knob), then
eyeballing the table; now it is one declarative call::

    report = repro.ablate(
        WorkStealingScheduler(k=16),
        baseline={"m": 16},
        deltas={
            "no-stealing":   {"k": 0},
            "half-machines": {"m": 8},
            "10%-faster":    {"speed": 1.1},
            "heavy-tail":    {"workload.qps": 1500},
        },
        workload=spec, reps=3, seed=0,
    )
    print(report.summary())       # ranked by |impact on the objective|

Delta keys address four knob layers (the same vocabulary as
:func:`repro.run`):

* scheduler parameters -- any other key becomes a keyword argument of
  the scheduler factory (``{"k": 0}``);
* machine size -- ``m`` / its alias ``num_workers``;
* speed augmentation -- ``speed`` / its alias ``augmentation``;
* workload -- ``workload.<field>`` rewrites one field of the
  :class:`~repro.workloads.generator.WorkloadSpec` via
  :func:`dataclasses.replace` (``{"workload.qps": 1500}``);
* engine -- ``scheduler`` swaps the scheduler factory itself (the
  facade normalizes engine names / instances / classes first).

Every configuration runs through the cached grid-sweep executor as a
single-cell sweep with **identical rep seeds** (cell index 0 for every
config), so comparisons are paired: a delta's impact is never noise
from different workload draws.  Cache keys cover the resolved factory,
parameters, ``m``, ``speed`` and the instance content hash, so each
variant caches independently and a re-run of the same ablation is
served entirely from cache.

Telemetry vocabulary: ``ablate.start``, one ``ablate.delta`` per
variant, ``ablate.done`` -- summarized by
:func:`repro.obs.summarize_events`, sanity-checked by
:func:`repro.obs.audit_events`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dag.job import JobSet
from repro.errors import SweepConfigError
from repro.experiments.search import _check_objective
from repro.experiments.sweep import METRICS, _check_machine_config, _grid_sweep

__all__ = ["AblationDelta", "AblationReport", "ablate"]


@dataclass(frozen=True)
class AblationDelta:
    """One variant's outcome: resolved knobs, metrics, impact vs baseline.

    ``impact`` is ``variant - baseline`` per metric (all metrics are
    minimized, so positive = the change made things worse);
    ``rel_impact`` divides by the baseline value (None where the
    baseline is zero).
    """

    name: str
    overrides: Dict[str, Any]
    params: Dict[str, Any]
    m: int
    speed: float
    metrics: Dict[str, float]
    impact: Dict[str, float]
    rel_impact: Dict[str, Optional[float]]
    n_cold: int = 0
    n_cached: int = 0


@dataclass
class AblationReport:
    """All variants of one ablation, ranked by impact on the objective."""

    objective: str
    metric_names: List[str]
    baseline_params: Dict[str, Any]
    baseline_m: int
    baseline_speed: float
    baseline_metrics: Dict[str, float]
    deltas: List[AblationDelta] = field(default_factory=list)
    reps: int = 1
    seed: int = 0
    n_cold: int = 0
    n_cached: int = 0
    wall_s: float = 0.0

    def ranked(self) -> List[AblationDelta]:
        """Variants by descending ``|impact[objective]|`` (ties: name)."""
        return sorted(
            self.deltas,
            key=lambda d: (-abs(d.impact[self.objective]), d.name),
        )

    def __getitem__(self, name: str) -> AblationDelta:
        for d in self.deltas:
            if d.name == name:
                return d
        raise KeyError(name)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the CLI's ``--json`` output)."""
        return {
            "objective": self.objective,
            "metric_names": list(self.metric_names),
            "baseline": {
                "params": dict(self.baseline_params),
                "m": self.baseline_m,
                "speed": self.baseline_speed,
                "metrics": dict(self.baseline_metrics),
            },
            "deltas": [
                {
                    "name": d.name,
                    "overrides": dict(d.overrides),
                    "params": dict(d.params),
                    "m": d.m,
                    "speed": d.speed,
                    "metrics": dict(d.metrics),
                    "impact": dict(d.impact),
                    "rel_impact": dict(d.rel_impact),
                }
                for d in self.ranked()
            ],
            "reps": self.reps,
            "seed": self.seed,
            "n_cold": self.n_cold,
            "n_cached": self.n_cached,
            "wall_s": self.wall_s,
        }

    def summary(self) -> str:
        """Aligned text report, most impactful delta first."""
        title = f"ablation report (objective: {self.objective}, minimize)"
        lines = [title, "=" * len(title)]
        lines.append(
            f"{'baseline':<12}params={self.baseline_params}  "
            f"m={self.baseline_m}  speed={self.baseline_speed:g}  "
            f"{self.objective}={self.baseline_metrics[self.objective]:.3f}"
        )
        lines.append(
            f"{'runs':<12}{1 + len(self.deltas)} configs x {self.reps} reps "
            f"(seed {self.seed}): {self.n_cold} cold, "
            f"{self.n_cached} cached"
        )
        header = (
            f"{'delta':<20}{self.objective:>14}{'impact':>12}{'rel':>9}"
            f"  overrides"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for d in self.ranked():
            rel = d.rel_impact[self.objective]
            rel_s = f"{rel:+.1%}" if rel is not None else "-"
            lines.append(
                f"{d.name:<20}{d.metrics[self.objective]:>14.3f}"
                f"{d.impact[self.objective]:>+12.3f}{rel_s:>9}"
                f"  {d.overrides}"
            )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavored markdown table of the ranked report."""
        obj = self.objective
        lines = [
            "# Ablation report",
            "",
            f"Objective: `{obj}` (minimize) — baseline "
            f"`{self.baseline_params}`, m={self.baseline_m}, "
            f"speed={self.baseline_speed:g}, "
            f"{obj}={self.baseline_metrics[obj]:.3f}; "
            f"{self.reps} reps, seed {self.seed}.",
            "",
            f"| delta | overrides | {obj} | impact | rel |",
            "|---|---|---:|---:|---:|",
        ]
        for d in self.ranked():
            rel = d.rel_impact[obj]
            rel_s = f"{rel:+.1%}" if rel is not None else "—"
            lines.append(
                f"| {d.name} | `{d.overrides}` | {d.metrics[obj]:.3f} "
                f"| {d.impact[obj]:+.3f} | {rel_s} |"
            )
        lines.append("")
        return "\n".join(lines)


def _resolve_config(
    who: str,
    overrides: Mapping[str, Any],
    base_factory: Callable[..., Any],
    base_params: Dict[str, Any],
    base_m: int,
    base_speed: float,
    base_workload: Callable[[int], JobSet],
) -> Tuple[Callable[..., Any], Dict[str, Any], int, float, Any]:
    """Apply one override mapping on top of the baseline knobs.

    Returns ``(factory, scheduler_params, m, speed, workload)``.  Alias
    pairs (``m``/``num_workers``, ``speed``/``augmentation``) may not
    disagree inside one mapping; ``workload.<field>`` rewrites require a
    dataclass workload (a :class:`WorkloadSpec`).
    """
    factory = base_factory
    params = dict(base_params)
    m, speed, workload = base_m, base_speed, base_workload
    size_seen: Dict[str, Any] = {}
    speed_seen: Dict[str, Any] = {}
    wl_fields: Dict[str, Any] = {}
    for key, value in overrides.items():
        if not isinstance(key, str) or not key:
            raise SweepConfigError(
                f"{who}: override keys must be non-empty strings, got {key!r}"
            )
        if key in ("m", "num_workers"):
            size_seen[key] = value
        elif key in ("speed", "augmentation"):
            speed_seen[key] = value
        elif key == "scheduler":
            if not callable(value):
                raise SweepConfigError(
                    f"{who}: 'scheduler' override must be callable (the "
                    f"facade repro.ablate() also accepts engine names and "
                    f"scheduler instances), got {value!r}"
                )
            factory = value
        elif key.startswith("workload."):
            wl_fields[key[len("workload."):]] = value
        else:
            params[key] = value
    if len(set(map(repr, size_seen.values()))) > 1:
        raise SweepConfigError(
            f"{who}: 'm' and 'num_workers' are aliases but disagree: "
            f"{size_seen}"
        )
    if len(set(map(repr, speed_seen.values()))) > 1:
        raise SweepConfigError(
            f"{who}: 'speed' and 'augmentation' are aliases but disagree: "
            f"{speed_seen}"
        )
    m = next(iter(size_seen.values()), m)
    speed = next(iter(speed_seen.values()), speed)
    _check_machine_config(m, speed, f"{who}: ")
    speed = float(speed)
    if wl_fields:
        if not dataclasses.is_dataclass(workload):
            raise SweepConfigError(
                f"{who}: 'workload.*' overrides need a dataclass workload "
                f"(e.g. WorkloadSpec), got {type(workload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(workload)}
        unknown = sorted(set(wl_fields) - known)
        if unknown:
            raise SweepConfigError(
                f"{who}: unknown workload field(s) {unknown}; "
                f"available: {sorted(known)}"
            )
        workload = dataclasses.replace(workload, **wl_fields)
    return factory, params, m, speed, workload


def ablate(
    scheduler_factory: Callable[..., Any],
    baseline: Mapping[str, Any],
    deltas: Mapping[str, Mapping[str, Any]],
    jobset_factory: Callable[[int], JobSet],
    m: int,
    objective: str = "max_flow",
    metrics: Optional[Sequence[str]] = None,
    reps: int = 1,
    seed: int = 0,
    speed: float = 1.0,
    cache: Any = None,
    max_workers: Optional[int] = None,
    telemetry: Optional[Any] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> AblationReport:
    """Run a baseline plus one variant per named delta; rank the impact.

    ``baseline`` holds the baseline's knob overrides (same vocabulary
    as delta mappings -- scheduler params, ``m``/``num_workers``,
    ``speed``/``augmentation``, ``workload.<field>``) applied on top of
    the call-level ``m``/``speed``/``jobset_factory``.  Each entry of
    ``deltas`` is applied *on top of the resolved baseline*,
    independently -- classic one-factor-at-a-time ablation (put two
    knobs in one delta to measure an interaction).

    All configurations share rep seeds (paired comparison) and run
    through the content-addressed cell cache, so repeated reports are
    free and any variant's cells match what :func:`repro.run` computes
    for the same knobs.
    """
    t_start = time.perf_counter()
    _check_machine_config(m, speed)
    if reps < 1:
        raise SweepConfigError(f"need reps >= 1, got {reps}")
    metric_names = _check_objective(objective, metrics)
    if not isinstance(baseline, Mapping):
        raise SweepConfigError(
            f"baseline must be a mapping of knob -> value, "
            f"got {type(baseline).__name__}"
        )
    if not isinstance(deltas, Mapping) or not deltas:
        raise SweepConfigError(
            "deltas must be a non-empty mapping of name -> overrides"
        )
    for name, overrides in deltas.items():
        if not isinstance(name, str) or not name:
            raise SweepConfigError(
                f"delta names must be non-empty strings, got {name!r}"
            )
        if not isinstance(overrides, Mapping) or not overrides:
            raise SweepConfigError(
                f"delta {name!r} must map at least one knob to a value, "
                f"got {overrides!r}"
            )

    if telemetry is None:
        from repro.obs.telemetry import default_telemetry

        telemetry = default_telemetry()

    base = _resolve_config(
        "baseline", baseline, scheduler_factory, {}, m, speed, jobset_factory
    )

    def run_config(cfg) -> Tuple[Dict[str, float], int, int]:
        factory, params, cfg_m, cfg_speed, workload = cfg
        # A single-cell "grid" of pinned values: cell index 0 for every
        # config, hence identical rep seeds -- the paired-comparison
        # property the impact numbers rest on.
        grid = {name: [value] for name, value in params.items()}
        result = _grid_sweep(
            factory,
            grid,
            workload,
            m=cfg_m,
            reps=reps,
            seed=seed,
            speed=cfg_speed,
            metrics=metric_names,
            max_workers=max_workers,
            cache=cache,
            resume=True,
            telemetry=telemetry,
            cell_timeout=cell_timeout,
            retries=retries,
            allow_empty_grid=True,
        )
        return dict(result.cells[0].metrics), result.n_cold, result.n_cached

    if telemetry is not None:
        telemetry.emit(
            "ablate.start",
            n_deltas=len(deltas),
            objective=objective,
            metrics=metric_names,
            baseline=dict(base[1]),
            m=base[2],
            speed=base[3],
            reps=reps,
            seed=seed,
        )

    baseline_metrics, n_cold, n_cached = run_config(base)
    results: List[AblationDelta] = []
    for name, overrides in deltas.items():
        cfg = _resolve_config(
            f"delta {name!r}", overrides, base[0], base[1], base[2], base[3],
            base[4],
        )
        variant_metrics, cold, cached = run_config(cfg)
        n_cold += cold
        n_cached += cached
        impact = {
            k: variant_metrics[k] - baseline_metrics[k] for k in metric_names
        }
        rel = {
            k: (impact[k] / baseline_metrics[k]
                if baseline_metrics[k] != 0 else None)
            for k in metric_names
        }
        delta = AblationDelta(
            name=name,
            overrides=dict(overrides),
            params=dict(cfg[1]),
            m=cfg[2],
            speed=cfg[3],
            metrics=variant_metrics,
            impact=impact,
            rel_impact=rel,
            n_cold=cold,
            n_cached=cached,
        )
        results.append(delta)
        if telemetry is not None:
            telemetry.emit(
                "ablate.delta",
                name=name,
                overrides=dict(overrides),
                metrics=variant_metrics,
                impact=impact,
            )

    report = AblationReport(
        objective=objective,
        metric_names=metric_names,
        baseline_params=dict(base[1]),
        baseline_m=base[2],
        baseline_speed=base[3],
        baseline_metrics=baseline_metrics,
        deltas=results,
        reps=reps,
        seed=seed,
        n_cold=n_cold,
        n_cached=n_cached,
        wall_s=round(time.perf_counter() - t_start, 6),
    )
    if telemetry is not None:
        ranked = report.ranked()
        telemetry.emit(
            "ablate.done",
            n_deltas=len(results),
            top=ranked[0].name if ranked else None,
            top_impact=ranked[0].impact[objective] if ranked else None,
            n_cold=n_cold,
            n_cached=n_cached,
            wall_s=report.wall_s,
        )
    return report
