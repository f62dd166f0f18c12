"""Adaptive search over scheduler/workload knobs (ISSUE 9).

The paper's headline results are *threshold* questions -- the minimum
speed augmentation ``1 + eps`` at which steal-k-first's max flow time
meets an ``O(1/eps)``-style budget -- but an exhaustive
:func:`repro.sweep` answers them by paying for every grid point at full
repetition count.  This module answers the same questions adaptively:

* :func:`successive_halving` -- evaluate *all* candidates cheaply (few
  repetitions), keep the best ``1/eta`` fraction, multiply the
  repetition count by ``eta``, repeat.  An optional GA refinement stage
  (``refine="ga"``, in the style of psim's ``run/ga.py``) then breeds
  new grid coordinates from the survivors.
* :func:`threshold_search` -- bisect a sorted 1-D candidate axis for the
  smallest value whose objective meets a budget, raising
  :class:`~repro.errors.SearchInfeasibleError` when none does.

Both drivers route **every** candidate evaluation through the grid-sweep
executor's ``cells=`` subset mode (:func:`_grid_sweep`), which preserves
*global* cell identity: run seeds and content-addressed cache keys
derive from a candidate's position in the full cross product, never
from which round (or which search) evaluated it.  Three properties fall
out of that single design decision:

1. every evaluated cell is byte-identical to the cell an exhaustive
   ``repro.sweep`` of the same grid would produce;
2. a round re-hitting a coordinate already evaluated at a lower
   repetition count pays only for the *new* repetitions (the rest are
   cell-cache hits -- round 2 of a halving run is >= ``1/eta`` cached);
3. the whole search is resumable: rerun with the same cache directory
   and every previously computed (cell, rep) task is served from disk.

Determinism: pruning sorts candidates by ``(score, global index)`` and
the GA draws from :func:`numpy.random.default_rng` seeded via
:func:`repro.sim.rng.derive_seed`, so the same seed reproduces the same
pruning decisions, the same incumbent trajectory, and the same final
answer -- bit-for-bit, across processes (``tools/search_smoke.py``
pins this in CI).

Facade: :func:`repro.search` wraps both drivers with the same
scheduler-form acceptance and alias normalization as :func:`repro.run`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dag.job import JobSet
from repro.errors import SearchInfeasibleError, SweepConfigError
from repro.experiments.parallel import WorkerPool
from repro.experiments.sweep import (
    METRICS,
    SweepCell,
    _build_rep_table,
    _check_machine_config,
    _grid_sweep,
    _resolve_sinks,
)
from repro.sim.engine import _valid_speed
from repro.sim.rng import derive_seed

__all__ = [
    "SearchRound",
    "SearchResult",
    "successive_halving",
    "threshold_search",
]


@dataclass(frozen=True)
class SearchRound:
    """One evaluated round of an adaptive search.

    ``stage`` is ``"halving"``, ``"ga"`` or ``"bisect"``; ``survivors``
    holds the *global* cross-product indices still alive after the
    round's pruning (for a bisection probe: the remaining candidate
    span).  ``n_cold`` / ``n_cached`` count (cell, repetition) tasks,
    exactly as :class:`~repro.experiments.sweep.SweepResult` does.
    """

    round: int
    stage: str
    reps: int
    n_candidates: int
    n_cold: int
    n_cached: int
    best_params: Dict[str, Any]
    best_value: float
    survivors: Tuple[int, ...]


@dataclass
class SearchResult:
    """Outcome of an adaptive search, with a paper-style rendering.

    ``best`` is the incumbent cell (parameters + metric means at its
    final repetition count); ``best_index`` its global cross-product
    index.  ``trajectory`` lists the incumbent objective value after
    each round -- two runs with the same seed must produce identical
    trajectories (the CI smoke gate compares them across processes).

    For :func:`threshold_search`, ``budget`` holds the constraint and
    ``feasible`` is True (an infeasible search *raises* instead of
    returning).
    """

    mode: str
    objective: str
    param_names: List[str]
    n_cells: int
    best: SweepCell
    best_index: int
    rounds: List[SearchRound] = field(default_factory=list)
    n_evaluations: int = 0
    n_cold: int = 0
    n_cached: int = 0
    seed: int = 0
    wall_s: float = 0.0
    budget: Optional[float] = None
    feasible: Optional[bool] = None

    @property
    def trajectory(self) -> List[float]:
        """Incumbent objective value after each round."""
        return [r.best_value for r in self.rounds]

    @property
    def cold_fraction(self) -> float:
        """Fraction of (cell, rep) tasks computed fresh (vs cache)."""
        if self.n_evaluations == 0:
            return 0.0
        return self.n_cold / self.n_evaluations

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the CLI's ``--json`` output)."""
        return {
            "mode": self.mode,
            "objective": self.objective,
            "param_names": list(self.param_names),
            "n_cells": self.n_cells,
            "best": {
                "params": dict(self.best.params),
                "metrics": dict(self.best.metrics),
            },
            "best_index": self.best_index,
            "rounds": [
                {
                    "round": r.round,
                    "stage": r.stage,
                    "reps": r.reps,
                    "n_candidates": r.n_candidates,
                    "n_cold": r.n_cold,
                    "n_cached": r.n_cached,
                    "best_params": dict(r.best_params),
                    "best_value": r.best_value,
                    "survivors": list(r.survivors),
                }
                for r in self.rounds
            ],
            "trajectory": self.trajectory,
            "n_evaluations": self.n_evaluations,
            "n_cold": self.n_cold,
            "n_cached": self.n_cached,
            "seed": self.seed,
            "wall_s": self.wall_s,
            "budget": self.budget,
            "feasible": self.feasible,
        }

    def summary(self) -> str:
        """Aligned human-readable report."""
        title = f"adaptive search ({self.mode})"
        lines = [title, "=" * len(title)]
        lines.append(
            f"{'objective':<14}{self.objective}  (minimize"
            + (f", budget <= {self.budget:g})" if self.budget is not None
               else ")")
        )
        lines.append(
            f"{'space':<14}{' x '.join(self.param_names) or '-'}"
            f"  ({self.n_cells} cells)"
        )
        lines.append(
            f"{'evaluations':<14}{self.n_evaluations} (cell, rep) tasks: "
            f"{self.n_cold} cold, {self.n_cached} cached "
            f"({self.cold_fraction:.0%} cold)"
        )
        lines.append(f"{'seed':<14}{self.seed}")
        header = (
            f"{'round':>6}{'stage':>9}{'reps':>6}{'cands':>7}"
            f"{'cold':>6}{'cached':>8}{'best':>14}  params"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rounds:
            lines.append(
                f"{r.round:>6}{r.stage:>9}{r.reps:>6}{r.n_candidates:>7}"
                f"{r.n_cold:>6}{r.n_cached:>8}{r.best_value:>14.3f}"
                f"  {r.best_params}"
            )
        verdict = (
            f"incumbent: {dict(self.best.params)}  "
            f"{self.objective}={self.best.metrics[self.objective]:.3f}"
        )
        if self.feasible is not None:
            verdict += f"  (budget <= {self.budget:g}: met)"
        lines.append(verdict)
        return "\n".join(lines)


def _validate_space(space: Dict[str, Sequence[Any]]) -> List[Tuple[Any, ...]]:
    """Typed validation of the candidate space; returns the cross product."""
    if not isinstance(space, dict) or not space:
        raise SweepConfigError(
            "space must be a non-empty dict of parameter -> candidate values"
        )
    for name, values in space.items():
        vals = list(values)
        if not vals:
            raise SweepConfigError(
                f"space[{name!r}] must hold at least one candidate value"
            )
        if len(set(map(repr, vals))) != len(vals):
            raise SweepConfigError(
                f"space[{name!r}] contains duplicate values: {vals}"
            )
    return list(itertools.product(*space.values()))


def _check_objective(objective: str, metrics: Optional[Sequence[str]]):
    if objective not in METRICS:
        raise SweepConfigError(
            f"unknown objective {objective!r}; available: {sorted(METRICS)}"
        )
    metric_names = list(metrics) if metrics is not None else [objective]
    if objective not in metric_names:
        metric_names.insert(0, objective)
    return metric_names


class _Evaluator:
    """Evaluates global cell-index subsets through the cached sweep path.

    One instance per search; accumulates cold/cached totals so the
    result's cache-reuse accounting is exact.  Every call is a single
    ``_grid_sweep(cells=..., resume=True)`` over the *full* grid, which
    is what keeps cell identity global.

    The evaluator builds the search's repetition instances once,
    ``depth`` deep (the most repetitions any round of the search can
    ask for), through the sweep's instance cache, and hashes each once;
    it holds one :class:`~repro.experiments.parallel.WorkerPool` over
    them, which the search enters around all its rounds.  Every round
    reads the first ``reps`` instances of that table and runs its cold
    tasks as one batch of that pool, so workers are forked at most once
    per search (plus a respawn after a crash or deadline) and none at
    all when every task is cached.  Cell keys, run seeds and manifests
    are those of an independent ``_grid_sweep`` per round.
    """

    def __init__(self, scheduler_factory, space, jobset_factory, m, speed,
                 seed, metric_names, cache, max_workers, telemetry,
                 cell_timeout, retries, depth):
        self.factory = scheduler_factory
        self.space = space
        self.jobset_factory = jobset_factory
        self.m = m
        self.speed = speed
        self.seed = seed
        self.metric_names = metric_names
        self.cache, self.telemetry = _resolve_sinks(cache, True, telemetry)
        self.cell_timeout = cell_timeout
        self.retries = retries
        self.n_evaluations = 0
        self.n_cold = 0
        self.n_cached = 0
        self.table = _build_rep_table(jobset_factory, seed, depth, self.cache)
        self.pool = WorkerPool(self.table.sets, max_workers)

    def __call__(
        self, indices: Sequence[int], reps: int,
        speed: Optional[float] = None,
    ) -> Tuple[Dict[int, SweepCell], int, int]:
        """Evaluate ``indices`` at ``reps``; returns (idx -> cell, cold, cached).

        ``speed`` overrides the search's speed: the epsilon axis, whose
        evaluator has an empty grid (``allow_empty_grid``) and one cell,
        index 0, because the candidate is the simulation-level speed,
        not a scheduler knob.  Rep seeds stay identical across
        candidates (paired comparison); the cell key covers ``speed``,
        so each candidate caches separately.
        """
        ordered = sorted(indices)
        result = _grid_sweep(
            self.factory,
            self.space,
            self.jobset_factory,
            m=self.m,
            reps=reps,
            seed=self.seed,
            speed=self.speed if speed is None else speed,
            metrics=self.metric_names,
            cache=self.cache,
            resume=True,
            telemetry=self.telemetry,
            cell_timeout=self.cell_timeout,
            retries=self.retries,
            cells=ordered if self.space else None,
            allow_empty_grid=not self.space,
            _rep_table=self.table,
            _pool=self.pool,
        )
        self.n_evaluations += len(ordered) * reps
        self.n_cold += result.n_cold
        self.n_cached += result.n_cached
        return (
            dict(zip(ordered, result.cells)),
            result.n_cold,
            result.n_cached,
        )


def _halving_depth(n_cells: int, r0: int, eta: int, rounds: int) -> int:
    """The repetitions of the last round :func:`successive_halving`
    reaches: the survivor count after each round depends only on the
    count before it, so an oversized ``rounds`` stops at one survivor
    here exactly as the search does."""
    n = n_cells
    for rnd in range(rounds):
        reps = r0 * eta**rnd
        n = max(1, math.ceil(n / eta))
        if n == 1:
            break
    return reps


def successive_halving(
    scheduler_factory: Callable[..., Any],
    space: Dict[str, Sequence[Any]],
    jobset_factory: Callable[[int], JobSet],
    m: int,
    objective: str = "max_flow",
    metrics: Optional[Sequence[str]] = None,
    r0: int = 1,
    eta: int = 2,
    rounds: Optional[int] = None,
    seed: int = 0,
    speed: float = 1.0,
    refine: Optional[str] = None,
    refine_generations: int = 3,
    refine_population: Optional[int] = None,
    cache: Any = None,
    max_workers: Optional[int] = None,
    telemetry: Optional[Any] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> SearchResult:
    """Deterministic successive halving over a parameter grid.

    Round ``r`` evaluates the surviving candidates at ``r0 * eta**r``
    repetitions, ranks them by the mean ``objective`` (minimized, ties
    broken by global cell index -- deterministic), and keeps the best
    ``ceil(n / eta)``.  The search stops when one candidate remains or
    ``rounds`` (default: enough to reach a single survivor) are
    exhausted.  Because repetitions of earlier rounds are a *prefix* of
    later rounds' repetitions and every evaluation runs through the
    content-addressed cell cache, each round recomputes only the newly
    added repetitions: round 2 is always >= ``1/eta`` cache hits, and a
    full rerun against the same cache is ~100% hits.

    ``refine="ga"`` appends a genetic refinement stage (psim-style):
    survivors seed a population of grid coordinates; each generation
    evaluates unseen members at the final repetition count, keeps the
    elite half, and breeds offspring by uniform crossover plus +-1-step
    mutation along single axes.  All offspring are grid points, so the
    stage shares the same cache/determinism story as the halving rounds.

    Telemetry vocabulary: ``search.start``, per-round ``search.round``
    and ``search.prune``, ``search.done`` -- all summarized by
    :func:`repro.obs.summarize_events` and sanity-checked by
    :func:`repro.obs.audit_events`.
    """
    t_start = time.perf_counter()
    combos = _validate_space(space)
    metric_names = _check_objective(objective, metrics)
    _check_machine_config(m, speed)
    if r0 < 1:
        raise SweepConfigError(f"need r0 >= 1, got {r0}")
    if eta < 2:
        raise SweepConfigError(f"need eta >= 2, got {eta}")
    n_cells = len(combos)
    if rounds is None:
        rounds = max(1, math.ceil(math.log(n_cells, eta))) if n_cells > 1 else 1
    if rounds < 1:
        raise SweepConfigError(f"need rounds >= 1, got {rounds}")
    if refine not in (None, "ga"):
        raise SweepConfigError(
            f"unknown refine stage {refine!r}; available: 'ga'"
        )
    if refine_generations < 1:
        raise SweepConfigError(
            f"need refine_generations >= 1, got {refine_generations}"
        )

    if telemetry is None:
        from repro.obs.telemetry import default_telemetry

        telemetry = default_telemetry()
    mode = "halving" if refine is None else f"halving+{refine}"
    if telemetry is not None:
        telemetry.emit(
            "search.start",
            mode=mode,
            objective=objective,
            n_cells=n_cells,
            param_names=list(space),
            r0=r0,
            eta=eta,
            rounds=rounds,
            seed=seed,
        )

    # The GA refines at the halving's final repetition count, so the
    # deepest halving round bounds every evaluation of the search.
    evaluate = _Evaluator(
        scheduler_factory, space, jobset_factory, m, speed, seed,
        metric_names, cache, max_workers, telemetry, cell_timeout, retries,
        _halving_depth(n_cells, r0, eta, rounds),
    )
    with evaluate.pool:
        survivors = list(range(n_cells))
        round_log: List[SearchRound] = []
        best_cells: Dict[int, SweepCell] = {}
        for rnd in range(rounds):
            reps = r0 * eta**rnd
            evaluated, n_cold, n_cached = evaluate(survivors, reps)
            best_cells.update(evaluated)
            ranked = sorted(
                survivors, key=lambda i: (evaluated[i].metrics[objective], i)
            )
            keep = max(1, math.ceil(len(ranked) / eta))
            pruned, dropped = ranked[:keep], ranked[keep:]
            incumbent = ranked[0]
            round_log.append(
                SearchRound(
                    round=rnd,
                    stage="halving",
                    reps=reps,
                    n_candidates=len(survivors),
                    n_cold=n_cold,
                    n_cached=n_cached,
                    best_params=dict(evaluated[incumbent].params),
                    best_value=evaluated[incumbent].metrics[objective],
                    survivors=tuple(sorted(pruned)),
                )
            )
            if telemetry is not None:
                telemetry.emit(
                    "search.round",
                    round=rnd,
                    stage="halving",
                    reps=reps,
                    n_candidates=len(survivors),
                    n_cold=n_cold,
                    n_cached=n_cached,
                    best_params=dict(evaluated[incumbent].params),
                    best_value=evaluated[incumbent].metrics[objective],
                )
                telemetry.emit(
                    "search.prune",
                    round=rnd,
                    stage="halving",
                    kept=len(pruned),
                    dropped=len(dropped),
                )
            survivors = sorted(pruned)
            if len(survivors) == 1:
                break

        final_reps = round_log[-1].reps
        if refine == "ga":
            survivors, final_reps = _ga_refine(
                evaluate, combos, space, survivors, final_reps, eta, seed,
                objective, refine_generations, refine_population,
                best_cells, round_log, telemetry, start_round=len(round_log),
            )

    # The incumbent: best objective among the final survivors at their
    # final (deepest) evaluation; ties break on global index.
    best_index = min(
        survivors, key=lambda i: (best_cells[i].metrics[objective], i)
    )
    best = best_cells[best_index]
    result = SearchResult(
        mode=mode,
        objective=objective,
        param_names=list(space),
        n_cells=n_cells,
        best=best,
        best_index=best_index,
        rounds=round_log,
        n_evaluations=evaluate.n_evaluations,
        n_cold=evaluate.n_cold,
        n_cached=evaluate.n_cached,
        seed=seed,
        wall_s=round(time.perf_counter() - t_start, 6),
    )
    if telemetry is not None:
        telemetry.emit(
            "search.done",
            mode=mode,
            n_rounds=len(round_log),
            n_evaluations=result.n_evaluations,
            n_cold=result.n_cold,
            n_cached=result.n_cached,
            best_params=dict(best.params),
            best_value=best.metrics[objective],
            wall_s=result.wall_s,
        )
    return result


def _ga_refine(
    evaluate: _Evaluator,
    combos: List[Tuple[Any, ...]],
    space: Dict[str, Sequence[Any]],
    survivors: List[int],
    reps: int,
    eta: int,
    seed: int,
    objective: str,
    generations: int,
    population: Optional[int],
    best_cells: Dict[int, SweepCell],
    round_log: List[SearchRound],
    telemetry: Optional[Any],
    start_round: int,
) -> Tuple[List[int], int]:
    """Psim-style GA polish over grid *coordinates* (not raw values).

    Genomes are per-axis indices into ``space``'s value lists, so every
    individual is a legal grid cell and evaluation stays on the cached
    ``cells=`` path.  Crossover picks each axis from one of two parents;
    mutation steps one axis by +-1 (clamped).  Selection keeps the elite
    half.  The RNG is seeded from the search seed via ``derive_seed``,
    never from global state -- same seed, same generations.
    """
    dims = [len(v) for v in space.values()]
    strides = [0] * len(dims)
    acc = 1
    for d in range(len(dims) - 1, -1, -1):
        strides[d] = acc
        acc *= dims[d]

    def to_coords(index: int) -> List[int]:
        return [(index // strides[d]) % dims[d] for d in range(len(dims))]

    def to_index(coords: Sequence[int]) -> int:
        return sum(c * s for c, s in zip(coords, strides))

    rng = np.random.default_rng(derive_seed(seed, 7700))
    pop_size = population or min(len(combos), max(4, 2 * len(survivors)))
    if pop_size < 2:
        pop_size = min(2, len(combos))
    pop: List[int] = list(survivors)[:pop_size]
    while len(pop) < pop_size:
        candidate = int(rng.integers(0, len(combos)))
        if candidate not in pop:
            pop.append(candidate)

    for gen in range(generations):
        fresh = [i for i in pop if i not in best_cells]
        n_cold = n_cached = 0
        if fresh:
            evaluated, n_cold, n_cached = evaluate(fresh, reps)
            best_cells.update(evaluated)
        ranked = sorted(
            pop, key=lambda i: (best_cells[i].metrics[objective], i)
        )
        elite = ranked[: max(1, len(ranked) // 2)]
        incumbent = ranked[0]
        round_log.append(
            SearchRound(
                round=start_round + gen,
                stage="ga",
                reps=reps,
                n_candidates=len(pop),
                n_cold=n_cold,
                n_cached=n_cached,
                best_params=dict(best_cells[incumbent].params),
                best_value=best_cells[incumbent].metrics[objective],
                survivors=tuple(sorted(elite)),
            )
        )
        if telemetry is not None:
            telemetry.emit(
                "search.round",
                round=start_round + gen,
                stage="ga",
                reps=reps,
                n_candidates=len(pop),
                n_cold=n_cold,
                n_cached=n_cached,
                best_params=dict(best_cells[incumbent].params),
                best_value=best_cells[incumbent].metrics[objective],
            )
            telemetry.emit(
                "search.prune",
                round=start_round + gen,
                stage="ga",
                kept=len(elite),
                dropped=len(pop) - len(elite),
            )
        if gen == generations - 1:
            return sorted(elite), reps
        # Breed the next generation from the elite.
        next_pop = list(elite)
        guard = 0
        while len(next_pop) < pop_size and guard < 20 * pop_size:
            guard += 1
            a, b = rng.choice(len(elite), size=2)
            ca, cb = to_coords(elite[int(a)]), to_coords(elite[int(b)])
            child = [
                ca[d] if rng.random() < 0.5 else cb[d]
                for d in range(len(dims))
            ]
            if rng.random() < 0.5:  # mutate: one axis, one step
                axis = int(rng.integers(0, len(dims)))
                child[axis] = int(
                    np.clip(
                        child[axis] + (1 if rng.random() < 0.5 else -1),
                        0,
                        dims[axis] - 1,
                    )
                )
            idx = to_index(child)
            if idx not in next_pop:
                next_pop.append(idx)
        pop = next_pop
    return sorted(survivors), reps  # pragma: no cover - loop always returns


def threshold_search(
    scheduler_factory: Callable[..., Any],
    param: str,
    values: Sequence[Any],
    jobset_factory: Callable[[int], JobSet],
    m: int,
    budget: float,
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
) -> SearchResult:
    """Bisect a sorted candidate axis for the smallest value meeting a budget.

    Answers the paper's threshold questions directly: *"what is the
    minimum speed augmentation at which max flow time stays within
    B?"* -- ``threshold_search(sched, "speed", [1.0, 1.1, ...], wl,
    m=16, budget=B)``.  Assumes the objective is non-increasing along
    ``values`` (more speed never hurts max flow), which is what makes
    bisection sound; candidates must be strictly increasing.

    ``param`` may name a scheduler knob (a grid dimension) **or** the
    simulation-level speed axis (``"speed"`` / its facade alias
    ``"augmentation"``) -- the latter is the paper's minimum-epsilon
    question itself: candidates are speed factors, each probe a
    single-cell sweep at that speed (``grid={}``), still cached and
    paired (same rep seeds for every candidate).  Scheduler-knob probes
    are ``cells=[i]`` subsets of the 1-D grid, byte-identical to the
    exhaustive sweep's cells.  Finds the answer in ``O(log n)`` probes;
    raises :class:`~repro.errors.SearchInfeasibleError` (carrying the
    closest attempt) when even ``values[-1]`` misses the budget.
    """
    t_start = time.perf_counter()
    vals = list(values)
    if not vals:
        raise SweepConfigError("values must hold at least one candidate")
    if any(not (vals[i] < vals[i + 1]) for i in range(len(vals) - 1)):
        raise SweepConfigError(
            f"values must be strictly increasing for bisection, got {vals}"
        )
    if not isinstance(budget, (int, float)) or not math.isfinite(budget):
        raise SweepConfigError(f"budget must be a finite number, got {budget!r}")
    metric_names = _check_objective(objective, metrics)
    _check_machine_config(m, speed)
    speed_axis = param in ("speed", "augmentation")
    if speed_axis:
        if speed != 1.0:
            raise SweepConfigError(
                f"cannot search over {param!r} and also fix speed={speed}: "
                f"the candidate values ARE the speed axis"
            )
        bad = [v for v in vals if not _valid_speed(v)]
        if bad:
            raise SweepConfigError(
                f"speed candidates must be finite positive numbers, got {bad}"
            )
    if telemetry is None:
        from repro.obs.telemetry import default_telemetry

        telemetry = default_telemetry()
    if telemetry is not None:
        telemetry.emit(
            "search.start",
            mode="threshold",
            objective=objective,
            n_cells=len(vals),
            param_names=[param],
            budget=budget,
            reps=reps,
            seed=seed,
        )
    # Every probe runs at ``reps``: the table is that deep.
    evaluate = _Evaluator(
        scheduler_factory, {} if speed_axis else {param: vals},
        jobset_factory, m, speed, seed, metric_names, cache, max_workers,
        telemetry, cell_timeout, retries, reps,
    )

    def eval_candidate(i: int) -> Tuple[SweepCell, int, int]:
        if speed_axis:
            evaluated, n_cold, n_cached = evaluate([0], reps, float(vals[i]))
            # Report under the caller's axis name (speed/augmentation),
            # with the candidate value as given.
            cell = SweepCell(
                params={param: vals[i]}, metrics=evaluated[0].metrics
            )
            return cell, n_cold, n_cached
        evaluated, n_cold, n_cached = evaluate([i], reps)
        return evaluated[i], n_cold, n_cached

    round_log: List[SearchRound] = []
    cells: Dict[int, SweepCell] = {}

    def probe(i: int, rnd: int, span: Tuple[int, int]) -> float:
        cell, n_cold, n_cached = eval_candidate(i)
        cells[i] = cell
        value = cell.metrics[objective]
        round_log.append(
            SearchRound(
                round=rnd,
                stage="bisect",
                reps=reps,
                n_candidates=span[1] - span[0] + 1,
                n_cold=n_cold,
                n_cached=n_cached,
                best_params=dict(cell.params),
                best_value=value,
                survivors=tuple(range(span[0], span[1] + 1)),
            )
        )
        if telemetry is not None:
            telemetry.emit(
                "search.round",
                round=rnd,
                stage="bisect",
                reps=reps,
                n_candidates=span[1] - span[0] + 1,
                n_cold=n_cold,
                n_cached=n_cached,
                best_params=dict(cell.params),
                best_value=value,
            )
        return value

    with evaluate.pool:
        rnd = 0
        # Feasibility gate: if the most generous candidate misses the
        # budget, nothing can meet it -- fail fast with the evidence.
        top = len(vals) - 1
        top_value = probe(top, rnd, (0, top))
        if top_value > budget:
            if telemetry is not None:
                telemetry.emit(
                    "search.done",
                    mode="threshold",
                    feasible=False,
                    n_rounds=len(round_log),
                    n_evaluations=evaluate.n_evaluations,
                    n_cold=evaluate.n_cold,
                    n_cached=evaluate.n_cached,
                    best_params={param: vals[top]},
                    best_value=top_value,
                    wall_s=round(time.perf_counter() - t_start, 6),
                )
            raise SearchInfeasibleError(
                f"no candidate of {param} in [{vals[0]!r}..{vals[-1]!r}] "
                f"meets {objective} <= {budget:g}: the best attempt "
                f"({param}={vals[top]!r}) reached {top_value:.3f}. Widen "
                f"the candidate range or relax the budget.",
                objective=objective,
                budget=budget,
                best_params={param: vals[top]},
                best_value=top_value,
            )

        lo, hi = 0, top
        while lo < hi:
            rnd += 1
            mid = (lo + hi) // 2
            value = probe(mid, rnd, (lo, hi))
            before = hi - lo + 1
            if value <= budget:
                hi = mid
            else:
                lo = mid + 1
            if telemetry is not None:
                telemetry.emit(
                    "search.prune",
                    round=rnd,
                    stage="bisect",
                    kept=hi - lo + 1,
                    dropped=before - (hi - lo + 1),
                )

    best_index = lo
    best = cells[best_index]
    result = SearchResult(
        mode="threshold",
        objective=objective,
        param_names=[param],
        n_cells=len(vals),
        best=best,
        best_index=best_index,
        rounds=round_log,
        n_evaluations=evaluate.n_evaluations,
        n_cold=evaluate.n_cold,
        n_cached=evaluate.n_cached,
        seed=seed,
        wall_s=round(time.perf_counter() - t_start, 6),
        budget=budget,
        feasible=True,
    )
    if telemetry is not None:
        telemetry.emit(
            "search.done",
            mode="threshold",
            feasible=True,
            n_rounds=len(round_log),
            n_evaluations=result.n_evaluations,
            n_cold=result.n_cold,
            n_cached=result.n_cached,
            best_params=dict(best.params),
            best_value=best.metrics[objective],
            wall_s=result.wall_s,
        )
    return result
