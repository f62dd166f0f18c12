"""The end-to-end benchmark's workloads.

Each workload is one closed-loop pass through a public entry point of
the program: the next pass starts when the previous one has finished.
The pass builds everything from the run's seed, times exactly the
entry-point calls (through ``timed``), checks the result's invariants
and returns the canonical text its correctness digest covers.

Sizes are below the shipped experiments' so that one pass takes one to
three seconds on a 2-core host: a run then holds several passes, and its
median is steady, within the benchmark's time budget.  ``smoke`` selects
the tiny size used for set-up, warm-up and the smoke test; it reaches the
same code paths (pool, batching, streaming) as the full size.

Importing this module imports nothing from the program.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple


class CheckFailed(Exception):
    """A pass produced output that breaks one of the workload's invariants."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one pass produced."""

    #: Canonical rendering of the outputs; the correctness digest covers it.
    text: str
    #: Jobs simulated in the timed calls (bounds and cached cells excluded).
    jobs: int
    #: Per-layer facts read from the program's own results.
    extras: Dict[str, float] = field(default_factory=dict)


Timed = Callable[..., Any]


def fig2(seed: int, smoke: bool, timed: Timed, scratch: str) -> Outcome:
    from repro.experiments import figures
    from repro.experiments.config import FIG2A, ExperimentScale

    scale = ExperimentScale(n_jobs=100 if smoke else 1000, reps=3)
    result = timed("main", figures.figure2, FIG2A, scale, seed=seed)
    opt = result.series["opt-lb"]
    for name, values in result.series.items():
        check(all(o <= v for o, v in zip(opt, values)),
              f"fig2: opt-lb is not the lowest series ({name}: {values})")
    # Two simulated schedulers per instance (steal-16-first, admit-first);
    # the OPT column is a computed bound, not a simulation.
    jobs = 2 * len(FIG2A.qps_values) * scale.reps * scale.n_jobs
    return Outcome(result.render(), jobs)


def lb5(seed: int, smoke: bool, timed: Timed, scratch: str) -> Outcome:
    from repro.experiments import figures

    n_values: Tuple[int, ...] = (256,) if smoke else (256, 1024, 4096)
    reps = 5
    result = timed("main", figures.lower_bound_experiment,
                   n_values=n_values, seed=seed, reps=reps)
    ws, opt = result.series["work-stealing"], result.series["opt"]
    check(all(w >= o for w, o in zip(ws, opt)),
          f"lb5: work stealing below opt ({ws} vs {opt})")
    return Outcome(result.render(), reps * sum(n_values))


#: (experiment id, figures function, simulations per generated job,
#: jobs at full size, jobs at smoke size).  ``None`` keeps the
#: function's own size: ext-scaling simulates one job, 3 reps x 6 m.
POLICY_EXPERIMENTS: Sequence[Tuple[str, str, int, Optional[int], Optional[int]]] = (
    ("abl-steal", "steal_policy_experiment", 12, 500, 40),
    ("abl-sched", "scheduler_comparison_experiment", 6, 400, 40),
    ("ext-wws", "weighted_work_stealing_experiment", 9, 500, 40),
    ("thm31", "speed_augmentation_experiment", 4, 400, 40),
    ("thm71", "weighted_experiment", 6, 400, 40),
    ("ext-speedup", "speedup_contrast_experiment", 10, 150, 20),
    ("ext-overheads", "overheads_experiment", 6, 200, 20),
    ("ext-norms", "norm_profile_experiment", 3, 400, 40),
    ("ext-makespan", "makespan_experiment", 8, 70, 10),
    ("ext-scaling", "single_job_scaling_experiment", 18, None, None),
)


def policies(seed: int, smoke: bool, timed: Timed, scratch: str) -> Outcome:
    from repro.experiments import figures

    def run_all() -> Dict[str, Any]:
        out = {}
        for exp_id, fn_name, _, full, small in POLICY_EXPERIMENTS:
            n_jobs = small if smoke else full
            kwargs = {} if n_jobs is None else {"n_jobs": n_jobs}
            out[exp_id] = getattr(figures, fn_name)(seed=seed, **kwargs)
        return out

    results = timed("main", run_all)
    sched = results["abl-sched"].series["max_flow"]
    check(sched[0] == min(sched),
          f"abl-sched: the OPT bound is not the lowest max flow ({sched})")
    thm31 = results["thm31"].series
    check(all(a <= b for a, b in zip(thm31["fifo-measured"],
                                      thm31["(3/eps)*opt-lb"])),
          "thm31: FIFO exceeds the Theorem 3.1 envelope")
    check(not any(results["ext-overheads"].series["ws-preemptions"]),
          "ext-overheads: work stealing preempted a node")
    mk = results["ext-makespan"].series
    check(all(lo <= f <= g for lo, f, g in zip(
        mk["lower-bound"], mk["fifo"], mk["graham-bound"])),
        "ext-makespan: FIFO makespan outside [lower bound, Graham bound]")
    jobs = sum(
        sims * (1 if full is None else (small if smoke else full))
        for _, _, sims, full, small in POLICY_EXPERIMENTS
    )
    text = "\n\n".join(f"== {k}\n{r.render()}" for k, r in results.items())
    return Outcome(text, jobs)


SEARCH_SPACE = {"k": [0, 1, 2, 4, 8, 16, 32, 64],
                "steals_per_tick": [1, 4, 16, 64]}
#: 16 cells: 4 halving rounds, the last one still batched (4 cold reps).
SMOKE_SEARCH_SPACE = {"k": SEARCH_SPACE["k"], "steals_per_tick": [1, 64]}


def _search_text(result: Any) -> str:
    """The search outcome that must not depend on cache state."""
    return json.dumps({
        "trajectory": result.trajectory,
        "best_index": result.best_index,
        "incumbent": {"params": result.best.params,
                      "metrics": result.best.metrics},
        "rounds": [[r.round, r.stage, r.reps, r.n_candidates,
                    r.best_params, r.best_value, list(r.survivors)]
                   for r in result.rounds],
    }, sort_keys=True)


def search(seed: int, smoke: bool, timed: Timed, scratch: str) -> Outcome:
    import repro
    from repro.workloads.distributions import BingDistribution
    from repro.workloads.generator import WorkloadSpec

    spec = WorkloadSpec(BingDistribution(), qps=1000.0,
                        n_jobs=60 if smoke else 300, m=16)
    cache = tempfile.mkdtemp(prefix="cells-", dir=scratch)
    space = SMOKE_SEARCH_SPACE if smoke else SEARCH_SPACE
    args = (repro.WorkStealingScheduler(), space, spec)
    kwargs = dict(m=16, r0=1, eta=2, seed=seed, cache=cache)
    try:
        cold = timed("main", repro.search, *args, **kwargs)
        warm = timed("resume", repro.search, *args, **kwargs)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    text = _search_text(cold)
    check(cold.n_cold + cold.n_cached == cold.n_evaluations,
          "search: cold + cached tasks != evaluations")
    check(warm.n_cold == 0, f"search: warm rerun computed {warm.n_cold} tasks")
    check(_search_text(warm) == text, "search: warm rerun result differs")
    extras = {"search.rounds": len(cold.rounds),
              "search.cold_share": cold.cold_fraction}
    return Outcome(text, cold.n_cold * spec.n_jobs, extras)


def stream(seed: int, smoke: bool, timed: Timed, scratch: str) -> Outcome:
    import repro
    from repro.workloads.distributions import BingDistribution
    from repro.workloads.generator import WorkloadSpec

    spec = WorkloadSpec(BingDistribution(), qps=300.0,
                        n_jobs=5000 if smoke else 65536, m=4,
                        target_chunks=4)
    chunks = spec.stream(chunk_jobs=1024 if smoke else 8192)
    result = timed("main", repro.run, "flat", stream=chunks, m=4, k=4,
                   quantiles=(0.5, 0.9, 0.99), seed=seed)
    check(result.n_jobs == spec.n_jobs and
          result.stats.admissions == spec.n_jobs,
          "stream: not every job was admitted")
    check(all(v <= result.max_flow for v in result.quantiles.values()),
          "stream: a flow quantile exceeds the max flow")
    text = json.dumps({
        "max_flow": result.max_flow,
        "quantiles": {repr(q): v for q, v in sorted(result.quantiles.items())},
        "peak_live_jobs": result.peak_live_jobs,
    }, sort_keys=True)
    extras = {"stream.peak_live_jobs": result.peak_live_jobs,
              "stream.segments": result.segments_generated,
              "stream.compactions": result.compactions}
    return Outcome(text, spec.n_jobs, extras)


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, bool, Timed, str], Outcome]
    why: str


#: Name -> workload.  BENCHMARK.json lists the same names with the same
#: one-line rationale (the smoke test checks both).
WORKLOADS: Dict[str, Workload] = {
    "fig2": Workload(fig2, (
        "Figure 2(a) panel on the 2-worker pool: tick kernel on parallel-for "
        "jobs, 3 cells x 3 reps, below the batch threshold")),
    "lb5": Workload(lb5, (
        "Lemma 5.1 instance: serial unit-time steals on tiny single-fork "
        "jobs; no pool, no cache, little generation")),
    "policies": Workload(policies, (
        "ten ablations and extensions whose configurations fall off the "
        "fast path; a fast-path change should not move it")),
    "search": Workload(search, (
        "repro.search cold then warm: generation, publish, pool dispatch, "
        "rep batching, cache writes then cache reads")),
    "stream": Workload(stream, (
        "bounded-memory streaming run: lazy segment generation, window "
        "compaction and online metrics")),
}
