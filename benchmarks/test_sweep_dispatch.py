"""Sweep dispatch + cache benchmarks: what a task costs to ship and skip.

Two questions, measured directly:

* **Dispatch overhead** -- the pre-ISSUE-2 design pickled a whole
  ``JobSet`` object graph into every pool task; a sweep task now
  carries its coordinates and a repetition index, and the instance
  reaches each worker once.  The ``test_dispatch_*`` benchmarks compare
  the per-task wire costs.
* **Warm-cache speedup** -- with ``--resume``, previously computed cells
  are served from the content-addressed cache.  ``test_sweep_cold`` vs
  ``test_sweep_warm_cache`` is the end-to-end serial grid-sweep
  comparison; the report derives the ratio
  (``derived.warm_vs_cold_sweep`` in BENCH_engine.json).
"""

import pickle

import pytest

from repro.core.work_stealing import WorkStealingScheduler
from repro.experiments import sweep as sweep_mod
from repro.experiments.cache import SweepCache
# _grid_sweep is the executor behind repro.sweep.
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec

DISPATCH_SPEC = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=500, m=16)
SWEEP_SPEC = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=60, m=4,
                          target_chunks=8)
SWEEP_KWARGS = dict(
    grid={"k": [0, 4]},
    jobset_factory=SWEEP_SPEC,
    m=4,
    reps=2,
    seed=3,
    metrics=("max_flow", "mean_flow"),
    max_workers=1,
)


def _make_scheduler(k):
    return WorkStealingScheduler(k=k, steals_per_tick=16)


@pytest.fixture(scope="module")
def dispatch_jobset():
    return DISPATCH_SPEC.build(seed=11)


def test_dispatch_pickled_jobset(benchmark, dispatch_jobset):
    """Per-task cost of the old transport: pickle the object graph."""
    out = benchmark(lambda: pickle.loads(pickle.dumps(dispatch_jobset)))
    assert len(out) == len(dispatch_jobset)


@pytest.fixture(scope="module")
def cold_task():
    """One cold task of a DISPATCH_SPEC sweep, as the pool receives it."""
    captured = []
    real_map = sweep_mod.parallel_map

    def recording(fn, items, **kwargs):
        captured.extend(items)
        return real_map(fn, captured, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "parallel_map", recording)
        grid_sweep(_make_scheduler, {"k": [4]}, DISPATCH_SPEC, m=16,
                   seed=11, max_workers=1)
    return captured[0]


def test_dispatch_cold_task(benchmark, cold_task):
    """Per-task cost of the current transport: pickle one cold task.

    The task carries a repetition index; the instance reached the worker
    once, as the batch's shared data.  This is the cost the old design
    paid ``test_dispatch_pickled_jobset`` for, once per task.
    """
    out = benchmark(lambda: pickle.loads(pickle.dumps(cold_task)))
    assert out[1:] == cold_task[1:]


def test_sweep_cold(benchmark):
    """End-to-end serial grid sweep, no cache: every cell computes."""
    result = benchmark(lambda: grid_sweep(_make_scheduler, **SWEEP_KWARGS))
    assert len(result.cells) == 2


def test_sweep_warm_cache(benchmark, tmp_path_factory):
    """Same sweep resumed from a fully warm content-addressed cache."""
    cache = SweepCache(tmp_path_factory.mktemp("bench_cache"))
    cold = grid_sweep(_make_scheduler, cache=cache, resume=True, **SWEEP_KWARGS)
    result = benchmark(
        lambda: grid_sweep(_make_scheduler, cache=cache, resume=True,
                           **SWEEP_KWARGS)
    )
    assert [c.metrics for c in result.cells] == [c.metrics for c in cold.cells]
