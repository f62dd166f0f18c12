"""Sweep dispatch + cache benchmarks: what a task costs to ship and skip.

Two questions, measured directly:

* **Dispatch overhead** -- the pre-ISSUE-2 design pickled a whole
  ``JobSet`` object graph into every pool task; the flat design ships a
  tiny shared-memory handle and packs/unpacks raw CSR arrays.  The
  ``test_dispatch_*`` benchmarks compare the per-task wire costs.
* **Warm-cache speedup** -- with ``--resume``, previously computed cells
  are served from the content-addressed cache.  ``test_sweep_cold`` vs
  ``test_sweep_warm_cache`` is the end-to-end serial grid-sweep
  comparison; the report derives the ratio
  (``derived.warm_vs_cold_sweep`` in BENCH_engine.json).
"""

import pickle

import pytest

from repro.core.work_stealing import WorkStealingScheduler
from repro.dag.flat import flatten_jobset, pack_into, unpack_from
from repro.experiments.cache import SweepCache
from repro.experiments.parallel import (
    SharedInstance,
    attach_jobset,
    shared_memory_available,
)
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


def test_dispatch_flat_pack_unpack(benchmark, dispatch_jobset):
    """Publish-side cost of the flat transport: pack + unpack CSR arrays."""
    flat = flatten_jobset(dispatch_jobset)
    buf = bytearray(flat.nbytes)

    def round_trip():
        meta = pack_into(flat, buf)
        return unpack_from(buf, meta)

    out = benchmark(round_trip)
    assert out == flat


def test_dispatch_shared_handle(benchmark, dispatch_jobset):
    """Per-task cost of the new transport: pickle the handle + attach.

    The instance is published once per sweep; every task then carries
    only the handle dict, and the worker-side attach resolves against a
    per-process cache.  This is the cost the old design paid
    ``test_dispatch_pickled_jobset`` for, once per task.
    """
    if not shared_memory_available():  # pragma: no cover
        pytest.skip("no shared memory on this platform")
    with SharedInstance(
        flatten_jobset(dispatch_jobset), jobset=dispatch_jobset
    ) as shared:
        out = benchmark(
            lambda: attach_jobset(pickle.loads(pickle.dumps(shared.handle)))
        )
        assert len(out) == len(dispatch_jobset)


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
