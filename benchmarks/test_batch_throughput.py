"""Replicate-API benchmark: R replicates in one ``run_batch`` call.

Measures the figure-mirror regime -- R independent replicate instances
of one Figure-2-style cell (Bing distribution, qps=1000, 500 jobs,
m=16, steal-16-first with sigma=64) evaluated in one
:func:`repro.sim.batch_engine.run_batch` call, the public replicate API,
which runs one kernel call per replicate over tables cached on each
instance (bit-identical per rep to the reference engine; the oracle
suites pin that).  ``REPRO_BENCH_BATCH_REPS`` overrides the
replicate count (default 8).
"""

import os

import pytest

from repro.sim.batch_engine import run_batch
from repro.sim.rng import derive_seed
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec

#: Replicates per batch.
REPS = max(2, int(os.environ.get("REPRO_BENCH_BATCH_REPS", "8")))


@pytest.fixture(scope="module")
def rep_flats():
    spec = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=500, m=16)
    # The exact per-rep instance seeds a sweep would derive (seed=11,
    # the throughput benchmarks' base seed).
    return [spec.build_flat(derive_seed(11, 9000, r)) for r in range(REPS)]


@pytest.fixture(scope="module")
def rep_seeds():
    return [derive_seed(0, 0, r) for r in range(REPS)]


def _total_work(flats):
    return sum(int(f.node_works.sum()) for f in flats)


def test_batch_engine_multi_rep(benchmark, rep_flats, rep_seeds):
    def batched():
        return run_batch(
            rep_flats, m=16, k=16, steals_per_tick=64, seeds=rep_seeds
        )

    results = benchmark(batched)
    assert sum(r.stats.busy_steps for r in results) == _total_work(rep_flats)
