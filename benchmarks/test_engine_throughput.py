"""Engine micro-benchmarks: simulation throughput, not paper artifacts.

These are conventional pytest-benchmark measurements (multiple rounds)
of the engines and the OPT bound, so regressions in the hot loops show
up as timing changes rather than only as slower reproduction runs.

The ``test_tick_engine_throughput_*`` benchmarks time the reference
tick engine (``repro.run("work-stealing")``; ``WorkStealingScheduler.run``
takes the kernel for these configurations).  The
``test_flat_engine_throughput_*`` benchmarks mirror them exactly (same
instance, same knobs, same seed) but run through
``repro.run(engine="flat")`` -- the compiled kernel -- on the CSR
instance, the path sweep workers execute.  ``tools/bench_report.py``
turns each mirrored pair into a ``flat_vs_reference_*`` derived ratio.

The ``*_contention`` pair measures the steal-contention regime (m=64,
sigma=64: most steal attempts miss, so victim draws dominate) where the
kernel's batched steal resolution structurally beats the reference's
per-draw loop; this ratio carries a >=5x gate
(``bench_gate.py --min-derived flat_vs_reference_contention:5``).
"""

import pytest

import repro
from repro.core.fifo import FifoScheduler
from repro.core.opt import opt_lower_bound
from repro.dag.flat import flatten_jobset
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec


@pytest.fixture(scope="module")
def throughput_jobset():
    spec = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=500, m=16)
    return spec.build(seed=11)


@pytest.fixture(scope="module")
def throughput_flat(throughput_jobset):
    return flatten_jobset(throughput_jobset)


@pytest.fixture(scope="module")
def contention_jobset():
    spec = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=500, m=64)
    return spec.build(seed=11)


@pytest.fixture(scope="module")
def contention_flat(contention_jobset):
    return flatten_jobset(contention_jobset)


def test_event_engine_throughput(benchmark, throughput_jobset):
    r = benchmark(lambda: FifoScheduler().run(throughput_jobset, m=16))
    assert r.stats.busy_steps == throughput_jobset.total_work


def test_tick_engine_throughput_admit_first(benchmark, throughput_jobset):
    r = benchmark(
        lambda: repro.run(
            "work-stealing", throughput_jobset, m=16, seed=0, k=0,
            steals_per_tick=64,
        )
    )
    assert r.stats.busy_steps == throughput_jobset.total_work


def test_tick_engine_throughput_steal_first(benchmark, throughput_jobset):
    r = benchmark(
        lambda: repro.run(
            "work-stealing", throughput_jobset, m=16, seed=0, k=16,
            steals_per_tick=64,
        )
    )
    assert r.stats.busy_steps == throughput_jobset.total_work


def test_tick_engine_throughput_theory_mode(benchmark, throughput_jobset):
    r = benchmark(
        lambda: repro.run(
            "work-stealing", throughput_jobset, m=16, seed=0, k=4,
            steals_per_tick=1,
        )
    )
    assert r.stats.busy_steps == throughput_jobset.total_work


def test_opt_bound_throughput(benchmark, throughput_jobset):
    r = benchmark(lambda: opt_lower_bound(throughput_jobset, m=16))
    assert r.n_jobs == len(throughput_jobset)


def test_flat_engine_throughput_admit_first(benchmark, throughput_flat):
    r = benchmark(
        lambda: repro.run(
            "flat", throughput_flat, m=16, seed=0, k=0, steals_per_tick=64
        )
    )
    assert r.stats.busy_steps == int(throughput_flat.node_works.sum())


def test_flat_engine_throughput_steal_first(benchmark, throughput_flat):
    r = benchmark(
        lambda: repro.run(
            "flat", throughput_flat, m=16, seed=0, k=16, steals_per_tick=64
        )
    )
    assert r.stats.busy_steps == int(throughput_flat.node_works.sum())


def test_flat_engine_throughput_theory_mode(benchmark, throughput_flat):
    r = benchmark(
        lambda: repro.run(
            "flat", throughput_flat, m=16, seed=0, k=4, steals_per_tick=1
        )
    )
    assert r.stats.busy_steps == int(throughput_flat.node_works.sum())


def test_tick_engine_throughput_contention(benchmark, contention_jobset):
    r = benchmark(
        lambda: repro.run(
            "work-stealing", contention_jobset, m=64, seed=0, k=0,
            steals_per_tick=64,
        )
    )
    assert r.stats.busy_steps == contention_jobset.total_work


def test_flat_engine_throughput_contention(benchmark, contention_flat):
    r = benchmark(
        lambda: repro.run(
            "flat", contention_flat, m=64, seed=0, k=0, steals_per_tick=64
        )
    )
    assert r.stats.busy_steps == int(contention_flat.node_works.sum())
