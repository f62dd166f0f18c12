"""Streaming engine throughput vs materialized ``engine="flat"``.

``test_stream_engine_throughput`` and
``test_flat_materialized_throughput`` run the same workload, knobs and
seed on the compiled kernel: one from a :class:`StreamSpec` in
2048-job segments (the stream driver with the kernel as its step,
segment pulls and compactions between steps), the other materialized
inside the timed region and run in one kernel call (the stream pays
generation during the run, so the flat side pays it too).  Each is
tracked on its own in ``BENCH_engine.json``; their ratio is not gated,
because it compares two different drivers rather than an overhead.
The pair runs with ``quantiles=()`` so it isolates the execution
strategy; ``test_stream_engine_online_metrics`` tracks the
full-metrics configuration (three P^2 sketches + windowed utilization)
separately.  Its utilization sampler is outside the kernel's scope, so
the same driver runs it with the Python step: sketch and step cost
regressions are visible there but priced apart from the kernel path.

The configuration is a sustained-load regime (qps=1000, m=8): enough
queueing that the tick loop does real scheduling work, which is
exactly the regime streaming exists for.
"""

import pytest

import repro
from repro.sim.stream_engine import _run_stream
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamSpec

N_JOBS = 10_000
M = 8
ENGINE_KW = dict(k=8, steals_per_tick=8, seed=0)


@pytest.fixture(scope="module")
def stream_spec() -> StreamSpec:
    spec = WorkloadSpec(
        BingDistribution(), qps=1000.0, n_jobs=N_JOBS, m=M, target_chunks=4
    )
    return StreamSpec(spec, chunk_jobs=2048)


@pytest.fixture(scope="module")
def total_work(stream_spec) -> int:
    return int(stream_spec.materialize(0).node_works.sum())


@pytest.mark.benchmark(min_rounds=7, warmup=True)
def test_stream_engine_throughput(benchmark, stream_spec, total_work):
    """Gated side: streaming run, online metrics off (quantiles=())."""
    r = benchmark(
        lambda: _run_stream(
            stream_spec, M, quantiles=(), **ENGINE_KW
        )
    )
    assert r.n_jobs == N_JOBS
    assert r.stats.busy_steps == total_work


@pytest.mark.benchmark(min_rounds=7, warmup=True)
def test_flat_materialized_throughput(benchmark, stream_spec, total_work):
    """Gated side: materialize + engine="flat", timed together."""
    r = benchmark(
        lambda: repro.run(
            "flat", stream_spec.materialize(0), m=M, **ENGINE_KW
        )
    )
    assert r.stats.busy_steps == total_work


def test_stream_engine_online_metrics(benchmark, stream_spec, total_work):
    """Ungated: the same run with the full metrics bundle switched on."""
    r = benchmark(
        lambda: _run_stream(
            stream_spec,
            M,
            quantiles=(0.5, 0.9, 0.99),
            utilization_window=1024,
            **ENGINE_KW,
        )
    )
    assert r.stats.busy_steps == total_work
    assert set(r.quantiles) == {0.5, 0.9, 0.99}
    assert r.utilization is not None
