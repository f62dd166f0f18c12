"""Streaming engine vs materialized ``engine="flat"``: bit-identity.

The headline claim of ``repro.run(..., stream=...)`` is that streaming
is *purely* an execution strategy: the scheduler, the RNG stream, and
every per-tick decision are identical to ``repro.run("flat", ...)`` (the
compiled kernel, or the reference engine where the kernel is out of
scope) on the materialized instance -- only the memory profile
changes.  The decisive
assertions compare ``max_flow`` with ``==`` (never ``approx``) and the
full ``SimulationStats`` dict field by field, across chunk sizes, k,
sigma, speeds and seeds.  Compaction frequency (``_compact_min``) must
be unobservable for the same reason.

One driver runs a stream window by window, with the compiled kernel or
the Python step (a sampler, no kernel) as the tick loop.  The two paths
must agree on every ``StreamResult`` field, online estimates included,
with ``==``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.errors import SweepConfigError
from repro.metrics.online import WindowedUtilization
from repro.obs import Telemetry
from repro.sim import batch_engine
from repro.sim.batch_engine import run_batch
from repro.sim.engine import _run_work_stealing
from repro.sim.stream_engine import StreamResult, _run_stream
from repro.workloads.distributions import (
    BingDistribution,
    ExponentialDistribution,
)
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamSpec
from tests.workloads.test_stream import STATEFUL_PROCESSES


def make_stream(
    n_jobs=400, chunk_jobs=128, qps=800.0, m=4, target_chunks=4, dist=None,
    arrival_process=None,
) -> StreamSpec:
    spec = WorkloadSpec(
        dist or BingDistribution(),
        arrival_process=arrival_process,
        qps=qps,
        n_jobs=n_jobs,
        m=m,
        target_chunks=target_chunks,
    )
    return StreamSpec(spec, chunk_jobs=chunk_jobs)


def python_path(monkeypatch):
    """Take the Python step, as on a host without the kernel."""
    monkeypatch.setattr(batch_engine, "resolve_batch_kernel", lambda: None)
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)


def assert_same_result(a: StreamResult, b: StreamResult) -> None:
    """Every field of two runs is ``==``: online estimates included."""
    assert a.summary() == b.summary()
    assert a.quantiles == b.quantiles
    assert a.stats.as_dict() == b.stats.as_dict()


def run_flat(instance, m, seed, **engine_kw):
    return repro.run("flat", instance, m=m, seed=seed, **engine_kw)


def assert_equivalent(sr: StreamResult, stream: StreamSpec, **engine_kw):
    """Stream result vs the materialized flat run on the same seed."""
    fr = run_flat(stream.materialize(sr.seed), sr.m, sr.seed, **engine_kw)
    assert sr.max_flow == fr.max_flow  # bit-identical, never approx
    assert sr.argmax_job == fr.argmax_flow
    assert sr.makespan == fr.makespan
    assert sr.stats.as_dict() == fr.stats.as_dict()
    assert sr.n_jobs == fr.n_jobs
    # Running sum vs numpy pairwise sum: same flows, different order.
    assert sr.mean_flow == pytest.approx(fr.mean_flow, rel=1e-12)
    return fr


# ----------------------------------------------------------------------
# Bit-identity across the parameter space
# ----------------------------------------------------------------------


GRID = [
    (400, 128, 4, 0, 1, 1.0),
    (400, 64, 8, 16, 1, 1.0),
    (800, 100, 16, 16, 4, 1.0),
    (400, 400, 4, 4, 4, 1.5),  # single chunk, augmented speed
    (300, 50, 1, 0, 1, 1.0),  # one worker
]


class TestBitIdentity:
    @pytest.mark.parametrize("n,chunk,m,k,sigma,speed", GRID)
    def test_matches_materialized_flat(self, n, chunk, m, k, sigma, speed):
        stream = make_stream(n_jobs=n, chunk_jobs=chunk, m=m)
        sr = _run_stream(
            stream, m, speed=speed, k=k, seed=7, steals_per_tick=sigma
        )
        assert_equivalent(sr, stream, speed=speed, k=k, steals_per_tick=sigma)

    @pytest.mark.parametrize("n,chunk,m,k,sigma,speed", GRID)
    def test_kernel_and_python_paths_agree(
        self, n, chunk, m, k, sigma, speed, monkeypatch
    ):
        stream = make_stream(n_jobs=n, chunk_jobs=chunk, m=m)
        kw = dict(
            speed=speed, k=k, seed=7, steals_per_tick=sigma,
            quantiles=(0.5, 0.9, 0.99), _compact_min=chunk // 2,
        )
        tel = Telemetry()
        kernel = _run_stream(stream, m, telemetry=tel, **kw)
        paths = [e["path"] for e in tel.events if e["event"] == "stream.start"]
        assert paths == ["cext"]
        python_path(monkeypatch)
        python = _run_stream(stream, m, **kw)
        assert_same_result(kernel, python)
        assert kernel.compactions > 0 or chunk == n
        assert_equivalent(
            python, stream, speed=speed, k=k, steals_per_tick=sigma
        )

    @pytest.mark.parametrize("n,chunk,m,k,sigma,speed", GRID)
    def test_sampler_sees_what_the_reference_engine_shows_it(
        self, n, chunk, m, k, sigma, speed
    ):
        """The utilization sampler is called at the reference engine's
        points with the reference engine's values: the whole sampler
        state is ``==`` after a stream and after the materialized
        reference run."""
        stream = make_stream(n_jobs=n, chunk_jobs=chunk, m=m)
        kw = dict(speed=speed, k=k, seed=7, steals_per_tick=sigma)
        sr = _run_stream(
            stream, m, utilization_window=64, _compact_min=chunk // 2, **kw
        )
        util = WindowedUtilization(m, 64)
        _run_work_stealing(
            repro.to_jobset(stream.materialize(7)), m, sampler=util, **kw
        )
        assert sr.utilization.state_dict() == util.state_dict()

    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_across_seeds(self, seed):
        stream = make_stream(n_jobs=350, chunk_jobs=97)
        sr = _run_stream(stream, 4, k=4, seed=seed)
        assert sr.seed == seed
        assert_equivalent(sr, stream, k=4)

    def test_exponential_distribution(self):
        stream = make_stream(
            n_jobs=300, chunk_jobs=80, dist=ExponentialDistribution(mean_ms=2.0)
        )
        sr = _run_stream(stream, 4, k=8, seed=3)
        assert_equivalent(sr, stream, k=8)

    def test_compaction_frequency_is_unobservable(self):
        stream = make_stream(n_jobs=500, chunk_jobs=50)
        eager = _run_stream(stream, 4, k=4, seed=9, _compact_min=1)
        lazy = _run_stream(stream, 4, k=4, seed=9, _compact_min=10**9)
        assert eager.max_flow == lazy.max_flow
        assert eager.stats.as_dict() == lazy.stats.as_dict()
        assert eager.quantiles == lazy.quantiles
        assert eager.compactions > 0
        assert lazy.compactions == 0

    def test_seed_none_is_reproducible_after_the_fact(self):
        stream = make_stream(n_jobs=150, chunk_jobs=50)
        sr = _run_stream(stream, 4, k=4, seed=None)
        assert isinstance(sr.seed, int)
        rerun = _run_stream(stream, 4, k=4, seed=sr.seed)
        assert rerun.max_flow == sr.max_flow
        assert rerun.stats.as_dict() == sr.stats.as_dict()


# ----------------------------------------------------------------------
# Online metrics surfaced on the result
# ----------------------------------------------------------------------


class TestOnlineMetrics:
    def test_quantile_estimates_near_exact_flows(self):
        stream = make_stream(n_jobs=800, chunk_jobs=128)
        sr = _run_stream(stream, 4, k=4, seed=1, quantiles=(0.5, 0.9, 0.99))
        fr = run_flat(stream.materialize(1), 4, 1, k=4)
        flows = fr.flows
        for q, est in sr.quantiles.items():
            rank = float(np.mean(flows <= est))
            assert abs(rank - q) < 0.05, (q, est)

    def test_utilization_bundle(self):
        stream = make_stream(n_jobs=400, chunk_jobs=100)
        sr = _run_stream(stream, 4, k=4, seed=6, utilization_window=256)
        assert sr.utilization is not None
        assert 0.0 < sr.utilization.overall() <= 1.0
        # Work conservation ties the integral to the stats counters: the
        # step-hold integral covers [first, last) sample ticks, so only
        # the final sampled tick's busy count (<= m) is outstanding.
        gap = sr.stats.busy_steps - sr.utilization.busy_integral
        assert 0 <= gap <= sr.m
        assert all(0.0 <= f <= 1.0 for _, f in sr.utilization.series())

    def test_utilization_off_by_default(self):
        stream = make_stream(n_jobs=100, chunk_jobs=50)
        assert _run_stream(stream, 2, seed=0).utilization is None

    def test_memory_bound_observable(self):
        """Chunked runs never hold anywhere near all jobs live."""
        stream = make_stream(n_jobs=1000, chunk_jobs=100)
        sr = _run_stream(stream, 4, k=4, seed=4)
        assert sr.segments_generated == 10
        assert sr.peak_live_jobs < 1000
        assert sr.compactions > 0

    def test_summary_is_flat_and_complete(self):
        stream = make_stream(n_jobs=120, chunk_jobs=60)
        sr = _run_stream(stream, 4, seed=0, quantiles=(0.5, 0.99))
        s = sr.summary()
        for key in (
            "max_flow", "mean_flow", "p50_flow", "p99_flow", "makespan",
            "peak_live_jobs", "segments_generated", "busy_steps",
        ):
            assert key in s, key
        assert s["max_flow"] == sr.max_flow
        assert all(np.isscalar(v) or v is None for v in s.values())


# ----------------------------------------------------------------------
# Edge cases and validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "process", STATEFUL_PROCESSES, ids=lambda p: type(p).__name__
)
def test_chunked_arrival_continuation_matches_materialized(
    process, monkeypatch
):
    """A stream whose chunks (101 jobs, so bursts of 8 are split) carry
    the process's state equals its materialized twin, on both steps."""
    stream = make_stream(n_jobs=600, chunk_jobs=101, arrival_process=process)
    kw = dict(k=4, seed=3, _compact_min=50)
    kernel = _run_stream(stream, 4, **kw)
    assert kernel.path == "cext"
    assert_equivalent(kernel, stream, k=4)
    python_path(monkeypatch)
    assert_same_result(kernel, _run_stream(stream, 4, **kw))


class TestEdgeCases:
    def test_single_job_stream(self):
        stream = make_stream(n_jobs=1, chunk_jobs=1)
        sr = _run_stream(stream, 4, seed=0)
        assert sr.n_jobs == 1
        assert sr.segments_generated == 1
        assert_equivalent(sr, stream)

    def test_rejects_non_stream_input(self):
        spec = make_stream().spec
        with pytest.raises(TypeError, match="StreamSpec"):
            _run_stream(spec, 4, seed=0)

    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(m=4, checkpoint_every=0), "checkpoint_every"),
            (dict(m=4, _compact_min=0), "_compact_min"),
        ],
    )
    def test_parameter_validation(self, kw, match):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        m = kw.pop("m")
        with pytest.raises(ValueError, match=match):
            _run_stream(stream, m, seed=0, **kw)

    def test_resume_requires_checkpoint_dir(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="checkpoint_dir"):
            _run_stream(stream, 4, seed=0, resume=True)

    def test_max_ticks_overload_guard(self, monkeypatch):
        stream = make_stream(n_jobs=100, chunk_jobs=50)
        with pytest.raises(RuntimeError, match="max_ticks"):
            _run_stream(stream, 4, seed=0, max_ticks=3)

        # Exhaustion mid-run: both stream paths stop at the same tick
        # with the same completed count, and run_batch (the kernel on
        # the materialized instance) raises the reference engine's text.
        cap = _run_stream(stream, 4, seed=0).stats.elapsed_ticks // 2
        with pytest.raises(RuntimeError) as kernel_err:
            _run_stream(stream, 4, seed=0, max_ticks=cap)
        with pytest.raises(RuntimeError) as batch_err:
            run_batch([stream.materialize(0)], 4, seeds=[0], max_ticks=cap)
        with pytest.raises(RuntimeError) as ref_err:
            _run_work_stealing(
                repro.to_jobset(stream.materialize(0)), 4, seed=0,
                max_ticks=cap,
            )
        python_path(monkeypatch)
        with pytest.raises(RuntimeError) as python_err:
            _run_stream(stream, 4, seed=0, max_ticks=cap)
        assert str(kernel_err.value) == str(python_err.value)
        assert str(batch_err.value) == str(ref_err.value)
        count = str(ref_err.value).split("(")[1].split(" ")[0]
        assert count in str(kernel_err.value)
        done, total = map(int, count.split("/"))
        assert 0 < done < total == 100


# ----------------------------------------------------------------------
# Facade: repro.run(..., stream=...)
# ----------------------------------------------------------------------


class TestRunFacade:
    def test_run_stream_matches_run_flat(self):
        stream = make_stream(n_jobs=300, chunk_jobs=75)
        sr = repro.run("flat", stream=stream, m=4, seed=3, k=4)
        fr = repro.run("flat", stream.materialize(3), m=4, seed=3, k=4)
        assert isinstance(sr, StreamResult)
        assert sr.max_flow == fr.max_flow
        assert sr.stats.as_dict() == fr.stats.as_dict()

    def test_run_forwards_engine_kwargs(self):
        stream = make_stream(n_jobs=150, chunk_jobs=50)
        sr = repro.run(
            "flat", stream=stream, m=4, seed=0,
            quantiles=(0.5,), utilization_window=128,
        )
        assert set(sr.quantiles) == {0.5}
        assert sr.utilization is not None

    def test_telemetry_tags_the_path_taken(self, monkeypatch):
        """A utilization_window takes the Python step: reported, never
        warned, and named as the caller passed it."""
        stream = make_stream(n_jobs=100, chunk_jobs=25)
        tel = Telemetry()
        monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.run("flat", stream=stream, m=4, seed=0, telemetry=tel)
            repro.run(
                "flat", stream=stream, m=4, seed=0, telemetry=tel,
                utilization_window=64,
            )
        assert not batch_engine._SLOW_PATH_WARNED
        tagged = [
            (e["event"], e["path"], e["reasons"])
            for e in tel.events
            if e["event"] in ("stream.start", "stream.done", "run.done")
        ]
        fallback = ["utilization_window=64"]
        assert tagged == [
            ("stream.start", "cext", []),
            ("stream.done", "cext", []),
            ("run.done", "cext", []),
            ("stream.start", "python", fallback),
            ("stream.done", "python", fallback),
            ("run.done", "python", fallback),
        ]
        slow = [e for e in tel.events if e["event"] == "dispatch.slow_path"]
        assert [(e["engine"], e["reasons"]) for e in slow] == [
            ("stream", fallback)
        ]

    def test_telemetry_wraps_stream_events(self):
        stream = make_stream(n_jobs=100, chunk_jobs=25)
        tel = Telemetry()
        repro.run("flat", stream=stream, m=4, seed=0, telemetry=tel)
        names = [e["event"] for e in tel.events]
        assert "run.start" in names and "run.done" in names
        assert "stream.start" in names and "stream.done" in names
        assert names.index("run.start") < names.index("stream.start")
        assert names.index("stream.done") < names.index("run.done")
        assert any(n == "stream.segment" for n in names)

    # -- misconfiguration: every path raises SweepConfigError ----------

    def test_stream_plus_jobset_rejected(self, single_job_set):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="never both"):
            repro.run("flat", single_job_set, stream=stream, m=4)

    def test_stream_requires_flat_engine(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="valid combinations"):
            repro.run("work-stealing", stream=stream, m=4, seed=0)

    def test_stream_rejects_scheduler_instance(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="valid combinations"):
            repro.run(repro.FifoScheduler(), stream=stream, m=4)

    def test_stream_wants_streamspec_not_workloadspec(self):
        spec = make_stream().spec
        with pytest.raises(SweepConfigError, match=r"\.stream\(\)"):
            repro.run("flat", stream=spec, m=4, seed=0)

    def test_no_instance_at_all_rejected(self):
        with pytest.raises(SweepConfigError, match="valid combinations"):
            repro.run("flat", m=4, seed=0)

    def test_sweep_rejects_stream(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="repro.run"):
            repro.sweep(
                repro.FifoScheduler,
                {"m": [2]},
                make_stream().spec,
                stream=stream,
            )
