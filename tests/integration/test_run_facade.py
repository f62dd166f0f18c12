"""The repro.run() facade: dispatch, aliases, telemetry identity.

Pins the ISSUE-3 API contract:

* every dispatch path of ``repro.run`` is bit-identical to calling the
  underlying engine directly;
* the historical keyword spellings (``num_workers``/``m``,
  ``augmentation``/``speed``) normalize, and conflicts fail loudly;
* the facade itself never emits a DeprecationWarning;
* telemetry is observationally inert: schedules with a live sink are
  bit-identical to uninstrumented ones, and a sweep's event log passes
  the audit and agrees with its own SimulationStats.
"""

import warnings

import pytest

import repro
from repro.core.base import Scheduler
from repro.core.bwf import BwfScheduler
from repro.core.dynamic import (
    LeastAttainedServiceScheduler,
    ShortestRemainingWorkScheduler,
)
from repro.core.fifo import FifoScheduler
from repro.core.greedy import (
    LifoScheduler,
    RandomPriorityScheduler,
    SjfScheduler,
)
from repro.core.opt import OptLowerBound
from repro.core.work_stealing import (
    AdmitFirstScheduler,
    WeightedWorkStealingScheduler,
    WorkStealingScheduler,
)
from repro.obs import Telemetry, audit_events, list_manifests, load_manifest
from repro.sim.engine import _run_work_stealing
from repro.sim.events import run_centralized
from repro.sim.result import result_to_dict
from repro.sim.sampling import SystemSampler
from repro.sim.trace import TraceRecorder
from repro.speedup.engine import _run_speedup_equi, _run_speedup_fifo
from repro.speedup.model import (
    LinearCapped,
    Phase,
    SpeedupJob,
    SpeedupJobSet,
)


@pytest.fixture
def jobset():
    dags = [repro.parallel_for(total_body_work=48, grain=8) for _ in range(12)]
    return repro.jobs_from_dags(
        dags, arrivals=[1.5 * i for i in range(12)]
    )


@pytest.fixture
def speedup_jobset():
    return SpeedupJobSet(
        [
            SpeedupJob(
                job_id=i,
                phases=(Phase(8.0, LinearCapped(4)),),
                arrival=float(i),
            )
            for i in range(6)
        ]
    )


def same_result(a, b):
    assert list(a.completions) == list(b.completions)
    assert a.max_flow == b.max_flow
    assert a.stats == b.stats


class TestDispatch:
    def test_scheduler_instance(self, jobset):
        direct = WorkStealingScheduler(k=4).run(jobset, m=4, seed=0)
        via = repro.run(WorkStealingScheduler(k=4), jobset, m=4, seed=0)
        same_result(direct, via)

    def test_scheduler_class_instantiates_defaults(self, jobset):
        direct = FifoScheduler().run(jobset, m=4)
        via = repro.run(FifoScheduler, jobset, m=4)
        same_result(direct, via)

    def test_engine_name_work_stealing_forwards_kwargs(self, jobset):
        direct = _run_work_stealing(jobset, m=4, seed=7, k=2)
        via = repro.run("work-stealing", jobset, m=4, seed=7, k=2)
        same_result(direct, via)

    def test_engine_name_speedup_fifo(self, speedup_jobset):
        direct = _run_speedup_fifo(speedup_jobset, m=4)
        via = repro.run("speedup-fifo", speedup_jobset, m=4)
        same_result(direct, via)

    def test_engine_name_speedup_equi(self, speedup_jobset):
        direct = _run_speedup_equi(speedup_jobset, m=4, speed=2.0)
        via = repro.run("speedup-equi", speedup_jobset, m=4, speed=2.0)
        same_result(direct, via)

    def test_unknown_engine_name(self, jobset):
        with pytest.raises(ValueError, match="unknown engine"):
            repro.run("quantum", jobset, m=4)

    def test_bad_scheduler_type(self, jobset):
        with pytest.raises(TypeError, match="Scheduler"):
            repro.run(42, jobset, m=4)


#: Every engine name that takes a DAG instance, and every built-in
#: Scheduler (the speedup engines take a SpeedupJobSet).
DAG_SCHEDULERS = [
    "work-stealing", "flat", FifoScheduler, BwfScheduler, LifoScheduler,
    SjfScheduler, RandomPriorityScheduler, LeastAttainedServiceScheduler,
    ShortestRemainingWorkScheduler, WorkStealingScheduler,
    AdmitFirstScheduler, WeightedWorkStealingScheduler, OptLowerBound,
]


@pytest.mark.parametrize(
    "scheduler", DAG_SCHEDULERS,
    ids=lambda s: s if isinstance(s, str) else s.__name__,
)
def test_flat_instance_runs_as_its_jobset(jobset, scheduler):
    """``run`` takes a FlatInstance for every scheduler: the same
    result, path and reasons as the JobSet it encodes."""
    flat = repro.flatten_jobset(repro.jobs_from_dags(
        [job.dag for job in jobset], [job.arrival for job in jobset],
    ))
    ref = repro.run(scheduler, jobset, m=4, seed=3)
    got = repro.run(scheduler, flat, m=4, seed=3)
    assert result_to_dict(got) == result_to_dict(ref)
    assert (got.path, got.reasons) == (ref.path, ref.reasons)


class TestAliases:
    def test_num_workers_is_an_alias_for_m(self, jobset):
        a = repro.run(FifoScheduler(), jobset, m=4)
        b = repro.run(FifoScheduler(), jobset, num_workers=4)
        same_result(a, b)

    def test_conflicting_sizes_fail(self, jobset):
        with pytest.raises(TypeError, match="aliases"):
            repro.run(FifoScheduler(), jobset, m=4, num_workers=8)

    def test_agreeing_sizes_allowed(self, jobset):
        repro.run(FifoScheduler(), jobset, m=4, num_workers=4)

    def test_missing_size_fails(self, jobset):
        with pytest.raises(TypeError, match="machine size"):
            repro.run(FifoScheduler(), jobset)

    def test_augmentation_is_an_alias_for_speed(self, speedup_jobset):
        a = repro.run("speedup-fifo", speedup_jobset, m=4, speed=2.0)
        b = repro.run("speedup-fifo", speedup_jobset, m=4, augmentation=2.0)
        same_result(a, b)

    def test_conflicting_speeds_fail(self, speedup_jobset):
        with pytest.raises(TypeError, match="aliases"):
            repro.run(
                "speedup-fifo", speedup_jobset, m=4,
                speed=1.0, augmentation=2.0,
            )

    def test_speedup_engines_reject_seed(self, speedup_jobset):
        with pytest.raises(TypeError, match="no seed"):
            repro.run("speedup-fifo", speedup_jobset, m=4, seed=1)

    def test_speedup_engines_reject_extra_kwargs(self, speedup_jobset):
        with pytest.raises(TypeError, match="no extra"):
            repro.run("speedup-equi", speedup_jobset, m=4, k=4)


class TestDeprecatedShims:
    """The pre-facade shims were removed in 1.10.0; the facade that
    replaced them must never warn."""

    def test_facade_itself_never_warns(self, jobset):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run(WorkStealingScheduler(k=2), jobset, m=4, seed=0)
            repro.run("work-stealing", jobset, m=4, seed=0)


class TestTelemetryIdentity:
    def test_schedule_identical_with_telemetry_on(self, jobset):
        off = repro.run(WorkStealingScheduler(k=4), jobset, m=4, seed=5)
        tel = Telemetry()
        on = repro.run(
            WorkStealingScheduler(k=4), jobset, m=4, seed=5, telemetry=tel
        )
        same_result(off, on)

    def test_run_events_bracket_the_simulation(self, jobset):
        tel = Telemetry()
        result = repro.run(
            WorkStealingScheduler(k=4), jobset, m=4, seed=5, telemetry=tel
        )
        (start,) = tel.of_kind("run.start")
        (done,) = tel.of_kind("run.done")
        assert start["m"] == 4
        assert start["n_jobs"] == len(jobset)
        assert done["max_flow"] == result.max_flow
        assert done["stats"] == result.stats.as_dict()
        assert done["t"] >= start["t"]

    def test_no_events_without_telemetry(self, jobset):
        # The contract is structural: engines never see the sink at all.
        result = repro.run(WorkStealingScheduler(k=2), jobset, m=4, seed=0)
        assert result.stats.steal_attempts is not None


class _MostAttainedFirstScheduler(Scheduler):
    """A dynamic key the compiled loop does not know."""

    @property
    def name(self):
        return "most-attained-first"

    def run(self, jobset, m, speed=1.0, seed=None, trace=None):
        return run_centralized(
            jobset, m, speed,
            priority_key=lambda je: (-je.attained, je.job_id),
            scheduler_name=self.name, trace=trace, dynamic=True,
        )


class TestCentralizedPathTelemetry:
    """FIFO, BWF, LIFO, SJF, random priority, LAS and SRW report the
    path they take; the Python loop always says why it ran."""

    STATIC = (
        FifoScheduler,
        BwfScheduler,
        LifoScheduler,
        SjfScheduler,
        RandomPriorityScheduler,
    )

    @staticmethod
    def events(scheduler, jobset):
        tel = Telemetry()
        result = repro.run(scheduler, jobset, m=4, seed=3, telemetry=tel)
        slow = tel.of_kind("dispatch.slow_path")
        (done,) = tel.of_kind("run.done")
        return result, slow, done

    @pytest.mark.parametrize("cls", STATIC)
    def test_static_policies_take_the_compiled_loop(self, jobset, cls):
        _, slow, done = self.events(cls(), jobset)
        assert slow == [] and done["path"] == "cext"

    DYNAMIC = (LeastAttainedServiceScheduler, ShortestRemainingWorkScheduler)

    @pytest.mark.parametrize("cls", DYNAMIC)
    def test_dynamic_policies_say_why(self, jobset, cls):
        """LAS and SRW take the compiled loop; only a dynamic key it
        does not know runs the Python loop, and says why."""
        _, slow, done = self.events(cls(), jobset)
        assert slow == [] and done["path"] == "cext"
        _, slow, done = self.events(_MostAttainedFirstScheduler(), jobset)
        assert [e["reasons"] for e in slow] == [["dynamic=True"]]
        assert done["path"] == "reference"

    @pytest.mark.parametrize("cls", DYNAMIC)
    def test_unavailable_kernel_says_why_for_dynamic_keys(
        self, monkeypatch, jobset, cls
    ):
        from repro.sim import batch_engine, events

        fast = repro.run(cls(), jobset, m=4, seed=3)
        monkeypatch.setattr(events, "resolve_centralized_kernel", lambda: None)
        monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
        with pytest.warns(RuntimeWarning, match="kernel=unavailable"):
            slow_result, slow, done = self.events(cls(), jobset)
        assert [e["reasons"] for e in slow] == [["kernel=unavailable"]]
        assert done["path"] == "reference"
        same_result(fast, slow_result)

    @pytest.mark.parametrize("cls", STATIC)
    def test_unavailable_kernel_says_why(self, monkeypatch, jobset, cls):
        from repro.sim import batch_engine, events

        fast = repro.run(cls(), jobset, m=4, seed=3)
        monkeypatch.setattr(events, "resolve_centralized_kernel", lambda: None)
        monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)  # quiet
        slow_result, slow, done = self.events(cls(), jobset)
        assert [e["reasons"] for e in slow] == [["kernel=unavailable"]]
        assert done["path"] == "reference"
        same_result(fast, slow_result)


class _SuperRunScheduler(WorkStealingScheduler):
    """A subclass whose ``run`` defers to the base class."""

    def run(self, jobset, m, speed=1.0, seed=None, trace=None):
        return super().run(jobset, m, speed=speed, seed=seed, trace=trace)


class TestPathAgreement:
    """``run.done``'s ``path`` names the engine that actually ran.

    Spies on the Python engines: the reference work-stealing engine, the
    Python centralized loop and the stream driver's Python step.  A run
    that reaches none of them took the compiled loop.
    """

    @pytest.fixture
    def ran(self, monkeypatch):
        import repro.sim.batch_engine as batch_mod
        import repro.sim.engine as engine_mod
        import repro.sim.events as events_mod
        import repro.sim.stream_engine as stream_mod

        calls = []
        monkeypatch.setattr(batch_mod, "_SLOW_PATH_WARNED", True)  # quiet

        def spy(module, name, path):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(path)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (engine_mod, batch_mod):
            spy(module, "_run_work_stealing", "reference")
        spy(events_mod, "_run_centralized_reference", "reference")
        spy(stream_mod, "_python_step", "python")
        return calls

    @staticmethod
    def check(ran, scheduler, instance=None, **kwargs):
        ran.clear()
        tel = Telemetry()
        repro.run(scheduler, instance, m=4, seed=3, telemetry=tel, **kwargs)
        (done,) = tel.of_kind("run.done")
        taken = set(ran) or {"cext"}
        assert taken == {done["path"]}
        return done["path"]

    def test_flat_in_and_out_of_scope(self, ran, jobset):
        assert self.check(ran, "flat", jobset, k=2) == "cext"
        assert self.check(
            ran, "flat", jobset, victim_policy="round-robin"
        ) == "cext"
        assert self.check(
            ran, "flat", jobset, victim_policy="round-robin",
            trace=TraceRecorder(),
        ) == "cext"
        assert self.check(
            ran, "flat", jobset, victim_policy="round-robin",
            sampler=SystemSampler(),
        ) == "reference"

    def test_flat_on_unsorted_hand_built_arrivals(self, ran, jobset):
        import dataclasses

        import numpy as np

        flat = repro.flatten_jobset(jobset)
        unsorted = dataclasses.replace(
            flat, arrivals=np.ascontiguousarray(flat.arrivals[::-1])
        )
        assert self.check(ran, "flat", unsorted) == "reference"
        assert self.check(ran, FifoScheduler(), unsorted) == "reference"

    def test_work_stealing_scheduler_in_and_out_of_scope(self, ran, jobset):
        assert self.check(ran, WorkStealingScheduler(k=2), jobset) == "cext"
        assert self.check(
            ran, WorkStealingScheduler(steal_half=True), jobset
        ) == "cext"
        assert self.check(
            ran, WorkStealingScheduler(steal_half=True), jobset,
            trace=TraceRecorder(),
        ) == "cext"
        assert self.check(
            ran, WorkStealingScheduler(steal_half=True), jobset,
            sampler=SystemSampler(),
        ) == "reference"

    def test_subclass_calling_super_run(self, ran, jobset):
        assert self.check(ran, _SuperRunScheduler(k=2), jobset) == "cext"

    def test_centralized(self, ran, jobset):
        assert self.check(ran, FifoScheduler(), jobset) == "cext"
        assert self.check(
            ran, LeastAttainedServiceScheduler(), jobset
        ) == "cext"
        assert self.check(
            ran, ShortestRemainingWorkScheduler(), jobset
        ) == "cext"
        assert self.check(
            ran, _MostAttainedFirstScheduler(), jobset
        ) == "reference"

    def test_stream_with_and_without_utilization_window(self, ran):
        from repro.workloads import BingDistribution, WorkloadSpec
        from repro.workloads.stream import StreamSpec

        spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=100, m=4)
        stream = StreamSpec(spec, chunk_jobs=25)
        assert self.check(ran, "flat", stream=stream) == "cext"
        assert self.check(
            ran, "flat", stream=stream, utilization_window=64
        ) == "python"


class TestSweepTelemetryEndToEnd:
    def test_grid_sweep_log_audits_clean_and_matches_stats(self, tmp_path):
        from repro.experiments.cache import SweepCache
        from repro.experiments.sweep import _grid_sweep as grid_sweep
        from repro.workloads.generator import WorkloadSpec
        from repro.workloads.distributions import ExponentialDistribution

        spec = WorkloadSpec(
            distribution=ExponentialDistribution(mean_ms=6.0),
            qps=200.0,
            n_jobs=16,
            m=4,
        )
        log = tmp_path / "events.jsonl"
        cache = SweepCache(tmp_path / "cache")

        def sweep(telemetry=None, resume=False):
            return grid_sweep(
                WorkStealingScheduler,
                {"k": [0, 4]},
                spec,
                m=4,
                reps=2,
                seed=11,
                metrics=("max_flow",),
                max_workers=1,
                cache=cache,
                resume=resume,
                telemetry=telemetry,
            )

        with Telemetry(log, label="e2e") as tel:
            instrumented = sweep(telemetry=tel)
            resumed = sweep(telemetry=tel, resume=True)
        plain = sweep()

        # Telemetry and resume are observationally inert.
        assert [c.metrics for c in instrumented.cells] == [
            c.metrics for c in plain.cells
        ]
        assert [c.metrics for c in resumed.cells] == [
            c.metrics for c in plain.cells
        ]

        from repro.obs import read_events

        events = read_events(log)
        assert audit_events(events) == []

        # 2 cells x 2 reps, cold then fully cached.
        assert sum(e["event"] == "cell.run" for e in events) == 4
        assert sum(e["event"] == "cell.cached" for e in events) == 4
        # Instances travel as the pool's shared data: nothing is
        # published to shared memory.
        assert not [e for e in events if e["event"].startswith("shm.")]

        # Event-embedded stats are real SimulationStats snapshots.
        for e in events:
            if e["event"] == "cell.run":
                stats = e["stats"]
                assert stats["steal_attempts"] >= stats["failed_steals"]
                assert stats["busy_steps"] > 0
                assert e["wall_s"] >= 0
                assert e["metrics"]["max_flow"] > 0
                assert e["kind"] == "grid_sweep"

        # The manifest records the sweep's coordinates and instances.
        manifests = list_manifests(cache.root / "manifests")
        assert len(manifests) == 1  # same coordinates -> same manifest
        manifest = load_manifest(manifests[0])
        assert manifest["kind"] == "grid_sweep"
        assert manifest["seed"] == 11
        assert len(manifest["rep_seeds"]) == 2
        assert len(manifest["instances"]) == 2
        assert manifest["timings"]["wall_s"] > 0

    def test_figure2_cells_telemetry(self, tmp_path):
        from repro.experiments.config import FIG2A, ExperimentScale
        from repro.experiments.runner import _run_figure2_cells as run_figure2_cells

        log = tmp_path / "events.jsonl"
        scale = ExperimentScale(n_jobs=12, reps=1)
        with Telemetry(log) as tel:
            with_tel = run_figure2_cells(
                FIG2A, [100.0, 200.0], scale, seed=2,
                max_workers=1, telemetry=tel,
            )
        without = run_figure2_cells(
            FIG2A, [100.0, 200.0], scale, seed=2, max_workers=1,
        )
        assert with_tel == without

        from repro.obs import read_events

        events = read_events(log)
        assert audit_events(events) == []
        assert [e["kind"] for e in events if e["event"] == "cell.run"] == [
            "run_figure2_cells", "run_figure2_cells",
        ]
        # No cache in play: the manifest lands next to the log.
        manifests = list_manifests(tmp_path / "manifests")
        assert len(manifests) == 1
