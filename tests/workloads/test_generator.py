"""Unit tests for workload assembly (WorkloadSpec, QPS accounting)."""

import gc
import weakref

import numpy as np
import pytest

from repro.dag import flat as flat_mod
from repro.dag.builders import parallel_for
from repro.dag.flat import content_hash, flatten_jobset, to_jobset
from repro.dag.job import Job, JobSet
from repro.workloads.arrivals import UniformProcess
from repro.workloads.distributions import BingDistribution, ConstantDistribution
from repro.workloads.generator import (
    WorkloadSpec,
    expected_utilization,
    qps_to_rate,
)
from tests.dag.test_flat import assert_jobsets_identical


def _per_job_build(spec: WorkloadSpec, seed: int) -> JobSet:
    """The per-job construction ``build`` used before it became the view
    of ``build_flat``: one ``parallel_for`` DAG per sampled body."""
    works, arrivals = spec._sample(seed)
    return JobSet(
        Job(
            job_id=i,
            dag=parallel_for(
                int(body),
                max(1, int(body) // spec.target_chunks),
                setup_work=spec.setup_units,
                finalize_work=spec.finalize_units,
            ),
            arrival=float(arrivals[i]),
        )
        for i, body in enumerate(works)
    )


class TestUnitConversions:
    def test_qps_to_rate(self):
        # 1000 qps with 4 units/ms: 4000 units per second of machine
        # time, so 1000/(1000*4) = 0.25 jobs per time unit.
        assert qps_to_rate(1000.0, 4.0) == pytest.approx(0.25)

    def test_qps_to_rate_validation(self):
        with pytest.raises(ValueError):
            qps_to_rate(0.0)
        with pytest.raises(ValueError):
            qps_to_rate(100.0, 0.0)

    def test_expected_utilization(self):
        # paper calibration: qps=800, mean 10 ms, m=16 -> 50%.
        assert expected_utilization(800.0, 10.0, 16) == pytest.approx(0.5)
        assert expected_utilization(1200.0, 10.0, 16) == pytest.approx(0.75)

    def test_expected_utilization_validation(self):
        with pytest.raises(ValueError):
            expected_utilization(800.0, 10.0, 0)


class TestWorkloadSpec:
    def test_build_produces_requested_count(self):
        spec = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=50, m=4)
        js = spec.build(seed=0)
        assert len(js) == 50

    def test_measured_utilization_near_expected(self):
        spec = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=4000, m=16)
        js = spec.build(seed=0)
        assert js.utilization(16) == pytest.approx(spec.utilization, rel=0.1)

    def test_jobs_are_parallel_for_shaped(self):
        spec = WorkloadSpec(
            ConstantDistribution(mean_ms=8.0),
            qps=500.0,
            n_jobs=5,
            m=4,
            units_per_ms=4.0,
            target_chunks=4,
        )
        js = spec.build(seed=0)
        for job in js:
            # setup + chunks + finalize; 32 body units over 4 chunks.
            assert job.dag.n_nodes == 1 + 4 + 1
            assert job.work == 32 + 2

    def test_seeded_determinism(self):
        spec = WorkloadSpec(BingDistribution(), qps=500.0, n_jobs=30, m=4)
        a, b = spec.build(seed=5), spec.build(seed=5)
        assert a.works == b.works
        assert a.arrivals == b.arrivals

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(BingDistribution(), qps=500.0, n_jobs=30, m=4)
        assert spec.build(seed=1).works != spec.build(seed=2).works

    def test_custom_arrival_process(self):
        spec = WorkloadSpec(
            ConstantDistribution(),
            qps=1000.0,
            n_jobs=10,
            m=4,
            arrival_process=UniformProcess(0.25),
        )
        js = spec.build(seed=0)
        gaps = np.diff(js.arrivals)
        assert np.allclose(gaps, 4.0)

    def test_describe_mentions_key_facts(self):
        spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=10, m=16)
        text = spec.describe()
        assert "bing" in text
        assert "qps=800" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(BingDistribution(), qps=100.0, n_jobs=0, m=4)
        with pytest.raises(ValueError):
            WorkloadSpec(BingDistribution(), qps=100.0, n_jobs=5, target_chunks=0)
        with pytest.raises(ValueError):
            WorkloadSpec(BingDistribution(), qps=-5.0, n_jobs=5)

    @pytest.mark.parametrize(
        "field,value", [("setup_units", 0), ("setup_units", -1),
                        ("finalize_units", 0), ("finalize_units", -2)],
    )
    def test_setup_and_finalize_must_be_positive(self, field, value):
        # build_flat would emit 0- or negative-work nodes, on which the
        # kernel runs to max_ticks.
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(
                BingDistribution(), qps=900.0, n_jobs=20, m=4,
                **{field: value},
            )

    def test_work_and_arrival_streams_isolated(self):
        """Swapping the arrival process must not change the sampled works.

        The spec spawns independent RNG streams for work sampling and
        arrival generation, so paired comparisons across arrival models
        see identical job sizes.
        """
        poisson = WorkloadSpec(BingDistribution(), qps=500.0, n_jobs=10, m=4)
        uniform = WorkloadSpec(
            BingDistribution(),
            qps=500.0,
            n_jobs=10,
            m=4,
            arrival_process=UniformProcess(0.125),
        )
        a, b = poisson.build(seed=3), uniform.build(seed=3)
        assert a.works == b.works
        assert a.arrivals != b.arrivals


class TestBuildFlat:
    """The vectorized flat path must mirror the object path exactly."""

    def _specs(self):
        from repro.workloads.arrivals import BurstyProcess
        from repro.workloads.distributions import (
            ConstantDistribution,
            LogNormalDistribution,
        )

        return [
            WorkloadSpec(BingDistribution(), qps=900.0, n_jobs=80, m=4),
            WorkloadSpec(
                ConstantDistribution(mean_ms=8.0),
                qps=500.0,
                n_jobs=5,
                m=4,
                target_chunks=4,
            ),
            WorkloadSpec(
                LogNormalDistribution(),
                qps=700.0,
                n_jobs=40,
                m=8,
                target_chunks=3,
                setup_units=2,
                finalize_units=3,
            ),
            # Tied arrivals (bursts) exercise the stable sort path.
            WorkloadSpec(
                BingDistribution(),
                qps=600.0,
                n_jobs=24,
                m=4,
                arrival_process=BurstyProcess(rate=0.2, batch=6),
            ),
        ]

    def test_build_flat_matches_flattened_build(self):
        # The reference is the per-job construction, not ``build``: that
        # is now the view of ``build_flat`` itself.
        for spec in self._specs():
            flat = spec.build_flat(seed=11)
            reference = flatten_jobset(_per_job_build(spec, 11))
            assert flat == reference, spec.describe()
            assert content_hash(flat) == content_hash(reference)

    def test_build_flat_round_trips_to_equal_jobset(self):
        for spec in self._specs():
            reference = _per_job_build(spec, 2)
            assert_jobsets_identical(to_jobset(spec.build_flat(seed=2)),
                                     reference)
            assert_jobsets_identical(spec.build(seed=2), reference)

    def test_spec_is_callable_factory(self):
        spec = WorkloadSpec(BingDistribution(), qps=900.0, n_jobs=10, m=4)
        assert spec(3).works == spec.build(3).works

    def test_cache_key_stability(self):
        spec = WorkloadSpec(BingDistribution(), qps=900.0, n_jobs=10, m=4)
        same = WorkloadSpec(BingDistribution(), qps=900.0, n_jobs=10, m=4)
        other = WorkloadSpec(BingDistribution(), qps=901.0, n_jobs=10, m=4)
        assert spec.cache_key(5) == same.cache_key(5)
        assert spec.cache_key(5) != same.cache_key(6)
        assert spec.cache_key(5) != other.cache_key(5)
        # Sampling must not perturb the key (lazy calibration state is
        # excluded from the token).
        spec.build(seed=1)
        assert spec.cache_key(5) == same.cache_key(5)


class TestJobSetView:
    """``build`` is the JobSet view of ``build_flat``."""

    SPEC = WorkloadSpec(BingDistribution(), qps=900.0, n_jobs=200, m=4)

    def test_build_carries_its_flat(self):
        js = self.SPEC.build(seed=4)
        flat = flatten_jobset(js)
        assert flat == self.SPEC.build_flat(seed=4)
        assert js._jobs is None  # no job built yet
        assert js.works == flat.job_works.tolist()
        assert js.spans == flat.job_spans.tolist()
        assert js._jobs is None
        assert flatten_jobset(js) is flat
        # Nothing points from the flat back to a set.
        assert not any(
            isinstance(value, JobSet) for value in vars(flat).values()
        )

    def test_view_and_flat_are_freed_by_refcounting(self):
        gc.disable()
        try:
            js = self.SPEC.build(seed=5)
            js.jobs  # the built jobs belong to the view
            flat = flatten_jobset(js)
            refs = weakref.ref(js), weakref.ref(flat)
            del js, flat
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_two_builds_share_dags(self, monkeypatch):
        # A fresh map: one filled by earlier tests could empty mid-build.
        monkeypatch.setattr(flat_mod, "_SHAPES", {})
        a, b = self.SPEC.build(seed=6), self.SPEC.build(seed=7)
        shared = {id(j.dag) for j in a} & {id(j.dag) for j in b}
        assert shared
        by_works = {j.dag.works: j.dag for j in a}
        for job in b:
            if job.dag.works in by_works:
                assert job.dag is by_works[job.dag.works]

    def test_shape_map_stays_bounded(self, monkeypatch):
        shapes = {}
        monkeypatch.setattr(flat_mod, "_SHAPES", shapes)
        monkeypatch.setattr(flat_mod, "_SHAPES_MAX", 8)
        js = self.SPEC.build(seed=8)
        assert len({id(j.dag) for j in js}) > 8
        assert 0 < len(shapes) <= 8
        assert_jobsets_identical(js, _per_job_build(self.SPEC, 8))
