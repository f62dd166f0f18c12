"""The repro.sweep() facade: scheduler forms, aliases, knob threading.

Pins the ISSUE-4 API contract, mirroring ``test_run_facade.py``:

* every accepted scheduler form (class, prototype instance, engine
  name, raw factory callable) dispatches to
  :func:`repro.experiments.sweep._grid_sweep` bit-identically;
* the ``run()`` keyword normalizations apply unchanged
  (``num_workers``/``m``, ``augmentation``/``speed``);
* fault-tolerance and caching knobs (``cell_timeout``, ``retries``,
  ``resume``, ``telemetry``) thread through to the executor;
* prototype-instance sweeps key the content-addressed cell cache
  stably (configuration changes miss, reruns hit).
"""

from __future__ import annotations

import functools

import pytest

import repro
from repro.api import _EngineScheduler, _InstanceFactory, _as_factory
from repro.core.work_stealing import WorkStealingScheduler
from repro.errors import SweepConfigError
from repro.experiments.cache import SweepCache
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.obs import Telemetry
from repro.workloads.distributions import ExponentialDistribution
from repro.workloads.generator import WorkloadSpec


@pytest.fixture
def spec():
    return WorkloadSpec(
        distribution=ExponentialDistribution(mean_ms=6.0),
        qps=250.0,
        n_jobs=12,
        m=4,
    )


def cells_of(table):
    return [(c.params, c.metrics) for c in table.cells]


class TestSchedulerForms:
    def test_class_matches_grid_sweep(self, spec):
        direct = grid_sweep(
            WorkStealingScheduler, {"k": [0, 4]}, spec,
            m=4, reps=2, seed=3, max_workers=1,
        )
        via = repro.sweep(
            WorkStealingScheduler, {"k": [0, 4]}, spec,
            m=4, reps=2, seed=3, max_workers=1,
        )
        assert cells_of(via) == cells_of(direct)

    def test_prototype_instance_keeps_its_configuration(self, spec):
        proto = WorkStealingScheduler(k=0, steals_per_tick=4)
        via = repro.sweep(
            proto, {"k": [0, 2]}, spec, m=4, seed=3, max_workers=1,
        )
        reference = grid_sweep(
            functools.partial(WorkStealingScheduler, steals_per_tick=4),
            {"k": [0, 2]},
            spec,
            m=4, seed=3, max_workers=1,
        )
        assert cells_of(via) == cells_of(reference)
        # The prototype itself is never mutated by the sweep.
        assert proto.k == 0

    def test_prototype_rejects_unknown_grid_key(self, spec):
        with pytest.raises(SweepConfigError, match="no parameter"):
            repro.sweep(
                WorkStealingScheduler(k=0), {"warp": [1]}, spec,
                m=4, max_workers=1,
            )

    def test_engine_name_is_deterministic(self, spec):
        a = repro.sweep(
            "work-stealing", {"k": [0, 4]}, spec,
            m=4, seed=5, max_workers=1,
        )
        b = repro.sweep(
            "work-stealing", {"k": [0, 4]}, spec,
            m=4, seed=5, max_workers=1,
        )
        assert cells_of(a) == cells_of(b)
        assert [c.params["k"] for c in a.cells] == [0, 4]
        assert all(c.metrics["max_flow"] > 0 for c in a.cells)

    def test_unknown_engine_name(self, spec):
        with pytest.raises(SweepConfigError, match="unknown engine"):
            repro.sweep("quantum", {"k": [0]}, spec, m=4)

    def test_raw_factory_callable_passes_through(self, spec):
        factory = functools.partial(WorkStealingScheduler, steals_per_tick=2)
        direct = grid_sweep(
            factory, {"k": [0, 2]}, spec, m=4, seed=1, max_workers=1,
        )
        via = repro.sweep(
            factory, {"k": [0, 2]}, spec, m=4, seed=1, max_workers=1,
        )
        assert cells_of(via) == cells_of(direct)

    def test_bad_scheduler_type(self, spec):
        with pytest.raises(TypeError, match="Scheduler"):
            repro.sweep(42, {"k": [0]}, spec, m=4)
        with pytest.raises(TypeError, match="subclass"):
            repro.sweep(dict, {"k": [0]}, spec, m=4)


class TestAliases:
    def test_num_workers_is_an_alias_for_m(self, spec):
        a = repro.sweep(
            WorkStealingScheduler, {"k": [0]}, spec,
            m=4, seed=2, max_workers=1,
        )
        b = repro.sweep(
            WorkStealingScheduler, {"k": [0]}, spec,
            num_workers=4, seed=2, max_workers=1,
        )
        assert cells_of(a) == cells_of(b)

    def test_conflicting_sizes_fail(self, spec):
        with pytest.raises(TypeError, match="aliases"):
            repro.sweep(
                WorkStealingScheduler, {"k": [0]}, spec, m=4, num_workers=8,
            )

    def test_missing_size_fails(self, spec):
        with pytest.raises(TypeError, match=r"sweep\(\) requires"):
            repro.sweep(WorkStealingScheduler, {"k": [0]}, spec)

    def test_augmentation_is_an_alias_for_speed(self, spec):
        a = repro.sweep(
            WorkStealingScheduler, {"k": [0]}, spec,
            m=4, seed=2, speed=2.0, max_workers=1,
        )
        b = repro.sweep(
            WorkStealingScheduler, {"k": [0]}, spec,
            m=4, seed=2, augmentation=2.0, max_workers=1,
        )
        assert cells_of(a) == cells_of(b)

    def test_conflicting_speeds_fail(self, spec):
        with pytest.raises(TypeError, match="aliases"):
            repro.sweep(
                WorkStealingScheduler, {"k": [0]}, spec,
                m=4, speed=1.0, augmentation=2.0,
            )


class TestKnobThreading:
    def test_fault_knobs_reach_the_dispatcher(self, spec):
        tel = Telemetry()
        repro.sweep(
            WorkStealingScheduler, {"k": [0, 2]}, spec,
            m=4, seed=1, max_workers=2, reps=1,
            cell_timeout=30.0, retries=5, telemetry=tel,
        )
        (dispatch,) = tel.of_kind("dispatch.pool")
        assert dispatch["cell_timeout"] == 30.0
        assert dispatch["retries"] == 5

    def test_resume_round_trip_with_prototype(self, spec, tmp_path):
        """Prototype-instance factories are content-keyed: a rerun hits
        the cell cache; a differently configured prototype misses."""
        cache = SweepCache(tmp_path / "cache")
        proto = WorkStealingScheduler(k=0, steals_per_tick=4)
        cold = repro.sweep(
            proto, {"k": [0, 2]}, spec,
            m=4, seed=9, max_workers=1, cache=cache, resume=True,
        )
        tel = Telemetry()
        warm = repro.sweep(
            WorkStealingScheduler(k=0, steals_per_tick=4),
            {"k": [0, 2]}, spec,
            m=4, seed=9, max_workers=1, cache=cache, resume=True,
            telemetry=tel,
        )
        assert cells_of(warm) == cells_of(cold)
        assert tel.of_kind("cell.run") == []
        assert len(tel.of_kind("cell.cached")) == 2

        # Same class, different prototype configuration: full miss.
        tel2 = Telemetry()
        repro.sweep(
            WorkStealingScheduler(k=0, steals_per_tick=8),
            {"k": [0, 2]}, spec,
            m=4, seed=9, max_workers=1, cache=cache, resume=True,
            telemetry=tel2,
        )
        assert len(tel2.of_kind("cell.run")) == 2

    def test_exported_and_documented(self):
        assert "sweep" in repro.__all__
        assert repro.sweep is not None
        assert repro.__version__ == "1.28.0"


class TestSharding:
    """The ISSUE-8 facade surface: ``shard=`` plus ``merge_caches``.

    The partition/merge semantics themselves live in
    ``tests/experiments/test_shard.py``; this class pins only that the
    facade forwards the knob faithfully and exports the merge API.
    """

    def test_shard_forms_are_equivalent_through_the_facade(
        self, spec, tmp_path
    ):
        kwargs = dict(m=4, reps=1, seed=4, max_workers=1)
        a = repro.sweep(
            WorkStealingScheduler, {"k": [0, 2, 4]}, spec,
            cache=tmp_path / "a", shard=(1, 2), **kwargs,
        )
        b = repro.sweep(
            WorkStealingScheduler, {"k": [0, 2, 4]}, spec,
            cache=tmp_path / "b", shard="1/2", **kwargs,
        )
        assert a.shard == b.shard == "1/2"
        assert cells_of(a) == cells_of(b)

    def test_shard_union_matches_the_unsharded_facade_sweep(
        self, spec, tmp_path
    ):
        kwargs = dict(m=4, reps=1, seed=4, max_workers=1)
        full = repro.sweep(
            WorkStealingScheduler, {"k": [0, 2, 4]}, spec, **kwargs
        )
        assert full.shard is None
        parts = []
        for i in range(2):
            part = repro.sweep(
                WorkStealingScheduler, {"k": [0, 2, 4]}, spec,
                cache=tmp_path / f"s{i}", shard=(i, 2), **kwargs,
            )
            parts.extend(cells_of(part))
        assert parts == cells_of(full)

    def test_shard_validation_errors_are_typed_at_the_facade(
        self, spec, tmp_path
    ):
        for bad in [(0, 0), (2, 2), "x/3", "1", (1.5, 2)]:
            with pytest.raises(SweepConfigError):
                repro.sweep(
                    WorkStealingScheduler, {"k": [0]}, spec,
                    m=4, cache=tmp_path, shard=bad,
                )
        # ...and still catchable by pre-typed ValueError handlers.
        with pytest.raises(ValueError):
            repro.sweep(
                WorkStealingScheduler, {"k": [0]}, spec,
                m=4, cache=tmp_path, shard=(0, 0),
            )

    def test_merge_caches_is_a_root_export(self, spec, tmp_path):
        assert "merge_caches" in repro.__all__
        kwargs = dict(m=4, reps=1, seed=4, max_workers=1)
        for i in range(2):
            repro.sweep(
                WorkStealingScheduler, {"k": [0, 2]}, spec,
                cache=tmp_path / f"s{i}", shard=(i, 2), **kwargs,
            )
        report = repro.merge_caches(
            [tmp_path / "s0", tmp_path / "s1"], tmp_path / "merged"
        )
        assert report.cells_added == 2
        full = repro.sweep(
            WorkStealingScheduler, {"k": [0, 2]}, spec,
            cache=tmp_path / "merged", resume=True, **kwargs,
        )
        assert [c.params["k"] for c in full.cells] == [0, 2]

    def test_conflict_error_is_a_root_export(self):
        assert "CacheMergeConflictError" in repro.__all__
        assert issubclass(repro.CacheMergeConflictError, repro.ReproError)


class TestAdapters:
    def test_as_factory_resolution(self):
        assert _as_factory(WorkStealingScheduler) is WorkStealingScheduler
        assert isinstance(
            _as_factory(WorkStealingScheduler(k=2)), _InstanceFactory
        )
        partial = _as_factory("work-stealing")
        assert isinstance(partial, functools.partial)
        assert partial.func is _EngineScheduler

    def test_instance_factory_repr_is_address_free(self):
        factory = _InstanceFactory(WorkStealingScheduler(k=2))
        assert " at 0x" not in repr(factory)
        assert "k=2" in repr(factory)

    def test_engine_scheduler_repr_and_validation(self):
        sched = _EngineScheduler("work-stealing", k=4)
        assert sched.name == "work-stealing"
        assert " at 0x" not in repr(sched)
        with pytest.raises(SweepConfigError):
            _EngineScheduler("quantum")
        with pytest.raises(TypeError, match="no extra"):
            _EngineScheduler("speedup-fifo", k=4)
