"""Content-addressed cache + resume: equivalence is the whole contract.

The cache (:mod:`repro.experiments.cache`) may only ever change *when*
a number is computed, never *what* it is: a resumed sweep must be
bit-identical to a cold serial run.  These tests pin that contract for
the store itself (exact float round-trips, corrupt files miss, atomic
layout), for :func:`grid_sweep` and for
:func:`run_figure2_cells`.
"""

import json

import numpy as np
import pytest

from repro.core.work_stealing import WorkStealingScheduler
from repro.dag.flat import content_hash
from repro.experiments.cache import (
    CACHE_ENV,
    RESUME_ENV,
    SweepCache,
    cell_key,
    resolve_cache_dir,
    resume_enabled_by_env,
)
from repro.experiments.config import (
    FIG2A,
    FIG2B,
    FIG2C,
    ExperimentScale,
    Figure2Config,
)
from repro.experiments.runner import _config_token
from repro.experiments.runner import _run_figure2_cells as run_figure2_cells
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.obs import Telemetry
from repro.workloads.distributions import (
    BingDistribution,
    LogNormalDistribution,
)
from repro.workloads.generator import WorkloadSpec

SPEC = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=30, m=4, target_chunks=8)


def _make_scheduler(k):  # top-level: picklable
    return WorkStealingScheduler(k=k, steals_per_tick=16)


class TestResolution:
    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "arg") == tmp_path / "arg"

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir() == tmp_path / "env"

    def test_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert str(resolve_cache_dir()) == ".repro_cache"

    def test_resume_env_parsing(self, monkeypatch):
        for value, expected in [
            ("1", True), ("true", True), ("yes", True),
            ("0", False), ("false", False), ("", False), ("no", False),
        ]:
            monkeypatch.setenv(RESUME_ENV, value)
            assert resume_enabled_by_env() is expected
        monkeypatch.delenv(RESUME_ENV)
        assert resume_enabled_by_env() is False


class TestCellKey:
    def test_deterministic_and_sensitive(self):
        base = cell_key("grid-cell", "hash", "factory", [("k", 4)], 4, 1.0)
        assert base == cell_key("grid-cell", "hash", "factory", [("k", 4)], 4, 1.0)
        assert base != cell_key("grid-cell", "hash", "factory", [("k", 5)], 4, 1.0)
        assert base != cell_key("grid-cell", "hash2", "factory", [("k", 4)], 4, 1.0)


class TestSweepCacheStore:
    def test_instance_round_trip_exact(self, tmp_path):
        cache = SweepCache(tmp_path)
        flat = SPEC.build_flat(seed=7)
        key = SPEC.cache_key(7)
        assert cache.load_instance(key) is None
        cache.store_instance(key, flat)
        loaded = cache.load_instance(key)
        assert loaded == flat
        assert content_hash(loaded) == content_hash(flat)

    def test_cell_round_trip_exact_floats(self, tmp_path):
        cache = SweepCache(tmp_path)
        # Awkward floats: JSON repr round-trips them exactly in py3.
        metrics = {"max_flow": 0.1 + 0.2, "mean_flow": 1e-17, "p99_flow": np.float64(3.7) ** 0.5}
        metrics = {k: float(v) for k, v in metrics.items()}
        key = cell_key("x")
        assert cache.load_cell(key) is None
        cache.store_cell(key, metrics)
        loaded = cache.load_cell(key)
        assert loaded == metrics  # bit-identical, not approx

    def test_cell_preserves_key_order(self, tmp_path):
        # Figure series follow the scheduler-lineup order of the metric
        # dict; a resumed cell must render exactly like a computed one,
        # so the cache may not re-sort keys.
        cache = SweepCache(tmp_path)
        metrics = {"opt-lb": 1.0, "steal-16-first": 2.0, "admit-first": 3.0}
        key = cell_key("order")
        cache.store_cell(key, metrics)
        assert list(cache.load_cell(key)) == list(metrics)

    def test_corrupt_files_are_misses(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = cell_key("corrupt")
        cache.cells_dir.mkdir(parents=True, exist_ok=True)
        cache.cell_path(key).write_text("{not json")
        assert cache.load_cell(key) is None
        cache.instances_dir.mkdir(parents=True, exist_ok=True)
        cache.instance_path(key).write_bytes(b"\x00garbage")
        assert cache.load_instance(key) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = cell_key("schema")
        cache.cells_dir.mkdir(parents=True, exist_ok=True)
        cache.cell_path(key).write_text(
            json.dumps({"schema": "repro-cell/999", "metrics": {"max_flow": 1.0}})
        )
        assert cache.load_cell(key) is None

    def test_clear_and_stats(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        empty = {"instances": 0, "cells": 0, "manifests": 0}
        assert cache.stats() == empty
        cache.store_cell(cell_key("a"), {"max_flow": 1.0})
        cache.store_instance(SPEC.cache_key(1), SPEC.build_flat(seed=1))
        assert cache.stats() == {"instances": 1, "cells": 1, "manifests": 0}
        cache.clear()
        assert cache.stats() == empty
        assert not (tmp_path / "c").exists()

    def test_clear_removes_manifests_and_sidecars(self, tmp_path):
        # A "cleared" cache must not keep provenance or half-written
        # sidecars behind: a later merge would read them as real.
        cache = SweepCache(tmp_path / "c")
        cache.store_cell(cell_key("a"), {"max_flow": 1.0})
        cache.manifests_dir.mkdir(parents=True, exist_ok=True)
        (cache.manifests_dir / "shard-x-0of2.json").write_text("{}")
        (cache.cells_dir / "torn.tmp").write_text("{half")
        assert cache.stats()["manifests"] == 1
        cache.clear()
        assert not cache.root.exists()

    def test_clear_follows_a_symlinked_root(self, tmp_path):
        # rmtree on a symlink silently deletes nothing; clear() must go
        # through the link (and drop the link) or "clean-cache" leaves
        # every poisoned file in place.
        real = tmp_path / "real"
        link = tmp_path / "link"
        cache = SweepCache(real)
        cache.store_cell(cell_key("a"), {"max_flow": 1.0})
        link.symlink_to(real)
        SweepCache(link).clear()
        assert not link.exists()
        assert not real.exists()


class TestGridSweepResume:
    KWARGS = dict(
        grid={"k": [0, 4]},
        jobset_factory=SPEC,
        m=4,
        reps=2,
        seed=3,
        metrics=("max_flow", "mean_flow"),
        max_workers=1,
    )

    def test_resumed_sweep_bit_identical_to_cold_serial(self, tmp_path):
        cold = grid_sweep(_make_scheduler, **self.KWARGS)
        cache = SweepCache(tmp_path)
        warm_fill = grid_sweep(
            _make_scheduler, cache=cache, resume=True, **self.KWARGS
        )
        stats = cache.stats()
        assert stats["cells"] == 4  # 2 grid points x 2 reps
        assert stats["instances"] == 2  # one per rep
        resumed = grid_sweep(
            _make_scheduler, cache=cache, resume=True, **self.KWARGS
        )
        for a, b, c in zip(cold.cells, warm_fill.cells, resumed.cells):
            assert a.params == b.params == c.params
            assert a.metrics == b.metrics == c.metrics  # exact floats

    def test_resume_only_runs_cold_cells(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        grid_sweep(_make_scheduler, cache=cache, resume=True, **self.KWARGS)

        # A scheduler run on a fully warm sweep would prove the cache
        # was bypassed.
        def boom(self, *a, **kw):  # pragma: no cover - must not run
            raise AssertionError("cache bypassed: scheduler ran")

        monkeypatch.setattr(WorkStealingScheduler, "run", boom)
        resumed = grid_sweep(
            _make_scheduler, cache=cache, resume=True, **self.KWARGS
        )
        assert len(resumed.cells) == 2

    def test_cache_accepts_path_string(self, tmp_path):
        grid_sweep(
            _make_scheduler, cache=str(tmp_path / "p"), resume=True, **self.KWARGS
        )
        assert SweepCache(tmp_path / "p").stats()["cells"] == 4

    def test_changed_metrics_miss_cleanly(self, tmp_path):
        cache = SweepCache(tmp_path)
        grid_sweep(_make_scheduler, cache=cache, resume=True, **self.KWARGS)
        kwargs = dict(self.KWARGS, metrics=("max_flow", "p99_flow"))
        widened = grid_sweep(
            _make_scheduler, cache=cache, resume=True, **kwargs
        )
        baseline = grid_sweep(_make_scheduler, **kwargs)
        for a, b in zip(widened.cells, baseline.cells):
            assert a.metrics == b.metrics

    def test_lambda_factory_skips_instance_cache(self, tmp_path):
        # Arbitrary callables have no content identity: cells still
        # cache (keyed by instance content hash) but instances do not.
        cache = SweepCache(tmp_path)
        kwargs = dict(self.KWARGS, jobset_factory=lambda s: SPEC.build(seed=s))
        grid_sweep(_make_scheduler, cache=cache, resume=True, **kwargs)
        stats = cache.stats()
        assert stats["instances"] == 0
        assert stats["cells"] == 4

    def test_distinct_lambdas_never_share_cells(self, tmp_path):
        # Same module, same qualname ("<lambda>"), different behavior:
        # a name-only factory token served one lambda's cached metrics
        # to the other under resume.  Tokens are content-based now.
        cache = SweepCache(tmp_path)
        grid_sweep(
            lambda k: WorkStealingScheduler(k=k, steals_per_tick=1),
            cache=cache, resume=True, **self.KWARGS,
        )
        resumed = grid_sweep(
            lambda k: WorkStealingScheduler(k=k, steals_per_tick=64),
            cache=cache, resume=True, **self.KWARGS,
        )
        cold = grid_sweep(
            lambda k: WorkStealingScheduler(k=k, steals_per_tick=64),
            **self.KWARGS,
        )
        assert cache.stats()["cells"] == 8  # two disjoint key sets
        for a, b in zip(resumed.cells, cold.cells):
            assert a.metrics == b.metrics

    def test_closure_captured_config_is_keyed(self, tmp_path):
        # Two closures over the *same* code but different captured
        # values must key (and cache) independently.
        def make_factory(spt):
            return lambda k: WorkStealingScheduler(k=k, steals_per_tick=spt)

        cache = SweepCache(tmp_path)
        grid_sweep(make_factory(1), cache=cache, resume=True, **self.KWARGS)
        resumed = grid_sweep(
            make_factory(64), cache=cache, resume=True, **self.KWARGS
        )
        cold = grid_sweep(make_factory(64), **self.KWARGS)
        assert cache.stats()["cells"] == 8
        for a, b in zip(resumed.cells, cold.cells):
            assert a.metrics == b.metrics

    def test_unkeyable_factory_bypasses_cell_cache(self, tmp_path):
        # A closure over an object with an address-based repr cannot be
        # keyed stably across runs; the sweep must warn and skip the
        # cell cache instead of writing unreliable keys.
        opaque = object()

        def factory(k):
            assert opaque is not None
            return WorkStealingScheduler(k=k, steals_per_tick=16)

        cache = SweepCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="cell cache is bypassed"):
            bypassed = grid_sweep(
                factory, cache=cache, resume=True, **self.KWARGS
            )
        assert cache.stats()["cells"] == 0
        baseline = grid_sweep(_make_scheduler, **self.KWARGS)
        for a, b in zip(bypassed.cells, baseline.cells):
            assert a.metrics == b.metrics


class TestFigure2Resume:
    CFG = Figure2Config(
        name="tiny-bing",
        distribution_factory=BingDistribution,
        qps_values=(600.0, 900.0),
        m=4,
        k=4,
        steals_per_tick=16,
        target_chunks=8,
    )
    SCALE = ExperimentScale(n_jobs=30, reps=2)

    def test_resumed_cells_bit_identical(self, tmp_path):
        cold = run_figure2_cells(
            self.CFG, self.CFG.qps_values, self.SCALE, seed=5, max_workers=1
        )
        cache = SweepCache(tmp_path)
        warm_fill = run_figure2_cells(
            self.CFG, self.CFG.qps_values, self.SCALE, seed=5,
            max_workers=1, cache=cache, resume=True,
        )
        assert cache.stats()["cells"] == len(self.CFG.qps_values)
        resumed = run_figure2_cells(
            self.CFG, self.CFG.qps_values, self.SCALE, seed=5,
            max_workers=1, cache=cache, resume=True,
        )
        assert cold == warm_fill == resumed

    def test_env_var_enables_resume(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(RESUME_ENV, "1")
        first = run_figure2_cells(
            self.CFG, self.CFG.qps_values, self.SCALE, seed=5, max_workers=1
        )
        assert SweepCache().root == tmp_path
        assert SweepCache().stats()["cells"] == len(self.CFG.qps_values)

        def boom(self, *a, **kw):  # pragma: no cover - must not run
            raise AssertionError("cache bypassed: scheduler ran")

        monkeypatch.setattr(WorkStealingScheduler, "run", boom)
        second = run_figure2_cells(
            self.CFG, self.CFG.qps_values, self.SCALE, seed=5, max_workers=1
        )
        assert first == second

    def test_seed_change_misses(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_figure2_cells(
            self.CFG, self.CFG.qps_values, self.SCALE, seed=5,
            max_workers=1, cache=cache, resume=True,
        )
        run_figure2_cells(
            self.CFG, self.CFG.qps_values, self.SCALE, seed=6,
            max_workers=1, cache=cache, resume=True,
        )
        assert cache.stats()["cells"] == 2 * len(self.CFG.qps_values)

    def test_shipped_panels_key_by_their_repr(self):
        for cfg in (FIG2A, FIG2B, FIG2C):
            assert _config_token(cfg) == repr(cfg)

    def test_lambda_factories_do_not_share_cells(self, tmp_path):
        """A lambda's repr is its qualname and address, and a later
        lambda can reuse a freed address: keyed on the repr, a second
        panel was served the first one's cells.  Changing the default of
        one function object keeps the repr and changes the distribution,
        which reproduces that collision deterministically."""
        factory = lambda mean=10.0: LogNormalDistribution(mean_ms=mean)  # noqa: E731
        cfg = Figure2Config(
            name="x", distribution_factory=factory, qps_values=(400.0,)
        )
        scale = ExperimentScale(n_jobs=200, reps=1)
        cache = SweepCache(tmp_path)

        def panel(**kwargs):
            return run_figure2_cells(
                cfg, cfg.qps_values, scale, max_workers=1, **kwargs
            )

        first = panel(cache=cache, resume=True)
        factory.__defaults__ = (20.0,)
        second = panel(cache=cache, resume=True)
        assert second == panel()
        assert second != first
        assert cache.stats()["cells"] == 2

    def test_unkeyable_factory_bypasses_the_cell_cache(self, tmp_path):
        marker = object()  # its repr embeds an address: no stable key
        cfg = Figure2Config(
            name="x",
            distribution_factory=lambda: marker and BingDistribution(),
            qps_values=(600.0,),
            m=4,
            k=4,
            steals_per_tick=16,
            target_chunks=8,
        )
        cache = SweepCache(tmp_path)
        tel = Telemetry()
        with pytest.warns(RuntimeWarning, match="cell cache is bypassed"):
            bypassed = run_figure2_cells(
                cfg, cfg.qps_values, self.SCALE, seed=5, max_workers=1,
                cache=cache, resume=True, telemetry=tel,
            )
        assert len(tel.of_kind("cache.bypass")) == 1
        assert cache.stats()["cells"] == 0
        assert bypassed == run_figure2_cells(
            self.CFG, self.CFG.qps_values[:1], self.SCALE, seed=5,
            max_workers=1,
        )
