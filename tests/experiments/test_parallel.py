"""Parallel cell execution: determinism, fallback, worker resolution.

The contract under test (see :mod:`repro.experiments.parallel`): cell
seeds derive from cell *coordinates*, so fanning cells across a process
pool is bit-identical to the serial loop -- same floats, same order --
and anything that prevents pooling (one worker, unpicklable callables)
degrades to that serial loop, warning once about the lost parallelism.
"""

import warnings

import numpy as np
import pytest

from repro.core.work_stealing import WorkStealingScheduler
from repro.experiments.config import ExperimentScale, Figure2Config
from repro.experiments.parallel import default_workers, parallel_map
from repro.experiments.runner import run_figure2_cell
from repro.experiments.runner import _run_figure2_cells as run_figure2_cells
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec

TINY = ExperimentScale(n_jobs=40, reps=2)
TINY_CFG = Figure2Config(
    name="tiny-bing",
    distribution_factory=BingDistribution,
    qps_values=(600.0, 900.0, 1200.0),
    m=4,
    k=4,
    steals_per_tick=16,
    target_chunks=8,
)


def _square(x):  # top-level: picklable, crosses process boundaries
    return x * x


def _boom(x):  # top-level: raises inside the pool worker
    raise ValueError(f"boom on {x}")


def _build_jobset(seed):  # top-level jobset factory for grid_sweep
    return WorkloadSpec(
        BingDistribution(), qps=800.0, n_jobs=30, m=4, target_chunks=8
    ).build(seed=seed)


def _make_scheduler(k):  # top-level scheduler factory for grid_sweep
    return WorkStealingScheduler(k=k, steals_per_tick=16)


class TestParallelMap:
    def test_preserves_input_order(self):
        assert parallel_map(_square, range(7), max_workers=2) == [
            0, 1, 4, 9, 16, 25, 36,
        ]

    def test_serial_when_one_worker(self):
        assert parallel_map(_square, [3, 4], max_workers=1) == [9, 16]

    def test_lambda_falls_back_to_serial(self):
        # Lambdas cannot cross process boundaries; the pool attempt
        # fails to pickle and the serial fallback must still deliver.
        assert parallel_map(lambda x: x + 1, [1, 2, 3], max_workers=2) == [
            2, 3, 4,
        ]

    def test_fallback_warns_once_naming_the_callable(self):
        # Losing parallelism should be visible: the first fallback for a
        # given callable warns (naming it); repeats stay quiet so a
        # thousand-cell sweep does not warn a thousand times.
        from repro.experiments import parallel as parallel_mod

        def not_picklable(x):  # local function: cannot cross processes
            return x - 1

        parallel_mod._FALLBACK_WARNED.clear()
        with pytest.warns(RuntimeWarning, match="not_picklable"):
            assert parallel_map(not_picklable, [1, 2], max_workers=2) == [0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(not_picklable, [3, 4], max_workers=2) == [2, 3]

    def test_fn_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2], max_workers=2)

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], max_workers=4) == []
        assert parallel_map(_square, [5], max_workers=4) == [25]


class TestSharedInstanceTransport:
    """Shared-memory publication of flat instances (zero-copy dispatch)."""

    def test_publish_attach_round_trip(self, monkeypatch):
        from repro.dag import flat as flat_mod
        from repro.dag.flat import flatten_jobset, to_jobset
        from repro.experiments.parallel import (
            SharedInstance,
            attach_flat,
            shared_memory_available,
        )

        if not shared_memory_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        built = []
        real_jobset = flat_mod.JobSet

        def counting(jobs):
            built.append(1)
            return real_jobset(jobs)

        monkeypatch.setattr(flat_mod, "JobSet", counting)
        flat = flatten_jobset(_build_jobset(seed=4))
        with SharedInstance(flat) as shared:
            # In the publishing process the attach resolves locally to
            # the very same object -- no copy -- and the object view is
            # built once, however many tasks ask for it.
            assert attach_flat(shared.handle) is flat
            view = to_jobset(attach_flat(shared.handle))
            assert to_jobset(attach_flat(shared.handle)) is view
            assert len(built) == 1
            assert shared.handle["shm_name"]
            assert shared.handle["layout"]

    def test_failed_publish_releases_block(self, monkeypatch):
        # If packing raises after the block is created, the block must
        # be closed and unlinked -- not leaked until interpreter exit.
        from repro.dag.flat import flatten_jobset
        from repro.experiments import parallel as parallel_mod
        from repro.experiments.parallel import (
            SharedInstance,
            shared_memory_available,
        )

        if not shared_memory_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        created = []
        real_cls = parallel_mod._shared_memory.SharedMemory

        class Recording(real_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self.name)

        def boom(*args, **kwargs):
            raise ValueError("pack failed")

        monkeypatch.setattr(
            parallel_mod._shared_memory, "SharedMemory", Recording
        )
        monkeypatch.setattr(parallel_mod, "pack_into", boom)
        flat = flatten_jobset(_build_jobset(seed=4))
        with pytest.raises(ValueError, match="pack failed"):
            SharedInstance(flat)
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):  # unlinked: gone
            real_cls(name=created[0])

    def test_handle_is_small(self):
        import pickle

        from repro.dag.flat import flatten_jobset
        from repro.experiments.parallel import (
            SharedInstance,
            shared_memory_available,
        )

        if not shared_memory_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        js = _build_jobset(seed=4)
        flat = flatten_jobset(js)
        with SharedInstance(flat) as shared:
            handle_bytes = len(pickle.dumps(shared.handle))
            jobset_bytes = len(pickle.dumps(js))
        # The whole point: tasks carry a tiny layout dict, not the
        # object graph.
        assert handle_bytes < 1024
        assert handle_bytes * 10 < jobset_bytes


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_workers() == 3

    def test_env_garbage_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_workers() >= 1
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert default_workers() >= 1

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        import os

        assert default_workers() == (os.cpu_count() or 1)


class TestSweepDeterminism:
    """Parallel and serial sweeps must be byte-identical per cell."""

    def test_figure2_cells_parallel_equals_serial(self):
        serial = run_figure2_cells(
            TINY_CFG, TINY_CFG.qps_values, TINY, seed=5, max_workers=1
        )
        parallel = run_figure2_cells(
            TINY_CFG, TINY_CFG.qps_values, TINY, seed=5, max_workers=2
        )
        assert len(serial) == len(TINY_CFG.qps_values)
        for s_cell, p_cell in zip(serial, parallel):
            assert set(s_cell) == set(p_cell)
            for name in s_cell:
                # Bit-identical, not approximately equal: the fan-out
                # must not perturb a single ulp of any cell.
                assert s_cell[name] == p_cell[name]

    def test_cells_match_direct_single_cell_runs(self):
        # A cell is reproducible in isolation from its coordinates.
        cells = run_figure2_cells(
            TINY_CFG, TINY_CFG.qps_values, TINY, seed=9, max_workers=2
        )
        lone = run_figure2_cell(TINY_CFG, TINY_CFG.qps_values[1], TINY, seed=9)
        assert cells[1] == lone

    def test_grid_sweep_parallel_equals_serial(self):
        kwargs = dict(
            grid={"k": [0, 2, 8]},
            jobset_factory=_build_jobset,
            m=4,
            reps=2,
            seed=3,
            metrics=("max_flow", "mean_flow"),
        )
        serial = grid_sweep(_make_scheduler, max_workers=1, **kwargs)
        parallel = grid_sweep(_make_scheduler, max_workers=2, **kwargs)
        assert serial.param_names == parallel.param_names
        for s_cell, p_cell in zip(serial.cells, parallel.cells):
            assert s_cell.params == p_cell.params
            assert s_cell.metrics == p_cell.metrics

    def test_grid_sweep_lambda_factories_still_work(self):
        # The documented example uses lambdas; they cannot pickle, so
        # the sweep silently runs serially -- same numbers either way.
        result = grid_sweep(
            lambda k: WorkStealingScheduler(k=k, steals_per_tick=16),
            {"k": [0, 4]},
            lambda s: _build_jobset(s),
            m=4,
            reps=1,
            seed=3,
            max_workers=2,
        )
        baseline = grid_sweep(
            _make_scheduler,
            {"k": [0, 4]},
            _build_jobset,
            m=4,
            reps=1,
            seed=3,
            max_workers=1,
        )
        assert [c.metrics for c in result.cells] == [
            c.metrics for c in baseline.cells
        ]
