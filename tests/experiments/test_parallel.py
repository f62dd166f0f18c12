"""Parallel cell execution: determinism, fallback, worker resolution.

The contract under test (see :mod:`repro.experiments.parallel`): cell
seeds derive from cell *coordinates*, so fanning cells across a process
pool is bit-identical to the serial loop -- same floats, same order --
and anything that prevents pooling (one worker, unpicklable callables)
degrades to that serial loop, warning once about the lost parallelism.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core.work_stealing import WorkStealingScheduler
from repro.experiments.config import ExperimentScale, Figure2Config
from repro.experiments.parallel import (
    default_workers,
    parallel_map,
    shared_data,
)
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


def _one():  # top-level: a picklable work item for _call
    return 1


def _call(thunk):  # top-level: runs a work item
    return thunk()


def _die_once(task):  # top-level: kills the first worker that runs it
    marker, x = task
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return x * x
    os._exit(1)


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

    def test_worker_death_during_submission_is_retried(
        self, monkeypatch, tmp_path
    ):
        """A worker that dies while the batch is still being submitted
        breaks the pool under ``submit``; the supervisor charges the
        crash and respawns instead of letting BrokenProcessPool out."""
        from concurrent.futures import ProcessPoolExecutor, wait

        from repro.experiments import parallel as parallel_mod

        class SubmitAfterFirstResult(ProcessPoolExecutor):
            # Holds every later submit until the first task has finished,
            # so a first task that kills its worker is always seen by a
            # later submit.
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.first = None

            def submit(self, fn, *args, **kwargs):
                if self.first is not None:
                    wait([self.first])
                future = super().submit(fn, *args, **kwargs)
                self.first = self.first or future
                return future

        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor", SubmitAfterFirstResult
        )
        marker = str(tmp_path / "died")
        tasks = [(marker, x) for x in (1, 2, 3)]
        assert parallel_map(
            _die_once, tasks, max_workers=2, retries=1
        ) == [1, 4, 9]

    def test_fn_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2], max_workers=2)

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], max_workers=4) == []
        assert parallel_map(_square, [5], max_workers=4) == [25]

    def test_lambda_fallback_leaves_no_thread_exception(self, monkeypatch):
        """The fallback used to let the pool's queue feeder thread fail
        to pickle the lambda, an unhandled thread exception that pytest
        reported against a later, unrelated test."""
        import threading

        from repro.experiments import parallel as parallel_mod

        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        monkeypatch.setattr(parallel_mod, "_FALLBACK_WARNED", set())
        with pytest.warns(RuntimeWarning, match="process pool unusable"):
            out = parallel_map(lambda x: x + 1, range(8), max_workers=2)
        assert out == list(range(1, 9))
        for thread in threading.enumerate():
            if thread.name == "QueueFeederThread":
                thread.join(timeout=5)
        assert raised == []

    @pytest.mark.parametrize("unpicklable", ["fn", "item"])
    def test_unpicklable_batch_starts_no_pool(self, monkeypatch, unpicklable):
        """Picklability is probed in the parent: an unpicklable ``fn``
        or work item falls back before any pool exists, with the same
        warning and telemetry as before."""
        from repro.experiments import parallel as parallel_mod
        from repro.obs import Telemetry

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(parallel_mod, "_FALLBACK_WARNED", set())
        if unpicklable == "fn":
            fn, items, expected = (lambda x: x * x), [1, 2, 3], [1, 4, 9]
        else:
            fn, items, expected = _call, [_one, _one, lambda: 2], [1, 1, 2]
        tel = Telemetry()
        with pytest.warns(RuntimeWarning, match="process pool unusable"):
            assert parallel_map(
                fn, items, max_workers=2, telemetry=tel
            ) == expected
        assert [
            e["event"] for e in tel.events if e["event"].startswith("dispatch")
        ] == ["dispatch.pool", "dispatch.fallback"]
        assert "pickle" in tel.of_kind("dispatch.fallback")[0]["error"]


def _view_probe(rep):  # top-level: runs in pool workers
    view = shared_data()[rep]
    return os.getpid(), rep, id(view), id(view.jobs)


def _sweep_spec(n_jobs):
    return WorkloadSpec(
        BingDistribution(), qps=800.0, n_jobs=n_jobs, m=4, target_chunks=8
    )


class TestSharedTaskData:
    """Repetition instances reach each worker once, as ``shared`` data;
    tasks carry an index into it."""

    def test_view_is_built_once_per_rep_per_process(self, monkeypatch):
        from repro.dag import flat as flat_mod

        views = [_sweep_spec(30).build(seed) for seed in (4, 5)]
        built = []
        materialize = flat_mod._materialize

        def counting(flat):
            built.append(1)
            return materialize(flat)

        monkeypatch.setattr(flat_mod, "_materialize", counting)
        # In-process: the parent's own views, each building its jobs
        # once, and the table is gone after the call.
        serial = parallel_map(
            _view_probe, [0, 1] * 4, max_workers=1, shared=views
        )
        assert {(rep, view_id) for _, rep, view_id, _ in serial} == {
            (rep, id(view)) for rep, view in enumerate(views)
        }
        assert len({jobs_id for *_, jobs_id in serial}) == 2
        assert len(built) == 2
        assert shared_data() == ()
        # On the pool: one set of jobs per (worker, rep).
        fresh = [_sweep_spec(30).build(seed) for seed in (4, 5)]
        pooled = parallel_map(
            _view_probe, [0, 1] * 4, max_workers=2, shared=fresh
        )
        jobs = {}
        for pid, rep, _, jobs_id in pooled:
            assert jobs.setdefault((pid, rep), jobs_id) == jobs_id
        assert os.getpid() not in {pid for pid, *_ in pooled}
        assert all(view._jobs is None for view in fresh)

    def test_cold_tasks_do_not_grow_with_the_instance(self, monkeypatch):
        import pickle

        from repro.dag.flat import FlatInstance, flatten_jobset
        from repro.dag.job import JobSet
        from repro.experiments import sweep as sweep_mod

        real_map = sweep_mod.parallel_map
        captured = []

        def recording(fn, items, **kwargs):
            items = list(items)
            captured.append((items, kwargs["shared"]))
            return real_map(fn, items, **kwargs)

        monkeypatch.setattr(sweep_mod, "parallel_map", recording)
        for n_jobs in (60, 3000):
            grid_sweep(
                _make_scheduler, {"k": [0, 4]}, _sweep_spec(n_jobs), m=4,
                reps=2, seed=3, max_workers=1,
            )
        (small, small_sets), (large, large_sets) = captured
        assert (
            flatten_jobset(large_sets[0]).nbytes
            > 10 * flatten_jobset(small_sets[0]).nbytes
        )
        sizes = [len(pickle.dumps(task)) for task in small]
        assert sizes == [len(pickle.dumps(task)) for task in large]
        assert max(sizes) < 1024
        assert not any(
            isinstance(field, (FlatInstance, JobSet))
            for task in small + large
            for field in task
        )

    def test_spawn_pool_sweep_matches_fork(self, monkeypatch):
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments import parallel as parallel_mod
        from repro.obs.telemetry import Telemetry

        def sweep(telemetry):
            return grid_sweep(
                _make_scheduler, {"k": [0, 4]}, _sweep_spec(40), m=4,
                reps=2, seed=3, max_workers=2, telemetry=telemetry,
            )

        fork = sweep(Telemetry())
        monkeypatch.setattr(
            parallel_mod,
            "ProcessPoolExecutor",
            functools.partial(
                ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("spawn"),
            ),
        )
        tel = Telemetry()
        spawn = sweep(tel)
        assert spawn.cells == fork.cells
        assert tel.of_kind("dispatch.fallback") == []
        pids = {e["pid"] for e in tel.of_kind("cell.run")}
        assert pids and os.getpid() not in pids


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

    @pytest.mark.parametrize("entry", ["grid_sweep", "repro.sweep"])
    def test_fallback_warning_names_the_callers_line(
        self, monkeypatch, entry
    ):
        """The "process pool unusable" warning points at the user's
        sweep call, not at a frame inside the package."""
        import repro
        from repro.experiments import parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_FALLBACK_WARNED", set())
        sweep = grid_sweep if entry == "grid_sweep" else repro.sweep
        with pytest.warns(RuntimeWarning) as record:
            sweep(
                lambda k: WorkStealingScheduler(k=k, steals_per_tick=16),
                {"k": [0, 4]},
                _build_jobset,
                m=4,
                reps=1,
                seed=3,
                max_workers=2,
            )
        fallback = [
            w for w in record if "process pool unusable" in str(w.message)
        ]
        assert len(fallback) == 1
        assert fallback[0].filename == __file__
