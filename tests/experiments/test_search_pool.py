"""A search's worker pool and repetition table: one of each per search.

:class:`~repro.experiments.parallel.WorkerPool` keeps one supervised
executor across batches; a search holds one for all its rounds, over
one table of repetition instances built once.  Under test: how many
executors a search constructs (cold, warm, threshold), that no worker
process outlives a search (normal return or a crash that exhausts the
budget), that a worker killed in a late round is replaced in place and
the search still equals a clean serial one (result and cache files),
and that the table is built, cache-loaded and hashed once per search.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core.work_stealing import WorkStealingScheduler
from repro.errors import CellCrashedError
from repro.experiments import parallel as parallel_mod
from repro.experiments.parallel import WorkerPool, parallel_map, shared_data
from repro.experiments.search import (
    _halving_depth,
    successive_halving,
    threshold_search,
)
from repro.experiments.sweep import _build_rep_table, _grid_sweep
from repro.obs import Telemetry, audit_events
from repro.testing.faults import FAULTS_DIR_ENV, FAULTS_ENV, clear_fault_state
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec

SPEC = WorkloadSpec(
    BingDistribution(), qps=400.0, n_jobs=30, m=4, target_chunks=8
)

#: Eight cells: halving rounds at 1, 2 and 4 reps, every one with at
#: least two cold tasks, so every round dispatches to the pool.
SPACE8 = {"k": [0, 2, 8, 32], "steals_per_tick": [1, 4]}

#: Nine cells: rounds at 1, 2, 4 and 8 reps over 9, 5, 3 and 2
#: candidates.  Task index 10 exists only from round 2 on and is cached
#: again in round 3, so a fault aimed at it fires in round 2 only.
SPACE9 = {"k": [0, 2, 8], "steals_per_tick": [1, 4, 16]}


def make_ws(k=4, steals_per_tick=1):  # top-level: picklable + keyable
    return WorkStealingScheduler(k=k, steals_per_tick=steals_per_tick)


def _read_shared(i):  # top-level: runs in pool workers
    return os.getpid(), shared_data()[i]


@pytest.fixture
def executors(monkeypatch):
    """Every ProcessPoolExecutor the pool layer constructs, in order."""
    made = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", Counting)
    return made


@pytest.fixture
def faults(monkeypatch, tmp_path):
    """Arm fault clauses with a cross-process claim directory."""
    monkeypatch.setenv(FAULTS_DIR_ENV, str(tmp_path / "claims"))
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    clear_fault_state()

    def arm(spec: str) -> None:
        monkeypatch.setenv(FAULTS_ENV, spec)
        clear_fault_state()

    yield arm
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_fault_state()


def halving(cache, space=SPACE8, **kwargs):
    kwargs.setdefault("max_workers", 2)
    return successive_halving(
        make_ws, space, SPEC, m=4, r0=1, eta=2, seed=5, cache=cache,
        **kwargs,
    )


def without_wall(result):
    return dataclasses.replace(result, wall_s=0.0)


def outcome(result):
    """What a search found, whatever the cache served."""
    return (
        result.best,
        result.best_index,
        [(r.reps, r.survivors, r.best_value) for r in result.rounds],
    )


def cache_files(root: Path):
    """Every instance and cell file of a cache, by relative path.

    Manifests are left out: they record wall times."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for sub in ("instances", "cells")
        for p in sorted((root / sub).glob("*"))
    }


def batches(tel):
    """The events of each ``_grid_sweep`` of a search, in round order."""
    out, current = [], None
    for event in tel.events:
        if event["event"] == "sweep.start":
            current = []
            out.append(current)
        if current is not None:
            current.append(event)
    return out


class TestWorkerPool:
    def test_batches_share_one_executor(self, executors):
        tel = Telemetry()
        with WorkerPool((10, 20, 30), max_workers=2) as pool:
            first = pool.map(_read_shared, [0, 1, 2], tel)
            second = pool.map(_read_shared, [2, 1], tel)
        assert [v for _, v in first] == [10, 20, 30]
        assert [v for _, v in second] == [30, 20]
        assert len(executors) == 1
        assert [e["reused"] for e in tel.of_kind("dispatch.pool")] == [
            False, True,
        ]
        assert multiprocessing.active_children() == []

    def test_serial_batches_start_no_executor(self, executors):
        with WorkerPool((1, 2), max_workers=2) as pool:
            assert pool.map(_read_shared, [1])[0][1] == 2
            assert pool.map(_read_shared, []) == []
        with WorkerPool((1, 2), max_workers=1) as pool:
            assert [v for _, v in pool.map(_read_shared, [0, 1])] == [1, 2]
        assert executors == []

    def test_parallel_map_is_a_one_batch_pool(self, executors):
        tel = Telemetry()
        assert [
            v for _, v in parallel_map(
                _read_shared, [1, 0], max_workers=2, telemetry=tel,
                shared=("a", "b"),
            )
        ] == ["b", "a"]
        assert len(executors) == 1
        assert [e["reused"] for e in tel.of_kind("dispatch.pool")] == [False]
        assert multiprocessing.active_children() == []

    def test_exception_exit_kills_the_workers(self, executors):
        with pytest.raises(RuntimeError, match="abandon"):
            with WorkerPool((1, 2), max_workers=2) as pool:
                pool.map(_read_shared, [0, 1])
                raise RuntimeError("abandon the pool")
        assert len(executors) == 1
        assert multiprocessing.active_children() == []

    def test_a_batch_must_read_the_pools_shared_data(self):
        table = _build_rep_table(SPEC, 5, 2, None)
        foreign = WorkerPool(table.sets[:1], max_workers=2)
        with pytest.raises(ValueError, match="shared data"):
            _grid_sweep(
                make_ws, {"k": [0, 2]}, SPEC, m=4, reps=2, seed=5,
                _rep_table=table, _pool=foreign,
            )


class TestRepTable:
    def test_depth_follows_the_survivor_counts(self):
        assert _halving_depth(8, 1, 2, 3) == 4
        # An oversized explicit round count stops at one survivor.
        assert _halving_depth(8, 1, 2, 10) == 4
        assert _halving_depth(9, 1, 2, 4) == 8
        assert _halving_depth(1, 3, 2, 1) == 3
        assert _halving_depth(32, 1, 2, 5) == 16

    def test_instances_built_and_loaded_once_per_search(self, tmp_path):
        cold_tel, warm_tel = Telemetry(), Telemetry()
        cold = halving(tmp_path / "c", telemetry=cold_tel, rounds=10)
        warm = halving(tmp_path / "c", telemetry=warm_tel, rounds=10)
        assert outcome(cold) == outcome(warm)
        assert [r.reps for r in cold.rounds] == [1, 2, 4]
        assert len(cold_tel.of_kind("cache.instance_store")) == 4
        assert cold_tel.of_kind("cache.instance_hit") == []
        assert len(warm_tel.of_kind("cache.instance_hit")) == 4
        assert warm_tel.of_kind("cache.instance_store") == []
        # The table is built before round 0.
        kinds = [e["event"] for e in warm_tel.events]
        last_hit = max(
            i for i, k in enumerate(kinds) if k == "cache.instance_hit"
        )
        assert last_hit < kinds.index("sweep.start")
        assert audit_events(cold_tel.events) == []
        assert audit_events(warm_tel.events) == []

    def test_pooled_search_equals_serial(self, tmp_path):
        pooled = halving(tmp_path / "p", refine="ga", refine_generations=2)
        serial = halving(
            tmp_path / "s", refine="ga", refine_generations=2,
            max_workers=1,
        )
        assert without_wall(pooled) == without_wall(serial)
        assert cache_files(tmp_path / "p") == cache_files(tmp_path / "s")


class TestPoolCount:
    def test_cold_search_one_pool_warm_rerun_none(self, executors, tmp_path):
        tel = Telemetry()
        cold = halving(tmp_path / "c", telemetry=tel)
        assert len(executors) == 1
        assert [e["reused"] for e in tel.of_kind("dispatch.pool")] == [
            False, True, True,
        ]
        assert multiprocessing.active_children() == []
        warm = halving(tmp_path / "c")
        assert warm.n_cold == 0
        assert len(executors) == 1
        assert outcome(warm) == outcome(cold)
        assert multiprocessing.active_children() == []

    def test_threshold_search_at_most_one_pool(self, executors, tmp_path):
        result = threshold_search(
            make_ws, "k", [0, 2, 8, 32, 64], SPEC, m=4, budget=1e9,
            reps=2, seed=5, cache=tmp_path / "c", max_workers=2,
        )
        assert len(result.rounds) >= 3
        assert len(executors) <= 1
        assert multiprocessing.active_children() == []

    def test_persistent_crash_leaves_no_worker(
        self, executors, faults, tmp_path
    ):
        faults("kill:cell:index=0:times=20")
        with pytest.raises(CellCrashedError):
            halving(tmp_path / "c", retries=1)
        assert len(executors) == 2  # the first pool and one respawn
        assert multiprocessing.active_children() == []


class TestWorkerKilledMidSearch:
    def test_respawned_in_place_and_bit_identical(
        self, executors, faults, tmp_path
    ):
        reference = halving(tmp_path / "serial", space=SPACE9, max_workers=1)
        assert [r.reps for r in reference.rounds] == [1, 2, 4, 8]
        assert executors == []

        faults("kill:cell:index=10")
        tel = Telemetry()
        disturbed = halving(
            tmp_path / "pooled", space=SPACE9, retries=2, telemetry=tel
        )
        assert without_wall(disturbed) == without_wall(reference)
        assert cache_files(tmp_path / "pooled") == cache_files(
            tmp_path / "serial"
        )

        # One respawn, inside round 2; every batch after the first
        # reuses the running pool, the replacement included.
        rounds = batches(tel)
        assert len(rounds) == 4
        kinds = [[e["event"] for e in batch] for batch in rounds]
        assert [k.count("pool.respawn") for k in kinds] == [0, 0, 1, 0]
        assert len(executors) == 2
        assert [e["reused"] for e in tel.of_kind("dispatch.pool")] == [
            False, True, True, True,
        ]
        pids = [
            {e["pid"] for e in batch if e["event"] == "cell.run"}
            for batch in rounds
        ]
        assert pids[3] and pids[3].isdisjoint(pids[0] | pids[1])
        assert tel.of_kind("fault.giveup") == []
        assert audit_events(tel.events) == []
        assert multiprocessing.active_children() == []
