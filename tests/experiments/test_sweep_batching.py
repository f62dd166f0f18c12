"""Sweep-layer replicate batching: fused cells vs the per-rep path.

The sweep layer evaluates cold cells with >= ``_BATCH_MIN_REPS`` (4)
reps of a batch-eligible scheduler through
:func:`repro.sim.batch_engine.run_batch`.  The contract is
*bit-identity*: a batched sweep must produce the same
:class:`SweepResult` -- and byte-identical cache cell files -- as the
same sweep on the per-rep path (the threshold monkeypatched out of
reach).  These tests pin that, plus the threshold, the cell_timeout
exclusion, the ``batch.*`` telemetry, and the figure-runner's use of the
same machinery.
"""

import hashlib
import json
from pathlib import Path

from repro.core.work_stealing import (
    WeightedWorkStealingScheduler,
    WorkStealingScheduler,
)
from repro.dag.builders import single_node
from repro.dag.job import jobs_from_dags
from repro.experiments import sweep as sweep_mod
from repro.experiments.config import FIG2A, ExperimentScale
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.obs.telemetry import Telemetry
from repro.sim.rng import make_rng


def tiny_jobset_factory(rep_seed):
    rng = make_rng(rep_seed)
    works = rng.integers(2, 10, size=30)
    arrivals = rng.uniform(0, 60, size=30)
    return jobs_from_dags(
        [single_node(int(w)) for w in works], sorted(arrivals.tolist())
    )


GRID = {"k": [0, 2], "steals_per_tick": [1, 8]}


def per_rep_only(monkeypatch):
    """Put the batching threshold out of reach: every rep is its own task."""
    monkeypatch.setattr(sweep_mod, "_BATCH_MIN_REPS", 1 << 30)


def run_sweep(monkeypatch, batched, cache_dir=None, telemetry=None, **kw):
    if batched:
        monkeypatch.setattr(sweep_mod, "_BATCH_MIN_REPS", 4)
    else:
        per_rep_only(monkeypatch)
    return grid_sweep(
        lambda k, steals_per_tick: WorkStealingScheduler(
            k=k, steals_per_tick=steals_per_tick
        ),
        GRID,
        tiny_jobset_factory,
        m=2,
        reps=kw.pop("reps", 5),
        seed=7,
        cache=str(cache_dir) if cache_dir else None,
        telemetry=telemetry,
        **kw,
    )


def cell_file_hashes(cache_dir):
    files = sorted(Path(cache_dir).glob("cells/*.json"))
    assert files, "sweep cache produced no cell files"
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def assert_same_result(a, b):
    assert [(c.params, c.metrics) for c in a.cells] == [
        (c.params, c.metrics) for c in b.cells
    ]


def batch_events(tel):
    return [e for e in tel.events if e["event"].startswith("batch.")]


def test_batched_sweep_identical_and_cache_bytes_equal(monkeypatch, tmp_path):
    tel = Telemetry()
    batched = run_sweep(
        monkeypatch, True, cache_dir=tmp_path / "b", telemetry=tel
    )
    serial = run_sweep(monkeypatch, False, cache_dir=tmp_path / "s")
    assert_same_result(batched, serial)

    b_hashes = cell_file_hashes(tmp_path / "b")
    s_hashes = cell_file_hashes(tmp_path / "s")
    assert b_hashes == s_hashes

    events = batch_events(tel)
    kinds = [e["event"] for e in events]
    assert kinds.count("batch.start") == 4  # one per fused cell
    assert kinds.count("batch.flush") == 4
    assert kinds[-1] == "batch.done"
    done = events[-1]
    assert done["n_batches"] == 4
    assert done["n_batched_reps"] == 20
    assert done["n_unbatched"] == 0


def test_disabled_env_emits_no_batch_events(monkeypatch):
    tel = Telemetry()
    run_sweep(monkeypatch, False, telemetry=tel)
    assert batch_events(tel) == []


def test_below_threshold_runs_per_rep(monkeypatch):
    tel = Telemetry()
    assert sweep_mod._BATCH_MIN_REPS == 4
    run_sweep(monkeypatch, True, telemetry=tel, reps=3)  # < floor 4
    assert batch_events(tel) == []


def test_cell_timeout_disables_batching(monkeypatch):
    tel = Telemetry()
    timed = run_sweep(monkeypatch, True, telemetry=tel, cell_timeout=120.0)
    assert batch_events(tel) == []
    plain = run_sweep(monkeypatch, True)
    assert_same_result(timed, plain)


def test_ineligible_scheduler_runs_per_rep():
    tel = Telemetry()
    sweep = grid_sweep(
        lambda k: WeightedWorkStealingScheduler(k=k),
        {"k": [0, 2]},
        tiny_jobset_factory,
        m=2,
        reps=4,
        seed=7,
        telemetry=tel,
    )
    assert batch_events(tel) == []
    assert len(sweep.cells) == 2


def test_resume_from_serial_cache(monkeypatch, tmp_path):
    """A batched sweep resumes cleanly over serially-written cells."""
    serial = run_sweep(
        monkeypatch, False, cache_dir=tmp_path / "c", resume=True
    )
    batched = run_sweep(
        monkeypatch, True, cache_dir=tmp_path / "c", resume=True
    )
    assert_same_result(serial, batched)


def test_figure_runner_batched_matches_serial(monkeypatch):
    from repro.experiments.runner import run_figure2_cell

    scale = ExperimentScale(n_jobs=40, reps=4)
    batched = run_figure2_cell(FIG2A, qps=500.0, scale=scale, seed=3)
    per_rep_only(monkeypatch)
    serial = run_figure2_cell(FIG2A, qps=500.0, scale=scale, seed=3)
    assert batched == serial
