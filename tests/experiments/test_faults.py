"""Chaos suite: the fault-tolerant executor under deterministic faults.

The ISSUE-4 robustness layer makes strong claims -- crashed workers are
respawned, hung cells are deadline-killed and retried, every recovery
path yields a SweepResult *bit-identical* to an undisturbed serial run,
and no process of a sweep creates a shared-memory segment.  This suite
proves each claim by planting deterministic faults
(:mod:`repro.testing.faults`) at every pipeline stage and comparing the
disturbed run against a clean reference, float for float.

Also pinned here: the fault-spec grammar, exactly-N claim semantics
across processes, the deterministic (jitter-free) backoff schedule, and
the ``tools/bench_gate.py --telemetry`` contract (recovered faults
pass, ``fault.giveup`` fails).
"""

from __future__ import annotations

import functools
import pickle
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

import repro
from repro.core.work_stealing import WorkStealingScheduler
from repro.errors import (
    CellCrashedError,
    CellTimeoutError,
    FaultInjected,
    ReproError,
)
from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentScale, Figure2Config
from repro.experiments.parallel import (
    BACKOFF_CAP,
    backoff_schedule,
    _backoff_delay,
)
from repro.experiments.runner import _run_figure2_cells as run_figure2_cells
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.obs import Telemetry, audit_events
from repro.testing.faults import (
    FAULTS_DIR_ENV,
    FAULTS_ENV,
    FaultSpec,
    clear_fault_state,
    maybe_inject,
    parse_faults,
)
from repro.workloads.distributions import ExponentialDistribution
from repro.workloads.generator import WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------


@pytest.fixture
def faults(monkeypatch, tmp_path):
    """Arm fault clauses with a fresh cross-process claim directory.

    Returns an ``arm(spec)`` callable; everything (env, claims, parse
    cache) is reset on teardown so scenarios never bleed into each
    other.  Backoff is shrunk so recovery detours take milliseconds.
    """
    monkeypatch.setenv(FAULTS_DIR_ENV, str(tmp_path / "claims"))
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    clear_fault_state()

    def arm(spec: str) -> None:
        monkeypatch.setenv(FAULTS_ENV, spec)
        clear_fault_state()

    yield arm
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_fault_state()


def small_spec() -> WorkloadSpec:
    return WorkloadSpec(
        distribution=ExponentialDistribution(mean_ms=6.0),
        qps=200.0,
        n_jobs=16,
        m=4,
    )


def reference_cells():
    """The undisturbed serial ground truth (3 grid points x 2 reps)."""
    table = grid_sweep(
        WorkStealingScheduler,
        {"k": [0, 2, 4]},
        small_spec(),
        m=4,
        reps=2,
        seed=11,
        metrics=("max_flow", "mean_flow"),
        max_workers=1,
    )
    return [c.metrics for c in table.cells]


def disturbed_cells(**kwargs):
    """The same sweep through the repro.sweep() facade, on a real pool."""
    defaults = dict(
        m=4, reps=2, seed=11, metrics=("max_flow", "mean_flow"),
        max_workers=2, retries=3,
    )
    defaults.update(kwargs)
    table = repro.sweep(
        WorkStealingScheduler, {"k": [0, 2, 4]}, small_spec(), **defaults
    )
    return [c.metrics for c in table.cells]


#: A six-cell Figure 2 panel: one task per QPS cell, as many tasks as
#: the grid sweep above has (cell, rep) pairs.
CHAOS_PANEL = Figure2Config(
    name="chaos",
    distribution_factory=functools.partial(
        ExponentialDistribution, mean_ms=6.0
    ),
    qps_values=(100.0, 150.0, 200.0, 250.0, 300.0, 350.0),
    m=4,
    k=2,
    target_chunks=8,
)


def panel_cells(**kwargs):
    """The Figure 2 counterpart of :func:`disturbed_cells`."""
    defaults = dict(seed=11, max_workers=2, retries=3)
    defaults.update(kwargs)
    return run_figure2_cells(
        CHAOS_PANEL, CHAOS_PANEL.qps_values, ExperimentScale(16, 1),
        **defaults,
    )


#: Entry point name -> (disturbed run, undisturbed serial reference).
ENTRY_POINTS = {
    "grid": (disturbed_cells, reference_cells),
    "fig2": (panel_cells, lambda: panel_cells(max_workers=1)),
}


def shm_entries():
    """Names of live POSIX shared-memory segments (None off-Linux)."""
    d = Path("/dev/shm")
    if not d.is_dir():
        return None
    return {p.name for p in d.glob("psm_*")}


@pytest.fixture
def no_shm(monkeypatch):
    """No process of the test may create a shared-memory segment.

    Creation raises, in the parent and in the pool workers it forks, so
    a sweep that tries fails instead of cleaning up after itself; and
    ``/dev/shm`` must hold no new ``psm_*`` entry afterwards.
    """
    real_init = shared_memory.SharedMemory.__init__

    def refuse(self, name=None, create=False, size=0, **kwargs):
        if create:
            raise AssertionError("a sweep created a shared-memory segment")
        real_init(self, name, create, size, **kwargs)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", refuse)
    before = shm_entries()
    yield
    after = shm_entries()
    if before is not None and after is not None:
        assert after - before == set()


def events_of(tel, kind):
    return tel.of_kind(kind)


# ----------------------------------------------------------------------
# Fault-spec grammar and claim semantics
# ----------------------------------------------------------------------


class TestFaultSpecs:
    def test_parse_full_grammar(self):
        specs = parse_faults(
            "kill:cell:index=2;hang:cell:index=4:seconds=5;raise:cache:times=3"
        )
        assert specs == [
            FaultSpec("kill", "cell", index=2),
            FaultSpec("hang", "cell", index=4, seconds=5.0),
            FaultSpec("raise", "cache", times=3),
        ]

    def test_parse_defaults(self):
        (spec,) = parse_faults("raise:dispatch")
        assert spec.index is None
        assert spec.times == 1
        assert spec.seconds == 30.0

    @pytest.mark.parametrize(
        "bad",
        [
            "kill",  # no stage
            "explode:cell",  # unknown action
            "kill:nowhere",  # unknown stage
            "raise:publish",  # no publish stage: instances are not published
            "kill:cell:bogus=1",  # unknown option
            "kill:cell:index=x",  # non-numeric
            "kill:cell:index",  # no '='
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ReproError):
            parse_faults(bad)

    def test_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        maybe_inject("cell", index=0)  # no-op, must not raise

    def test_claims_fire_exactly_n_times(self, faults):
        faults("raise:cell:times=2")
        fired = 0
        for _ in range(6):
            try:
                maybe_inject("cell", index=0)
            except FaultInjected:
                fired += 1
        assert fired == 2
        # Re-arming resets the claim markers.
        clear_fault_state()
        with pytest.raises(FaultInjected):
            maybe_inject("cell", index=0)

    def test_index_targeting(self, faults):
        faults("raise:cell:index=3")
        maybe_inject("cell", index=2)  # wrong index: no fire
        maybe_inject("dispatch", index=3)  # wrong stage: no fire
        with pytest.raises(FaultInjected) as info:
            maybe_inject("cell", index=3)
        assert info.value.stage == "cell"

    def test_fault_injected_pickles(self):
        exc = FaultInjected("cell", "clause 0 index=2")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, FaultInjected)
        assert clone.stage == "cell"
        assert clone.detail == "clause 0 index=2"


# ----------------------------------------------------------------------
# Deterministic backoff
# ----------------------------------------------------------------------


class TestBackoff:
    def test_schedule_is_pure_exponential(self):
        assert backoff_schedule(3, base=0.05) == [0.05, 0.1, 0.2]

    def test_schedule_caps(self):
        assert backoff_schedule(4, base=0.5) == [0.5, 1.0, 2.0, 2.0]
        assert max(backoff_schedule(20, base=0.5)) == BACKOFF_CAP

    def test_schedule_deterministic_no_jitter(self):
        a = backoff_schedule(6, base=0.03)
        b = backoff_schedule(6, base=0.03)
        assert a == b  # exact float equality: there is no jitter

    def test_delay_matches_schedule(self):
        schedule = backoff_schedule(5, base=0.07)
        for attempt in range(1, 6):
            assert _backoff_delay(attempt, base=0.07) == schedule[attempt - 1]

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
        assert backoff_schedule(2) == [0.5, 1.0]

    def test_zero_retries_empty_schedule(self):
        assert backoff_schedule(0, base=0.05) == []


# ----------------------------------------------------------------------
# Recovery paths are bit-identical to the undisturbed serial run
# ----------------------------------------------------------------------


class TestRecoveryBitIdentical:
    def test_raise_in_cell_retried_in_pool(self, faults):
        faults("raise:cell:index=2")
        tel = Telemetry()
        assert disturbed_cells(telemetry=tel) == reference_cells()
        assert len(events_of(tel, "fault.cell_error")) == 1
        assert len(events_of(tel, "fault.retry")) >= 1
        assert events_of(tel, "fault.giveup") == []
        assert audit_events(tel.events) == []

    def test_raise_in_cell_retried_serially(self, faults):
        faults("raise:cell:index=2")
        tel = Telemetry()
        assert (
            disturbed_cells(max_workers=1, telemetry=tel)
            == reference_cells()
        )
        assert len(events_of(tel, "fault.cell_error")) == 1
        assert len(events_of(tel, "dispatch.serial")) == 1

    def test_raise_at_dispatch_retried(self, faults):
        faults("raise:dispatch:index=1")
        tel = Telemetry()
        assert disturbed_cells(telemetry=tel) == reference_cells()
        assert len(events_of(tel, "fault.cell_error")) == 1
        assert events_of(tel, "fault.giveup") == []

    def test_killed_worker_respawned(self, faults, no_shm):
        faults("kill:cell:index=1")
        tel = Telemetry()
        assert disturbed_cells(telemetry=tel) == reference_cells()
        assert len(events_of(tel, "fault.crash")) >= 1
        assert len(events_of(tel, "pool.respawn")) >= 1
        assert events_of(tel, "fault.giveup") == []
        assert audit_events(tel.events) == []

    def test_hung_cell_deadline_killed_and_retried(self, faults, no_shm):
        faults("hang:cell:index=2:seconds=20")
        tel = Telemetry()
        assert (
            disturbed_cells(telemetry=tel, cell_timeout=1.5)
            == reference_cells()
        )
        assert len(events_of(tel, "fault.timeout")) >= 1
        (timeout_event,) = events_of(tel, "fault.timeout")[:1]
        assert timeout_event["timeout_s"] == 1.5
        assert len(events_of(tel, "pool.respawn")) >= 1
        assert events_of(tel, "fault.giveup") == []

    def test_acceptance_kill_plus_hang(self, faults, no_shm):
        """The ISSUE-4 acceptance scenario: one worker killed mid-sweep
        AND another hung past its deadline; the sweep must complete via
        retry + respawn with bit-identical results, no shared-memory
        segment, and telemetry recording every recovery action."""
        # The kill's respawn tears down the whole pool, so it can end a
        # hang that already started before its deadline.  A second hang
        # then catches the retry: the deadline always fires at least once.
        faults("kill:cell:index=1;hang:cell:index=3:seconds=20:times=2")
        tel = Telemetry()
        assert (
            disturbed_cells(telemetry=tel, cell_timeout=2.0, retries=4)
            == reference_cells()
        )
        assert len(events_of(tel, "fault.crash")) >= 1
        assert len(events_of(tel, "fault.timeout")) >= 1
        assert len(events_of(tel, "fault.retry")) >= 2
        assert len(events_of(tel, "pool.respawn")) >= 2
        assert events_of(tel, "fault.giveup") == []
        assert audit_events(tel.events) == []

    def test_cache_write_fault_degrades_resumability_only(
        self, faults, tmp_path
    ):
        faults("raise:cache:times=1")
        tel = Telemetry()
        cache = SweepCache(tmp_path / "cache")
        assert (
            disturbed_cells(
                max_workers=1, telemetry=tel, cache=cache
            )
            == reference_cells()
        )
        assert len(events_of(tel, "cache.store_failed")) == 1
        # The other five cells checkpointed fine.
        assert cache.stats()["cells"] == 5


# ----------------------------------------------------------------------
# Budget exhaustion, checkpointing, resume
# ----------------------------------------------------------------------


class TestExhaustionAndResume:
    def test_persistent_crash_exhausts_budget(self, faults, tmp_path):
        faults("kill:cell:index=0:times=6")
        log = tmp_path / "events.jsonl"
        with Telemetry(log) as tel:
            with pytest.raises(CellCrashedError):
                disturbed_cells(retries=0, telemetry=tel)
            assert len(events_of(tel, "fault.giveup")) >= 1
        # bench_gate refuses a run whose telemetry shows a giveup ...
        gate = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "bench_gate.py"),
                "--telemetry",
                str(log),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert gate.returncode == 1
        assert "fault.giveup" in gate.stdout

    def test_bench_gate_passes_recovered_faults(self, faults, tmp_path):
        faults("kill:cell:index=1")
        log = tmp_path / "events.jsonl"
        with Telemetry(log) as tel:
            assert disturbed_cells(telemetry=tel) == reference_cells()
        gate = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "bench_gate.py"),
                "--telemetry",
                str(log),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert gate.returncode == 0, gate.stdout
        assert "no unrecovered faults" in gate.stdout

    def test_persistent_timeout_raises_typed_error(self, faults):
        faults("hang:cell:index=0:times=6")
        with pytest.raises(CellTimeoutError) as info:
            disturbed_cells(cell_timeout=1.0, retries=1)
        assert info.value.timeout == 1.0
        assert info.value.attempts == 2

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_aborted_sweep_resumes_losslessly(self, faults, tmp_path, entry):
        """Cells checkpointed before a fatal fault survive it: the rerun
        serves them from cache and the final table is bit-identical."""
        run, reference = ENTRY_POINTS[entry]
        cache = SweepCache(tmp_path / "cache")
        faults("raise:cell:index=3:times=10")
        with pytest.raises(CellCrashedError):
            run(max_workers=1, retries=1, cache=cache, resume=True)
        # The serial loop completed (and checkpointed) cells 0..2
        # before cell 3 exhausted its budget.
        assert cache.stats()["cells"] == 3

        faults("")  # disarm; rerun clean with resume
        tel = Telemetry()
        assert (
            run(max_workers=1, cache=cache, resume=True, telemetry=tel)
            == reference()
        )
        assert len(events_of(tel, "cell.cached")) == 3
        assert len(events_of(tel, "cell.run")) == 3
        assert audit_events(tel.events) == []

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_checkpoints_flush_during_the_batch(self, faults, tmp_path, entry):
        """on_result fires per completion, not at batch end: by the time
        the sweep returns, every cell is already on disk."""
        run, reference = ENTRY_POINTS[entry]
        cache = SweepCache(tmp_path / "cache")
        tel = Telemetry()
        assert run(cache=cache, telemetry=tel) == reference()
        assert cache.stats()["cells"] == 6
        # A fresh resume run computes nothing.
        tel2 = Telemetry()
        assert run(cache=cache, resume=True, telemetry=tel2) == reference()
        assert events_of(tel2, "cell.run") == []
        assert len(events_of(tel2, "cell.cached")) == 6
