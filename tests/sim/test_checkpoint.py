"""Checkpoint durability and kill+resume bit-identity (ISSUE 7).

Two layers are pinned here.  The file layer
(:mod:`repro.sim.checkpoint`): atomic writes, integrity sidecars,
schema/config guards, bounded retention.  The engine layer: a streaming
run killed at an arbitrary checkpoint boundary (deterministically, via
``REPRO_FAULTS="kill:checkpoint:index=K"``) and resumed with
``resume=True`` must reproduce the uninterrupted run float for float --
max flow, full stats, P^2 sketches, utilization integral, everything.
One driver writes every checkpoint, whichever step (the compiled kernel
or the Python step) runs the tick loop and whichever update (compiled
or Python) runs the P^2 sketches, so a checkpoint written on either
path resumes on the other.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CacheCorruptError, SweepConfigError
from repro.sim import _cext, batch_engine
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    checkpoint_path,
    config_digest,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.stream_engine import _run_stream
from repro.testing.faults import KILL_EXIT_CODE
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamSpec
from tests.sim.test_batch_engine import _reset_cext_resolution

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_stream(n_jobs=3000, chunk_jobs=250) -> StreamSpec:
    # Moderate load: checkpoints trigger at release boundaries, so
    # completions must keep pace with arrivals for several to fire.
    spec = WorkloadSpec(
        BingDistribution(), qps=300.0, n_jobs=n_jobs, m=4, target_chunks=4
    )
    return StreamSpec(spec, chunk_jobs=chunk_jobs)


# ----------------------------------------------------------------------
# File layer
# ----------------------------------------------------------------------


ARRAYS = {
    "a": np.arange(10, dtype=np.int64),
    "b": np.linspace(0.0, 1.0, 7),
}
STATE = {"t": 123, "rng": {"state": [1, 2, 3]}, "nested": {"x": 1.5}}


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = save_checkpoint(tmp_path, 3, ARRAYS, STATE, "cfg")
        assert path == checkpoint_path(tmp_path, 3)
        arrays, state = load_checkpoint(path, "cfg")
        np.testing.assert_array_equal(arrays["a"], ARRAYS["a"])
        np.testing.assert_array_equal(arrays["b"], ARRAYS["b"])
        assert state["t"] == 123 and state["nested"] == {"x": 1.5}
        assert state["schema"] == CHECKPOINT_SCHEMA
        assert state["index"] == 3
        assert state["config_sha"] == config_digest("cfg")

    def test_reserved_array_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(tmp_path, 0, {"__state__": ARRAYS["a"]}, {}, "c")

    def test_listing_orders_and_latest(self, tmp_path):
        for i in (2, 0, 1):
            save_checkpoint(tmp_path, i, ARRAYS, STATE, "cfg", keep=0)
        found = list_checkpoints(tmp_path)
        assert [p.name for p in found] == [
            "ckpt-00000000.npz", "ckpt-00000001.npz", "ckpt-00000002.npz"
        ]
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 2)
        assert latest_checkpoint(tmp_path / "missing") is None

    def test_retention_keeps_trailing_k(self, tmp_path):
        for i in range(6):
            save_checkpoint(tmp_path, i, ARRAYS, STATE, "cfg", keep=3)
        kept = [p.name for p in list_checkpoints(tmp_path)]
        assert kept == [
            "ckpt-00000003.npz", "ckpt-00000004.npz", "ckpt-00000005.npz"
        ]
        # Sidecars of evicted checkpoints are gone too.
        assert not list(tmp_path.glob("ckpt-00000000.*"))


class TestIntegrityGuards:
    def test_missing_sidecar_is_invisible_and_fails_load(self, tmp_path):
        path = save_checkpoint(tmp_path, 0, ARRAYS, STATE, "cfg")
        path.with_name(path.name + ".sha256").unlink()
        assert list_checkpoints(tmp_path) == []
        assert latest_checkpoint(tmp_path) is None
        with pytest.raises(CacheCorruptError, match="sidecar"):
            load_checkpoint(path, "cfg")

    def test_corrupted_payload_detected(self, tmp_path):
        path = save_checkpoint(tmp_path, 0, ARRAYS, STATE, "cfg")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheCorruptError, match="hash"):
            load_checkpoint(path, "cfg")

    def test_config_mismatch_refused(self, tmp_path):
        path = save_checkpoint(tmp_path, 0, ARRAYS, STATE, "cfg-m4")
        with pytest.raises(SweepConfigError, match="configuration"):
            load_checkpoint(path, "cfg-m8")

    def test_foreign_schema_refused(self, tmp_path):
        path = save_checkpoint(tmp_path, 0, ARRAYS, STATE, "cfg")
        arrays, state = load_checkpoint(path, "cfg")
        state["schema"] = "someone-elses-format/9"
        blob = np.frombuffer(json.dumps(state).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays, **{"__state__": blob})
        sidecar = path.with_name(path.name + ".sha256")
        import hashlib

        sidecar.write_text(hashlib.sha256(path.read_bytes()).hexdigest())
        with pytest.raises(CacheCorruptError, match="schema"):
            load_checkpoint(path, "cfg")


# ----------------------------------------------------------------------
# Engine layer: periodic saves during a streaming run
# ----------------------------------------------------------------------


class TestEngineCheckpointing:
    def test_checkpoints_written_and_bounded(self, tmp_path):
        stream = make_stream()
        sr = _run_stream(
            stream, 4, k=4, seed=11,
            checkpoint_dir=tmp_path, checkpoint_every=500,
            keep_checkpoints=2,
        )
        assert sr.checkpoints_written >= 3
        assert len(list_checkpoints(tmp_path)) <= 2
        assert list(tmp_path.glob("manifests/manifest-*.json"))

    def test_checkpointing_does_not_perturb_results(self, tmp_path):
        stream = make_stream(n_jobs=1500, chunk_jobs=200)
        plain = _run_stream(stream, 4, k=4, seed=2, utilization_window=256)
        ckpt = _run_stream(
            stream, 4, k=4, seed=2, utilization_window=256,
            checkpoint_dir=tmp_path, checkpoint_every=300,
        )
        assert ckpt.max_flow == plain.max_flow
        assert ckpt.stats.as_dict() == plain.stats.as_dict()
        assert ckpt.quantiles == plain.quantiles

    def test_resume_with_no_checkpoint_starts_fresh(self, tmp_path):
        stream = make_stream(n_jobs=600, chunk_jobs=200)
        sr = _run_stream(
            stream, 4, k=4, seed=5,
            checkpoint_dir=tmp_path, checkpoint_every=10**9, resume=True,
        )
        assert sr.resumed_from is None
        assert sr.n_jobs == 600

    def test_resume_refuses_foreign_config(self, tmp_path):
        stream = make_stream(n_jobs=1200, chunk_jobs=200)
        _run_stream(
            stream, 4, k=4, seed=7,
            checkpoint_dir=tmp_path, checkpoint_every=300,
        )
        assert latest_checkpoint(tmp_path) is not None
        with pytest.raises(SweepConfigError, match="configuration"):
            _run_stream(
                stream, 8, k=4, seed=7,  # m changed
                checkpoint_dir=tmp_path, resume=True,
            )


# ----------------------------------------------------------------------
# Kill + resume bit-identity (the headline durability claim)
# ----------------------------------------------------------------------

_KILL_SCRIPT = """
import sys
from repro.sim import batch_engine
from repro.sim.stream_engine import _run_stream
from tests.sim.test_checkpoint import make_stream

if sys.argv[4] == "python":
    batch_engine.resolve_batch_kernel = lambda: None
    batch_engine._SLOW_PATH_WARNED = True
util = None if sys.argv[3] == "none" else int(sys.argv[3])
_run_stream(
    make_stream(), 4, k=4, seed=int(sys.argv[2]),
    quantiles=(0.5, 0.9, 0.99), utilization_window=util,
    checkpoint_dir=sys.argv[1], checkpoint_every=500,
)
"""

#: StreamResult.summary() keys that legitimately differ between a
#: resumed run and an uninterrupted one: bookkeeping about *how* the
#: run executed (saves force a compaction; a resumed cursor only counts
#: post-resume segments), never *what* it computed.
_RESUME_ONLY = {
    "checkpoints_written",
    "resumed_from",
    "peak_live_jobs",
    "compactions",
    "segments_generated",
}


def _kill_and_resume(
    tmp_path, monkeypatch, kill_index, util=None, kill_on="cext",
    resume_on="cext",
):
    """Kill a run at checkpoint ``kill_index``, resume it, compare.

    ``kill_on`` / ``resume_on`` pick the path of the killed subprocess
    and of the in-process resume: ``"cext"`` (the compiled kernel, when
    the configuration allows it), ``"python"`` (the Python step, with
    the compiled P^2 update) or ``"nokernel"`` (no compiler and an empty
    kernel cache: the Python step and the Python P^2 update, as on a
    host where the kernel cannot be built).
    """
    seed = 31
    stream = make_stream()
    kw = dict(quantiles=(0.5, 0.9, 0.99), utilization_window=util)
    reference = _run_stream(stream, 4, k=4, seed=seed, **kw)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    env["REPRO_FAULTS"] = f"kill:checkpoint:index={kill_index}"
    no_kernel_cache = tmp_path / "no-kernel-cache"
    if kill_on == "nokernel":
        # The interpreter is started by absolute path; an empty PATH
        # hides cc/gcc/clang from it.
        env["PATH"] = str(tmp_path / "no-compiler")
        env["REPRO_CEXT_CACHE"] = str(no_kernel_cache)
    proc = subprocess.run(
        [
            sys.executable, "-c", _KILL_SCRIPT, str(tmp_path), str(seed),
            "none" if util is None else str(util), kill_on,
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == KILL_EXIT_CODE, proc.stderr
    assert ("kernel=unavailable" in proc.stderr) == (kill_on == "nokernel")
    assert latest_checkpoint(tmp_path) is not None

    warned = contextlib.nullcontext()
    if resume_on == "python":
        monkeypatch.setattr(
            batch_engine, "resolve_batch_kernel", lambda: None
        )
        monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)
    elif resume_on == "nokernel":
        _reset_cext_resolution(monkeypatch, no_kernel_cache)
        monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
        warned = pytest.warns(RuntimeWarning, match="kernel=unavailable")
    with warned:
        resumed = _run_stream(
            stream, 4, k=4, seed=seed,
            checkpoint_dir=tmp_path, checkpoint_every=500, resume=True,
            **kw,
        )
    assert resumed.resumed_from is not None
    assert 0 < resumed.resumed_from < stream.n_jobs

    ref, res = reference.summary(), resumed.summary()
    assert set(ref) | _RESUME_ONLY == set(res) | _RESUME_ONLY
    for key in set(ref) - _RESUME_ONLY:
        assert res[key] == ref[key], key
    return reference, resumed


class TestKillResume:
    @pytest.mark.parametrize("kill_index", [0, 2])
    def test_killed_run_resumes_float_identically(
        self, tmp_path, monkeypatch, kill_index
    ):
        # A sampler: the Python step on both sides.
        reference, resumed = _kill_and_resume(
            tmp_path, monkeypatch, kill_index, util=256
        )
        # The utilization integral survives the round-trip exactly too.
        assert (
            resumed.utilization.busy_integral
            == reference.utilization.busy_integral
        )

    @pytest.mark.parametrize("kill_index", [0, 2])
    def test_kernel_path_killed_run_resumes_float_identically(
        self, tmp_path, monkeypatch, kill_index
    ):
        _kill_and_resume(tmp_path, monkeypatch, kill_index)

    def test_kernel_checkpoint_resumes_on_python_path(
        self, tmp_path, monkeypatch
    ):
        _kill_and_resume(tmp_path, monkeypatch, 1, resume_on="python")

    def test_python_checkpoint_resumes_on_kernel_path(
        self, tmp_path, monkeypatch
    ):
        _kill_and_resume(tmp_path, monkeypatch, 1, kill_on="python")

    def test_compiled_checkpoint_resumes_without_the_kernel(
        self, tmp_path, monkeypatch
    ):
        """Sketch markers written by the compiled P^2 update resume in
        the Python update on a host where the kernel cannot be built."""
        _kill_and_resume(tmp_path, monkeypatch, 1, resume_on="nokernel")
        assert _cext.resolve_p2_kernel() is None

    def test_kernel_less_checkpoint_resumes_on_the_compiled_path(
        self, tmp_path, monkeypatch
    ):
        _kill_and_resume(tmp_path, monkeypatch, 1, kill_on="nokernel")
