"""The run contract: every engine entry point refuses the same bad machine.

Each entry point checks its machine (``m`` an integer >= 1, ``speed``
finite and > 0) and, where it takes them, the work-stealing knobs
(``k`` an integer >= 0, ``steals_per_tick`` an integer >= 1, a known
``admission`` and ``victim_policy``) through
:func:`repro.sim.engine._check_machine` and
:func:`repro.sim.engine._check_work_stealing`.  Every bad value must
raise the same :class:`ValueError`, with the same message, whether the
compiled kernels are available or not.

A NaN or infinite speed once made the centralized event loop (FIFO,
BWF, LAS) spin forever, and an infinite one the speedup-curve engines,
so those cases run in a subprocess with a timeout: a regression fails
the test instead of hanging the suite.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

import numpy as np
import pytest

import repro
from repro.core.bwf import BwfScheduler
from repro.core.dynamic import LeastAttainedServiceScheduler
from repro.core.fifo import FifoScheduler
from repro.core.opt import OptLowerBound
from repro.core.work_stealing import WorkStealingScheduler
from repro.errors import SweepConfigError
from repro.sim import batch_engine, events
from repro.sim.batch_engine import run_batch
from repro.sim.engine import _run_work_stealing
from repro.sim.stream_engine import _run_stream
from repro.speedup.model import Phase, Sequential, SpeedupJob, SpeedupJobSet
from repro.workloads.distributions import ExponentialDistribution
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamSpec

REPO_ROOT = Path(__file__).resolve().parents[2]

SPEC = WorkloadSpec(
    ExponentialDistribution(mean_ms=2.0), qps=400.0, n_jobs=12, m=4
)
JOBS = SPEC.build(0)
STREAM = StreamSpec(SPEC, chunk_jobs=5)
SPEEDUP_JOBS = SpeedupJobSet(
    [SpeedupJob(job_id=0, phases=(Phase(2.0, Sequential()),), arrival=0.0)]
)

WS_KNOBS = ("k", "steals_per_tick", "victim_policy", "admission")


def _ws_scheduler(m: Any, speed: Any, **knobs: Any) -> Any:
    return WorkStealingScheduler(**knobs).run(JOBS, m, speed=speed, seed=0)


def _speedup(engine: str) -> Callable[..., Any]:
    def run(m: Any, speed: Any) -> Any:
        return repro.run(engine, SPEEDUP_JOBS, m=m, speed=speed)

    return run


#: Entry point -> (runner(m, speed, **knobs), work-stealing knobs taken).
ENTRY_POINTS: Dict[str, Tuple[Callable[..., Any], Tuple[str, ...]]] = {
    "reference": (
        lambda m, speed, **kw: _run_work_stealing(
            JOBS, m, speed=speed, seed=0, **kw
        ),
        WS_KNOBS,
    ),
    "flat": (
        lambda m, speed, **kw: repro.run(
            "flat", JOBS, m=m, speed=speed, seed=0, **kw
        ),
        WS_KNOBS,
    ),
    "batch": (
        lambda m, speed, **kw: run_batch(
            [JOBS, JOBS], m, speed=speed, seeds=[0, 1], **kw
        ),
        WS_KNOBS,
    ),
    "scheduler": (_ws_scheduler, WS_KNOBS),
    "stream": (
        lambda m, speed, **kw: _run_stream(
            STREAM, m, speed=speed, seed=0, **kw
        ),
        ("k", "steals_per_tick"),
    ),
    "fifo": (lambda m, speed: FifoScheduler().run(JOBS, m, speed=speed), ()),
    "bwf": (lambda m, speed: BwfScheduler().run(JOBS, m, speed=speed), ()),
    "las": (
        lambda m, speed: LeastAttainedServiceScheduler().run(
            JOBS, m, speed=speed
        ),
        (),
    ),
    "opt": (lambda m, speed: OptLowerBound().run(JOBS, m, speed=speed), ()),
    "speedup-fifo": (_speedup("speedup-fifo"), ()),
    "speedup-equi": (_speedup("speedup-equi"), ()),
}

#: (knob, bad value, a substring the message must hold).
BAD_VALUES = (
    ("m", 0, "m >= 1"),
    ("m", 2.5, "m >= 1"),
    ("speed", 0, "speed"),
    ("speed", 0.0, "speed"),
    ("speed", -1, "speed"),
    ("speed", math.nan, "speed"),
    ("speed", math.inf, "speed"),
    ("k", -1, "k >= 0"),
    ("k", 2.5, "k >= 0"),
    ("steals_per_tick", 0, "steals_per_tick"),
    ("admission", "lifo", "admission"),
    ("victim_policy", "bogus", "victim policy"),
)

#: The machine's unit in each entry point's message.
UNITS = {
    "reference": "worker",
    "flat": "worker",
    "batch": "worker",
    "scheduler": "worker",
    "stream": "worker",
}

#: Entry points whose event loop once spun on a non-finite speed.
SPINNERS = ("fifo", "bwf", "las", "speedup-fifo", "speedup-equi")


def _cases(subprocess_only: bool):
    for entry, (_, knobs) in ENTRY_POINTS.items():
        for knob, value, needle in BAD_VALUES:
            if knob not in ("m", "speed") and knob not in knobs:
                continue
            spins = (
                entry in SPINNERS
                and knob == "speed"
                and not math.isfinite(value)
            )
            if spins == subprocess_only:
                yield pytest.param(
                    entry, knob, value, needle, id=f"{entry}-{knob}={value}"
                )


def outcome(entry: str, knob: str, value: Any) -> Tuple[str, str]:
    """The exception type and message ``entry`` raises for one bad value."""
    runner, _ = ENTRY_POINTS[entry]
    kwargs: Dict[str, Any] = {"m": 4, "speed": 1.0}
    kwargs[knob] = value
    try:
        runner(**kwargs)
    except Exception as exc:  # the type is part of the contract
        return type(exc).__name__, str(exc)
    return "no error", ""


def outcome_without_kernels(
    entry: str, knob: str, value: Any, patch: Any
) -> Tuple[str, str]:
    """:func:`outcome` as on a host where no kernel can be built."""
    patch.setattr(batch_engine, "resolve_batch_kernel", lambda: None)
    patch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)
    patch.setattr(events, "resolve_centralized_kernel", lambda: None)
    return outcome(entry, knob, value)


def _assert_contract(entry, needle, with_kernel, without_kernel) -> None:
    assert with_kernel[0] == "ValueError", with_kernel
    assert needle in with_kernel[1]
    if needle == "m >= 1":
        assert UNITS.get(entry, "processor") in with_kernel[1]
    assert without_kernel == with_kernel


@pytest.mark.parametrize("entry,knob,value,needle", _cases(False))
def test_bad_value_raises_the_contract_error(
    entry, knob, value, needle, monkeypatch
):
    with_kernel = outcome(entry, knob, value)
    with monkeypatch.context() as patch:
        without_kernel = outcome_without_kernels(entry, knob, value, patch)
    _assert_contract(entry, needle, with_kernel, without_kernel)


@pytest.mark.parametrize(
    "knob,value", [(knob, value) for knob, value, _ in BAD_VALUES]
)
def test_work_stealing_entry_points_agree(knob, value):
    """The reference engine, the kernel and the stream give one message."""
    outcomes = {
        outcome(entry, knob, value)
        for entry in ("reference", "batch", "scheduler", "stream")
        if knob in ("m", "speed") or knob in ENTRY_POINTS[entry][1]
    }
    assert len(outcomes) == 1, outcomes


_SUBPROCESS_SCRIPT = """
import json, sys
import pytest
from tests.sim.test_run_contract import outcome, outcome_without_kernels
entry, knob, value = sys.argv[1], sys.argv[2], float(sys.argv[3])
with_kernel = outcome(entry, knob, value)
with pytest.MonkeyPatch.context() as patch:
    without_kernel = outcome_without_kernels(entry, knob, value, patch)
print(json.dumps([with_kernel, without_kernel]))
"""


@pytest.mark.parametrize("entry,knob,value,needle", _cases(True))
def test_non_finite_speed_fails_fast_on_event_loops(
    entry, knob, value, needle
):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, entry, knob, repr(value)],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    with_kernel, without_kernel = map(
        tuple, json.loads(proc.stdout.splitlines()[-1])
    )
    _assert_contract(entry, needle, with_kernel, without_kernel)


#: The harness facades: (name, call(workload, **machine)).
FACADES = {
    "sweep": lambda wl, **kw: repro.sweep("flat", {"k": [0]}, wl, **kw),
    "search": lambda wl, **kw: repro.search(
        "flat", {"k": [0, 4]}, wl, **kw
    ),
    "threshold": lambda wl, **kw: repro.search(
        "flat", {"k": [0, 4]}, wl, budget=1e9, **kw
    ),
    "ablate": lambda wl, **kw: repro.ablate(
        "flat", {}, {"d": {"k": 4}}, wl, **kw
    ),
}


@pytest.mark.parametrize("facade", sorted(FACADES))
@pytest.mark.parametrize(
    "knob,value,needle",
    [case for case in BAD_VALUES if case[0] in ("m", "speed")],
)
def test_facades_refuse_a_bad_machine_before_building(
    facade, knob, value, needle, tmp_path
):
    built = []

    def workload(seed):
        built.append(seed)
        return JOBS

    machine = {"m": 4, "speed": 1.0, knob: value}
    with pytest.raises(SweepConfigError, match=needle):
        FACADES[facade](workload, cache=tmp_path, **machine)
    assert built == []


@pytest.mark.parametrize(
    "override,needle",
    [
        ({"speed": math.nan}, "speed"),
        ({"speed": math.inf}, "speed"),
        ({"augmentation": 0.0}, "speed"),
        ({"m": 2.5}, "m >= 1"),
        ({"num_workers": 0}, "m >= 1"),
    ],
)
def test_ablate_refuses_a_bad_machine_override(override, needle, tmp_path):
    with pytest.raises(SweepConfigError, match=f"delta 'd': .*{needle}"):
        repro.ablate("flat", {}, {"d": override}, SPEC, m=4, cache=tmp_path)


def test_ablate_machine_override_takes_what_the_call_takes(tmp_path):
    # A numpy integer is a valid machine size on every path, so a delta
    # may give one just as the call-level m may.
    report = repro.ablate(
        "flat", {}, {"d": {"m": np.int64(2)}}, SPEC, m=np.int64(4),
        cache=tmp_path, max_workers=1,
    )
    assert report["d"].m == 2


def test_threshold_refuses_a_non_finite_speed_candidate(tmp_path):
    # One message names every candidate outside the contract.
    with pytest.raises(
        SweepConfigError,
        match=r"finite positive numbers, got \[-1\.0, 0\.0, inf\]",
    ):
        repro.search(
            "flat", {"speed": [-1.0, 0.0, 1.0, math.inf]}, SPEC, m=4,
            budget=1e9, cache=tmp_path,
        )
