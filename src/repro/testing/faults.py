"""Deterministic fault injection for the supervised experiment executor.

The robustness layer of :mod:`repro.experiments.parallel` claims to
survive crashed workers, hung cells, and failed cache writes while
keeping sweep results bit-identical.  Claims like that rot unless they
are exercised, so this module plants *deterministic* faults at the
pipeline's four stages -- task **dispatch**, the **cell** body, the cache
**store**, and a streaming run's **checkpoint** -- driven entirely by two
environment variables (hence visible to pool workers, which inherit the
parent's environment):

``REPRO_FAULTS``
    A semicolon-separated list of fault clauses::

        action:stage[:key=value]...

    * ``action`` -- ``kill`` (``os._exit(17)``, simulating a worker
      segfault/OOM-kill), ``hang`` (sleep ``seconds``, simulating a
      livelock; pair with a cell deadline), or ``raise`` (raise
      :class:`repro.errors.FaultInjected`, a retryable in-cell error).
    * ``stage`` -- ``dispatch``, ``cell``, ``cache`` or
      ``checkpoint`` (where the hook fires; see the call sites in
      :mod:`repro.experiments` and :mod:`repro.sim.stream_engine`).
    * options -- ``index=N`` restricts the clause to the task with
      global task index ``N`` (stages that carry one); ``times=K``
      injects at most ``K`` times (default 1); ``seconds=S`` sets the
      hang duration (default 30).

    Example -- kill the worker running task 2, once, and hang task 4
    for 30 s, once::

        REPRO_FAULTS="kill:cell:index=2;hang:cell:index=4:seconds=30"

``REPRO_FAULTS_DIR``
    A directory for cross-process claim markers.  ``times=K`` must hold
    across *all* processes of a sweep (the killed worker's replacement
    must not be killed again, or no retry budget would ever suffice),
    so each injection atomically claims a marker file
    (``O_CREAT | O_EXCL``) before acting.  Without a directory, claims
    fall back to per-process counters -- fine for single-process
    (serial) runs, not for pools.

``kill`` and ``hang`` are meant for *worker* stages (``dispatch``,
``cell``); planting them at the parent-side ``cache`` stage would kill
or stall the sweep parent itself, which is occasionally useful (resume
tests) but never what the retry layer can recover from.

Determinism: clauses select by coordinates (task index), never by
wall-clock or pid, and the claim protocol makes each clause fire exactly
``times`` times per fault directory.  A disturbed sweep therefore takes
one reproducible detour and must still produce the exact floats of an
undisturbed run -- which is precisely what the chaos suite asserts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultInjected, ReproError

__all__ = [
    "FAULTS_DIR_ENV",
    "FAULTS_ENV",
    "FaultSpec",
    "clear_fault_state",
    "faults_active",
    "maybe_inject",
    "parse_faults",
]

#: Environment variable holding the fault clauses.
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable naming the cross-process claim directory.
FAULTS_DIR_ENV = "REPRO_FAULTS_DIR"

#: Stages the experiment pipeline exposes hooks at.  ``checkpoint``
#: fires in the streaming engine right after a checkpoint file is
#: durably written (``index`` = checkpoint sequence number), so chaos
#: tests can kill a run at a known save point and assert that
#: ``resume=True`` reproduces the undisturbed result float-identically.
STAGES = ("dispatch", "cell", "cache", "checkpoint")

#: Actions a clause may request.
ACTIONS = ("kill", "hang", "raise")

#: Exit code used by ``kill`` so a post-mortem can tell an injected
#: death from a genuine crash.
KILL_EXIT_CODE = 17


@dataclass(frozen=True)
class FaultSpec:
    """One parsed clause of ``REPRO_FAULTS``."""

    action: str
    stage: str
    index: Optional[int] = None  #: restrict to this global task index
    times: int = 1  #: fire at most this many times (across processes)
    seconds: float = 30.0  #: hang duration for ``action="hang"``


def parse_faults(text: str) -> List[FaultSpec]:
    """Parse a ``REPRO_FAULTS`` value into :class:`FaultSpec` clauses.

    Raises :class:`repro.errors.ReproError` on malformed input: a chaos
    run with a typo'd spec must fail loudly, not silently run
    undisturbed and "pass".
    """
    specs: List[FaultSpec] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2:
            raise ReproError(
                f"malformed fault clause {clause!r}: want action:stage[:k=v]"
            )
        action, stage = parts[0].strip(), parts[1].strip()
        if action not in ACTIONS:
            raise ReproError(
                f"unknown fault action {action!r} (expected one of {ACTIONS})"
            )
        if stage not in STAGES:
            raise ReproError(
                f"unknown fault stage {stage!r} (expected one of {STAGES})"
            )
        kwargs: Dict[str, object] = {}
        for opt in parts[2:]:
            key, sep, value = opt.partition("=")
            key = key.strip()
            if not sep or key not in ("index", "times", "seconds"):
                raise ReproError(
                    f"bad fault option {opt!r} in clause {clause!r} "
                    f"(expected index=/times=/seconds=)"
                )
            try:
                kwargs[key] = (
                    float(value) if key == "seconds" else int(value)
                )
            except ValueError:
                raise ReproError(
                    f"non-numeric value in fault option {opt!r}"
                ) from None
        specs.append(FaultSpec(action=action, stage=stage, **kwargs))
    return specs


def faults_active() -> bool:
    """Whether ``REPRO_FAULTS`` requests any injection (cheap check)."""
    return bool(os.environ.get(FAULTS_ENV, "").strip())


#: Parsed-spec cache keyed by the raw env string, so the hot-path hook
#: re-parses only when the environment actually changes.
_PARSE_CACHE: Tuple[Optional[str], List[FaultSpec]] = (None, [])

#: Per-process claim counts, used when no claim directory is set.
_LOCAL_CLAIMS: Dict[int, int] = {}


def _specs_from_env() -> List[FaultSpec]:
    global _PARSE_CACHE
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if _PARSE_CACHE[0] != raw:
        _PARSE_CACHE = (raw, parse_faults(raw) if raw else [])
    return _PARSE_CACHE[1]


def _claim(clause_idx: int, spec: FaultSpec) -> bool:
    """Atomically claim one of the clause's ``times`` injection slots.

    With a claim directory the slots are marker files created with
    ``O_CREAT | O_EXCL`` -- exactly one process wins each, no matter how
    many workers race.  Without one, slots are per-process counters.
    """
    directory = os.environ.get(FAULTS_DIR_ENV, "").strip()
    if not directory:
        used = _LOCAL_CLAIMS.get(clause_idx, 0)
        if used >= spec.times:
            return False
        _LOCAL_CLAIMS[clause_idx] = used + 1
        return True
    os.makedirs(directory, exist_ok=True)
    for slot in range(spec.times):
        marker = os.path.join(directory, f"fault-{clause_idx}-{slot}.claim")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.write(fd, f"pid={os.getpid()}\n".encode())
        os.close(fd)
        return True
    return False


def clear_fault_state() -> None:
    """Reset claims: per-process counters, parse cache, and markers.

    Tests call this between scenarios so clauses re-arm; the marker
    directory itself is usually a fresh ``tmp_path`` anyway.
    """
    global _PARSE_CACHE
    _LOCAL_CLAIMS.clear()
    _PARSE_CACHE = (None, [])
    directory = os.environ.get(FAULTS_DIR_ENV, "").strip()
    if directory and os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.startswith("fault-") and name.endswith(".claim"):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass


def maybe_inject(stage: str, index: Optional[int] = None) -> None:
    """Fire any armed fault clause matching ``stage`` (and ``index``).

    Called from the pipeline's injection points.  The no-fault fast
    path is a single environment lookup, so production sweeps pay
    nothing.  Actions: ``kill`` exits the process immediately with
    :data:`KILL_EXIT_CODE`; ``hang`` sleeps ``spec.seconds`` then
    returns (the cell still completes if nothing kills it first);
    ``raise`` raises :class:`~repro.errors.FaultInjected`.
    """
    if not faults_active():
        return
    for clause_idx, spec in enumerate(_specs_from_env()):
        if spec.stage != stage:
            continue
        if spec.index is not None and spec.index != index:
            continue
        if not _claim(clause_idx, spec):
            continue
        if spec.action == "kill":
            # os._exit skips finally/atexit on purpose: a SIGKILLed or
            # segfaulted worker does not unwind either.
            os._exit(KILL_EXIT_CODE)
        elif spec.action == "hang":
            time.sleep(spec.seconds)
        else:  # "raise"
            raise FaultInjected(stage, f"clause {clause_idx} index={index}")
