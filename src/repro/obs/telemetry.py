"""The :class:`Telemetry` sink: structured run events as JSONL.

One ``Telemetry`` object is threaded (explicitly, as an optional
``telemetry=`` argument) through every execution layer -- the
:func:`repro.run` facade, :func:`repro.sweep`
(:func:`~repro.experiments.sweep._grid_sweep`), the Figure 2 runner
(:func:`~repro.experiments.runner._run_figure2_cells`),
:func:`~repro.experiments.parallel.parallel_map` and
:class:`~repro.experiments.cache.SweepCache` -- each of which *emits*
events into it.  ``telemetry=None`` (the default everywhere) keeps every
emission site to a single ``is not None`` test, so disabled telemetry is
free; scheduling decisions never depend on it either way, which the
schedule-identity tests pin.

Event model
-----------
An event is a flat JSON object with two reserved keys:

``event``
    The kind, a dotted lowercase string (``"cell.run"``,
    ``"cache.cell_hit"``, ``"sweep.start"``, ...).  The full vocabulary
    is documented in docs/OBSERVABILITY.md.
``t``
    Seconds since the sink was created (monotonic clock), so event logs
    order and duration-attribute without trusting wall-clock time.

Everything else is free-form but must be JSON-serializable.  Events are
kept in memory (``telemetry.events``) and, when a ``path`` was given,
appended to that file as one JSON document per line -- the JSONL format
``repro.experiments telemetry <log>`` and ``tools/bench_report.py
--telemetry <log>`` summarize.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

PathLike = Union[str, Path]

#: Version stamp carried by every event; bump on any schema change so
#: downstream summarizers can refuse logs they would misread.
EVENT_SCHEMA = "repro-obs/1"

#: Environment variable naming an event-log path (the CLI's
#: ``--telemetry`` flag); see :func:`default_telemetry`.
TELEMETRY_ENV = "REPRO_TELEMETRY"


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of a field value to something JSON-safe.

    Telemetry must never crash a run: unknown objects degrade to their
    ``repr`` instead of raising from ``json.dumps``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


class Telemetry:
    """An opt-in event sink for one run, sweep, or experiment session.

    Parameters
    ----------
    path:
        Optional JSONL file to append events to.  Parent directories are
        created; the file is opened lazily on the first event, so a
        Telemetry that never fires never touches the filesystem.
    label:
        Free-form tag recorded on the ``telemetry.open`` event (e.g. the
        experiment id), to tell interleaved sessions apart in one log.

    Notes
    -----
    The sink also maintains :attr:`counters` -- ``{event kind: count}``
    -- so quick checks (cache hit ratio, cells run) never re-scan the
    event list.  Use as a context manager to guarantee the file handle
    is flushed and closed::

        with Telemetry("events.jsonl") as tel:
            repro.run(scheduler, jobset, m=8, telemetry=tel)
    """

    def __init__(
        self, path: Optional[PathLike] = None, label: Optional[str] = None
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.label = label
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {}
        self._t0 = time.perf_counter()
        self._fh = None
        self.emit("telemetry.open", schema=EVENT_SCHEMA, label=label)

    # -- emission ---------------------------------------------------------

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the event dict (already appended)."""
        record: Dict[str, Any] = {
            "event": event,
            "t": round(time.perf_counter() - self._t0, 6),
        }
        for key, value in fields.items():
            record[key] = _jsonable(value)
        self.events.append(record)
        self.counters[event] = self.counters.get(event, 0) + 1
        if self.path is not None:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a")
            self._fh.write(json.dumps(record) + "\n")
        return record

    def count(self, event: str) -> int:
        """How many events of ``event`` kind have been emitted."""
        return self.counters.get(event, 0)

    def of_kind(self, event: str) -> List[Dict[str, Any]]:
        """All recorded events of one kind, in emission order."""
        return [e for e in self.events if e["event"] == event]

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        """Flush the JSONL file handle, if one is open."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Emit the closing event and release the file handle (idempotent)."""
        if self.count("telemetry.close") == 0:
            self.emit("telemetry.close", n_events=len(self.events))
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path is not None else "memory"
        return f"Telemetry({where!r}, {len(self.events)} events)"


#: The process-wide sink behind :func:`default_telemetry`, keyed by the
#: path it was opened for so an env change mid-process re-resolves.
_ENV_TELEMETRY: Optional[Telemetry] = None


def default_telemetry() -> Optional[Telemetry]:
    """The process-wide sink requested via ``REPRO_TELEMETRY``, if any.

    Sweep entry points fall back to this when no explicit ``telemetry=``
    argument is given, which is how the CLI's ``--telemetry PATH`` flag
    reaches every sweep an experiment performs without threading a
    parameter through each figure function.  The sink is a process
    singleton per path, so consecutive sweeps of one CLI invocation
    append to a single log as one session.  Returns None when the
    environment variable is unset or empty.
    """
    global _ENV_TELEMETRY
    env = os.environ.get(TELEMETRY_ENV, "").strip()
    if not env:
        return None
    path = Path(env)
    if _ENV_TELEMETRY is None or _ENV_TELEMETRY.path != path:
        _ENV_TELEMETRY = Telemetry(path, label="env")
    return _ENV_TELEMETRY


def read_events(path: PathLike) -> List[Dict[str, Any]]:
    """Load a JSONL event log written by :class:`Telemetry`.

    Blank lines are skipped; a torn final line (a writer killed
    mid-append) is dropped rather than raising, so a log is always
    summarizable up to its last complete event.
    """
    events: List[Dict[str, Any]] = []
    lines = Path(path).read_text().splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail from an interrupted writer
            raise
    return events


def iter_events(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Streaming variant of :func:`read_events` for very large logs."""
    for event in read_events(path):
        yield event
