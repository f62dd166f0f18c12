"""`repro.obs`: opt-in observability for runs, sweeps, and caches.

Three layers (see docs/OBSERVABILITY.md for the full schema):

* :class:`Telemetry` -- the JSONL event sink threaded through
  :func:`repro.run`, :func:`repro.sweep`, the Figure 2 runner
  (:func:`~repro.experiments.runner._run_figure2_cells`), the dispatch
  layer, and the cache via optional ``telemetry=`` arguments;
* run manifests (:func:`build_manifest` / :func:`write_manifest`) --
  the reproducibility record one sweep leaves next to its cache dir;
* :func:`summarize_events` / :func:`audit_events` -- turning a log back
  into bench-report-style tables and consistency verdicts.

Everything here is opt-in: with ``telemetry=None`` (the default) no
event fires, no file is written, and schedules are bit-identical to an
instrumented run.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    list_manifests,
    load_manifest,
    manifest_key,
    write_manifest,
)
from repro.obs.summary import audit_events, summarize_events
from repro.obs.telemetry import (
    EVENT_SCHEMA,
    TELEMETRY_ENV,
    Telemetry,
    default_telemetry,
    iter_events,
    read_events,
)

__all__ = [
    "EVENT_SCHEMA",
    "MANIFEST_SCHEMA",
    "TELEMETRY_ENV",
    "Telemetry",
    "audit_events",
    "build_manifest",
    "default_telemetry",
    "iter_events",
    "list_manifests",
    "load_manifest",
    "manifest_key",
    "read_events",
    "summarize_events",
    "write_manifest",
]
