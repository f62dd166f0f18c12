"""Summaries and audits over telemetry event logs.

:func:`summarize_events` renders a JSONL event log (see
:mod:`repro.obs.telemetry`) into the same aligned-table style as
``tools/bench_report.py``: event counts, cache hit/miss accounting, cell
wall-time statistics, worker health, and engine counters (steal success
ratio, admission latency) aggregated from the per-cell
``SimulationStats`` snapshots.  It is what both CLI surfaces call
(``python -m repro.experiments telemetry <log>`` and
``tools/bench_report.py --telemetry <log>``).

:func:`audit_events` is the ``audit_trace``-style consistency pass: it
cross-checks the event stream against itself and against the embedded
engine statistics (failed steals never exceed attempts, task accounting
adds up, cache hits equal cached-cell events, ...) and returns a list of
violation strings -- empty means the log is internally consistent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

Event = Dict[str, Any]


def _fmt(value: Optional[float], width: int = 12, prec: int = 3) -> str:
    """Right-aligned number, or ``-`` for absent values."""
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:>{width}.{prec}f}"


def _stats_of(events: Sequence[Event]) -> List[Dict[str, Any]]:
    """The embedded ``SimulationStats`` dicts of every run-bearing event."""
    out = []
    for e in events:
        stats = e.get("stats")
        if isinstance(stats, dict):
            out.append(stats)
    return out


def _wall_times(events: Sequence[Event]) -> List[float]:
    return [
        float(e["wall_s"])
        for e in events
        if e.get("event") == "cell.run" and isinstance(e.get("wall_s"), (int, float))
    ]


def _sum_opt(stats: Sequence[Dict[str, Any]], field: str) -> Optional[int]:
    """Sum a stats field across runs, ignoring engines that lack it."""
    values = [s[field] for s in stats if s.get(field) is not None]
    if not values:
        return None
    return int(sum(values))


def summarize_events(events: Sequence[Event]) -> str:
    """Render an event log as aligned text tables (see module docstring)."""
    lines: List[str] = []
    opens = [e for e in events if e.get("event") == "telemetry.open"]
    label = opens[0].get("label") if opens else None
    schema = opens[0].get("schema") if opens else None
    span = max((float(e.get("t", 0.0)) for e in events), default=0.0)

    lines.append("telemetry summary")
    lines.append("=" * 60)
    lines.append(f"{'schema':<24}{schema or '-'}")
    if label:
        lines.append(f"{'label':<24}{label}")
    lines.append(f"{'events':<24}{len(events)}")
    lines.append(f"{'span_s':<24}{span:.3f}")

    # -- event counts -----------------------------------------------------
    counts: Dict[str, int] = {}
    for e in events:
        kind = str(e.get("event", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    lines.append("")
    lines.append(f"{'event':<32}{'count':>10}")
    lines.append("-" * 42)
    for kind in sorted(counts):
        lines.append(f"{kind:<32}{counts[kind]:>10}")

    # -- cache accounting -------------------------------------------------
    cache_rows = [
        ("instance", "cache.instance_hit", "cache.instance_miss"),
        ("cell", "cache.cell_hit", "cache.cell_miss"),
    ]
    if any(counts.get(h) or counts.get(m) for _, h, m in cache_rows):
        lines.append("")
        lines.append(
            f"{'cache':<12}{'hits':>8}{'misses':>8}{'hit_ratio':>12}"
        )
        lines.append("-" * 40)
        for name, hit_kind, miss_kind in cache_rows:
            hits = counts.get(hit_kind, 0)
            misses = counts.get(miss_kind, 0)
            total = hits + misses
            ratio = hits / total if total else None
            lines.append(
                f"{name:<12}{hits:>8}{misses:>8}{_fmt(ratio)}"
            )
        if counts.get("cache.bypass"):
            lines.append(f"{'bypassed sweeps':<28}{counts['cache.bypass']:>8}")

    # -- fault tolerance --------------------------------------------------
    fault_rows = [
        ("timeouts", "fault.timeout"),
        ("crashes", "fault.crash"),
        ("cell errors", "fault.cell_error"),
        ("retries", "fault.retry"),
        ("giveups", "fault.giveup"),
        ("pool respawns", "pool.respawn"),
        ("failed checkpoints", "cache.store_failed"),
        ("merge conflicts", "merge.conflict"),
    ]
    if any(counts.get(kind) for _, kind in fault_rows):
        lines.append("")
        lines.append(f"{'faults & recovery':<28}{'count':>10}")
        lines.append("-" * 40)
        for name, kind in fault_rows:
            if counts.get(kind):
                lines.append(f"{name:<28}{counts[kind]:>10}")
        recovered = counts.get("fault.giveup", 0) == 0
        lines.append(
            f"{'recovered':<28}{'yes' if recovered else 'NO':>10}"
        )

    # -- adaptive experimentation (ISSUE 9) -------------------------------
    searches = [e for e in events if e.get("event") == "search.start"]
    ablations = [e for e in events if e.get("event") == "ablate.start"]
    if searches or ablations:
        lines.append("")
        lines.append(f"{'adaptive experimentation':<28}{'count':>10}")
        lines.append("-" * 40)
        if searches:
            lines.append(f"{'searches':<28}{len(searches):>10}")
            stage_counts: Dict[str, int] = {}
            for e in events:
                if e.get("event") == "search.round":
                    stage = str(e.get("stage", "?"))
                    stage_counts[stage] = stage_counts.get(stage, 0) + 1
            for stage in sorted(stage_counts):
                lines.append(
                    f"{'rounds (' + stage + ')':<28}"
                    f"{stage_counts[stage]:>10}"
                )
            lines.append(
                f"{'prunes':<28}{counts.get('search.prune', 0):>10}"
            )
            for e in events:
                if e.get("event") == "search.done":
                    value = e.get("best_value")
                    lines.append(
                        f"{'incumbent (' + str(e.get('mode', '?')) + ')':<28}"
                        f"{_fmt(float(value), 10) if isinstance(value, (int, float)) else '-':>10}"
                    )
        if ablations:
            lines.append(f"{'ablations':<28}{len(ablations):>10}")
            lines.append(
                f"{'deltas':<28}{counts.get('ablate.delta', 0):>10}"
            )
            for e in events:
                if e.get("event") == "ablate.done" and e.get("top"):
                    impact = e.get("top_impact")
                    impact_s = (
                        f"{impact:+.3f}"
                        if isinstance(impact, (int, float))
                        else "-"
                    )
                    lines.append(
                        f"{'top delta':<28}{str(e['top']):>10}  "
                        f"(impact {impact_s})"
                    )

    # -- cell wall times --------------------------------------------------
    walls = _wall_times(events)
    if walls:
        pids = {
            e.get("pid")
            for e in events
            if e.get("event") == "cell.run" and e.get("pid") is not None
        }
        lines.append("")
        lines.append("cells")
        lines.append("-" * 40)
        lines.append(f"{'run':<24}{len(walls):>10}")
        lines.append(f"{'cached':<24}{counts.get('cell.cached', 0):>10}")
        lines.append(f"{'workers (pids)':<24}{len(pids):>10}")
        lines.append(f"{'wall_total_s':<24}{_fmt(sum(walls), 10)}")
        lines.append(f"{'wall_mean_s':<24}{_fmt(sum(walls) / len(walls), 10, 4)}")
        lines.append(f"{'wall_min_s':<24}{_fmt(min(walls), 10, 4)}")
        lines.append(f"{'wall_max_s':<24}{_fmt(max(walls), 10, 4)}")

    # -- engine counters --------------------------------------------------
    stats = _stats_of(events)
    if stats:
        attempts = _sum_opt(stats, "steal_attempts")
        failed = _sum_opt(stats, "failed_steals")
        admissions = _sum_opt(stats, "admissions")
        adm_wait = _sum_opt(stats, "admission_wait_ticks")
        ff_saved = _sum_opt(stats, "ff_skipped_ticks")
        busy = _sum_opt(stats, "busy_steps")
        idle = _sum_opt(stats, "idle_steps")
        ratio = None
        if attempts:
            ratio = (attempts - (failed or 0)) / attempts
        mean_wait = None
        if admissions and adm_wait is not None:
            mean_wait = adm_wait / admissions
        lines.append("")
        lines.append(f"engine (aggregated over {len(stats)} runs)")
        lines.append("-" * 40)
        lines.append(f"{'steal_attempts':<24}{attempts if attempts is not None else '-':>10}")
        lines.append(f"{'failed_steals':<24}{failed if failed is not None else '-':>10}")
        lines.append(f"{'steal_success_ratio':<24}{_fmt(ratio, 10)}")
        lines.append(f"{'admissions':<24}{admissions if admissions is not None else '-':>10}")
        lines.append(f"{'mean_admission_wait':<24}{_fmt(mean_wait, 10)}")
        lines.append(f"{'ff_skipped_ticks':<24}{ff_saved if ff_saved is not None else '-':>10}")
        lines.append(f"{'busy_steps':<24}{busy if busy is not None else '-':>10}")
        lines.append(f"{'idle_steps':<24}{idle if idle is not None else '-':>10}")

    return "\n".join(lines)


def audit_events(events: Sequence[Event]) -> List[str]:
    """Cross-check an event log for internal consistency.

    Returns human-readable violation strings; an empty list means every
    check passed.  Checks mirror the invariants
    ``tests/sim/test_audit.py`` pins for single runs, lifted to the
    event-log level:

    * per-run engine stats are self-consistent (``failed_steals <=
      steal_attempts``, non-negative counters, the derived steal success
      ratio matches its ingredients);
    * task accounting adds up: ``sweep.start``'s task count equals the
      number of ``cell.run`` + ``cell.cached`` events that follow;
    * cache accounting covers cell accounting: no cell is served from
      cache without a recorded cell-cache hit;
    * fault accounting: every ``fault.retry`` / ``fault.giveup`` is
      preceded by a charged fault (``fault.timeout`` / ``fault.crash`` /
      ``fault.cell_error``), and any ``fault.giveup`` is itself a
      violation -- it means a cell exhausted its retry budget, so the
      run did not recover (``tools/bench_gate.py --telemetry`` fails on
      it);
    * merge accounting: any ``merge.conflict`` is a violation -- shard
      caches disagreed on a content key, so the merge aborted;
    * adaptive-search accounting (ISSUE 9): every ``search.prune``
      keeps at least one candidate and never exceeds the number of
      ``search.round`` events, every ``search.start`` is matched by a
      ``search.done`` (a missing one means the search died mid-flight),
      and ``ablate.delta`` events agree with the counts their
      ``ablate.start`` announced;
    * lifecycle sanity: at most one ``telemetry.close`` per
      ``telemetry.open``, and event timestamps are monotone.
    """
    problems: List[str] = []

    # Per-run stats invariants.
    for i, stats in enumerate(_stats_of(events)):
        att = stats.get("steal_attempts")
        fail = stats.get("failed_steals")
        if (att is None) != (fail is None):
            problems.append(
                f"run {i}: steal_attempts/failed_steals presence mismatch "
                f"({att!r} vs {fail!r})"
            )
        if att is not None and fail is not None and fail > att:
            problems.append(
                f"run {i}: failed_steals {fail} > steal_attempts {att}"
            )
        for field in (
            "busy_steps", "idle_steps", "elapsed_ticks", "n_events",
            "steal_attempts", "failed_steals", "admissions",
            "admission_wait_ticks", "ff_skipped_ticks", "max_queue_depth",
        ):
            value = stats.get(field)
            if value is not None and value < 0:
                problems.append(f"run {i}: {field} is negative ({value})")
        elapsed = stats.get("elapsed_ticks")
        ff = stats.get("ff_skipped_ticks")
        if elapsed is not None and ff is not None and ff > elapsed:
            problems.append(
                f"run {i}: ff_skipped_ticks {ff} > elapsed_ticks {elapsed}"
            )

    # Task accounting per sweep.
    n_tasks = sum(
        int(e.get("n_tasks", 0))
        for e in events
        if e.get("event") == "sweep.start"
    )
    n_cell_events = sum(
        1 for e in events if e.get("event") in ("cell.run", "cell.cached")
    )
    if n_tasks and n_tasks != n_cell_events:
        problems.append(
            f"sweep.start announced {n_tasks} tasks but "
            f"{n_cell_events} cell.run/cell.cached events were emitted"
        )

    # Cache vs cell accounting.
    counts: Dict[str, int] = {}
    for e in events:
        kind = str(e.get("event", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    cell_hits = counts.get("cache.cell_hit", 0)
    cached_cells = counts.get("cell.cached", 0)
    if cached_cells > cell_hits:
        # The reverse is legal: a hit can be rejected (e.g. it lacks a
        # requested metric), but no cell may be served from cache
        # without a recorded cache hit.
        problems.append(
            f"{cached_cells} cell.cached events but only {cell_hits} "
            f"cache.cell_hit events"
        )

    # Fault accounting: every retry/giveup follows a charged fault, and
    # a giveup means the run aborted without recovering -- surfaced so
    # CI gates (tools/bench_gate.py --telemetry) can fail on it.
    n_charged = (
        counts.get("fault.timeout", 0)
        + counts.get("fault.crash", 0)
        + counts.get("fault.cell_error", 0)
    )
    n_follow = counts.get("fault.retry", 0) + counts.get("fault.giveup", 0)
    if n_follow > n_charged:
        problems.append(
            f"{n_follow} fault.retry/fault.giveup events but only "
            f"{n_charged} charged fault events "
            f"(fault.timeout/crash/cell_error)"
        )
    if counts.get("fault.giveup"):
        problems.append(
            f"{counts['fault.giveup']} fault.giveup event(s): a cell "
            f"exhausted its retry budget -- the sweep did not recover"
        )

    # Merge accounting: a merge.conflict means two shard caches held
    # different results under the same content key -- never recoverable
    # by retrying, always a violation (one side ran different code, a
    # different environment, or was tampered with).
    if counts.get("merge.conflict"):
        problems.append(
            f"{counts['merge.conflict']} merge.conflict event(s): shard "
            f"caches disagree on a cell -- the merge aborted"
        )

    # Adaptive-search accounting (ISSUE 9).  Prunes are emitted at most
    # once per evaluated round (bisection's feasibility gate prunes
    # nothing), and a pruning decision that keeps zero candidates would
    # leave the search with no incumbent to return.
    n_rounds = counts.get("search.round", 0)
    n_prunes = counts.get("search.prune", 0)
    if n_prunes > n_rounds:
        problems.append(
            f"{n_prunes} search.prune events but only {n_rounds} "
            f"search.round events"
        )
    for i, e in enumerate(events):
        if e.get("event") != "search.prune":
            continue
        kept, dropped = e.get("kept"), e.get("dropped")
        if isinstance(kept, int) and kept < 1:
            problems.append(
                f"event {i}: search.prune kept {kept} candidates "
                f"(a search must keep at least one)"
            )
        if isinstance(dropped, int) and dropped < 0:
            problems.append(
                f"event {i}: search.prune dropped is negative ({dropped})"
            )
    if counts.get("search.start", 0) != counts.get("search.done", 0):
        problems.append(
            f"{counts.get('search.start', 0)} search.start but "
            f"{counts.get('search.done', 0)} search.done events: a "
            f"search did not run to completion"
        )
    if counts.get("ablate.start", 0) != counts.get("ablate.done", 0):
        problems.append(
            f"{counts.get('ablate.start', 0)} ablate.start but "
            f"{counts.get('ablate.done', 0)} ablate.done events: an "
            f"ablation did not run to completion"
        )
    announced_deltas = sum(
        int(e.get("n_deltas", 0))
        for e in events
        if e.get("event") == "ablate.start"
    )
    if announced_deltas and announced_deltas != counts.get("ablate.delta", 0):
        problems.append(
            f"ablate.start announced {announced_deltas} deltas but "
            f"{counts.get('ablate.delta', 0)} ablate.delta events were "
            f"emitted"
        )

    # Lifecycle sanity.
    if counts.get("telemetry.close", 0) > counts.get("telemetry.open", 0):
        problems.append(
            f"more telemetry.close ({counts.get('telemetry.close', 0)}) "
            f"than telemetry.open ({counts.get('telemetry.open', 0)}) events"
        )
    last_t = None
    for i, e in enumerate(events):
        t = e.get("t")
        if not isinstance(t, (int, float)):
            continue
        if last_t is not None and t < last_t and e.get("event") == "telemetry.open":
            # A second session appended to the same file; clocks reset.
            last_t = t
            continue
        if last_t is not None and t < last_t:
            problems.append(
                f"event {i} ({e.get('event')}): timestamp {t} before "
                f"previous {last_t}"
            )
        last_t = t

    return problems
