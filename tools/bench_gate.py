#!/usr/bin/env python
"""CI gate: fail when benchmark throughput regresses past a threshold.

Compares a freshly measured report (``tools/bench_report.py`` output or
a raw ``pytest-benchmark --benchmark-json`` dump) against a baseline
report -- normally the committed ``BENCH_engine.json`` -- and exits
non-zero if any benchmark present in both lost more than
``--max-regression`` of its ops/sec (default 30%).

Benchmarks only present on one side are reported but never fail the
gate (new benchmarks have no baseline; retired ones have no current
number).  CI timing is noisy, hence the generous default threshold:
the gate exists to catch order-of-magnitude accidents (a quadratic
sneaking into a hot loop), not 5% jitter.

With ``--telemetry LOG`` the gate additionally scans a JSONL telemetry
event log (see docs/OBSERVABILITY.md) for unrecovered fault events: any
``fault.giveup`` -- a sweep cell that exhausted its retry budget --
fails the gate, as does an inconsistent fault ledger per
``repro.obs.audit_events``.  Recovered faults (retries, pool respawns,
timeouts that were retried successfully) are reported but pass: the
robustness layer exists precisely so those do not invalidate a run.

``--stream-smoke REPORT`` gates on a ``tools/stream_smoke.py`` JSON
report: the gate fails if the recorded peak RSS exceeded the budget
the smoke ran with, or if the run completed no jobs.  This is the CI
enforcement of the ISSUE-7 bounded-memory claim (a 1M-job streaming
run inside a fixed RSS budget).

``--min-derived NAME:FLOOR`` (repeatable) additionally enforces a
minimum on a *derived* cross-benchmark ratio of the current report
(the ``derived`` section written by ``tools/bench_report.py``).  This
is how ISSUE 6's flat-kernel speedup is pinned: the
``flat_vs_reference_*`` ratios divide the ``engine="flat"`` throughput
by the reference tick engine's on the identical configuration, and
``--min-derived flat_vs_reference_contention:5`` fails CI if the
contention-regime speedup ever drops below 5x.

Usage::

    python tools/bench_gate.py current.json                # vs BENCH_engine.json
    python tools/bench_gate.py current.json --baseline old.json
    python tools/bench_gate.py current.json --max-regression 0.5
    python tools/bench_gate.py current.json --telemetry events.jsonl
    python tools/bench_gate.py --telemetry events.jsonl    # telemetry only
    python tools/bench_gate.py current.json --min-derived flat_vs_reference_contention:5
    python tools/bench_gate.py --stream-smoke smoke.json   # memory only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_report(path: Path) -> dict:
    """Read and minimally validate a report file."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read ({exc})")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})")
    if data.get("benchmarks") is None:
        raise SystemExit(f"{path}: no 'benchmarks' key")
    return data


def extract_ops(data: dict) -> Dict[str, float]:
    """``{benchmark name: ops/sec}`` from either report format."""
    benchmarks = data["benchmarks"]
    if isinstance(benchmarks, list):  # raw pytest-benchmark dump
        return {b["name"]: float(b["stats"]["ops"]) for b in benchmarks}
    return {
        name: float(stats["ops_per_sec"]) for name, stats in benchmarks.items()
    }


def load_ops(path: Path) -> Dict[str, float]:
    """Read ``{benchmark name: ops/sec}`` from either report format."""
    return extract_ops(load_report(path))


def check_derived_floors(data: dict, floors: Dict[str, float]) -> int:
    """Enforce ``--min-derived`` floors on a report's derived ratios.

    The ratios come from ``tools/bench_report.py``'s ``derived`` section
    (cross-benchmark ops/sec ratios, e.g. the flat-kernel-vs-reference
    speedups); when the report lacks them -- a raw pytest-benchmark
    dump -- they are recomputed here from the benchmark numbers via the
    report tool's ratio table.  A missing ratio fails the gate: a floor
    on a benchmark pair that never ran would otherwise pass vacuously.
    """
    derived = dict(data.get("derived") or {})
    missing = [name for name in floors if name not in derived]
    if missing:
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        from bench_report import DERIVED_RATIOS

        ops = extract_ops(data)
        for name in missing:
            pair = DERIVED_RATIOS.get(name)
            if pair and pair[0] in ops and pair[1] in ops and ops[pair[1]] > 0:
                derived[name] = ops[pair[0]] / ops[pair[1]]

    failures = 0
    for name, floor in sorted(floors.items()):
        ratio = derived.get(name)
        if ratio is None:
            print(f"  derived {name}: MISSING (floor {floor:.2f})")
            failures += 1
            continue
        status = "ok" if ratio >= floor else "BELOW FLOOR"
        print(f"  derived {name}: {ratio:.2f}x (floor {floor:.2f}) {status}")
        if ratio < floor:
            failures += 1
    return failures


def parse_min_derived(specs) -> Dict[str, float]:
    floors: Dict[str, float] = {}
    for spec in specs or ():
        name, sep, value = spec.partition(":")
        if not sep or not name:
            raise SystemExit(
                f"--min-derived {spec!r}: expected NAME:FLOOR "
                f"(e.g. flat_vs_reference_contention:5)"
            )
        try:
            floors[name] = float(value)
        except ValueError:
            raise SystemExit(f"--min-derived {spec!r}: FLOOR must be a number")
    return floors


def check_telemetry(log_path: Path) -> int:
    """Scan a telemetry log for unrecovered faults; returns failure count.

    Delegates the ledger math to :func:`repro.obs.audit_events` (which
    flags any ``fault.giveup`` and retry/charge mismatches) and prints
    a recovery summary either way.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import read_events
    from repro.obs.summary import audit_events

    try:
        events = read_events(log_path)
    except OSError as exc:
        raise SystemExit(f"{log_path}: cannot read ({exc})")

    counts: Dict[str, int] = {}
    for e in events:
        kind = str(e.get("event", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    recovered = counts.get("fault.retry", 0) + counts.get("pool.respawn", 0)
    print(f"telemetry gate: {log_path} ({len(events)} events)")
    for kind in sorted(k for k in counts if k.startswith(("fault.", "pool."))):
        print(f"  {kind}: {counts[kind]}")
    if recovered:
        print(f"  ({recovered} recovery action(s) recorded -- allowed)")

    fault_problems = [
        p for p in audit_events(events)
        if "fault" in p or "giveup" in p
    ]
    for problem in fault_problems:
        print(f"  UNRECOVERED: {problem}")
    return len(fault_problems)


def check_stream_smoke(path: Path) -> int:
    """Gate on a ``tools/stream_smoke.py`` report; returns failure count.

    The smoke run already asserted its budget when it executed; the
    gate re-checks the written numbers so a stale or doctored report
    (or a smoke invoked with ``|| true``) cannot pass silently.
    """
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read ({exc})")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})")
    schema = data.get("schema", "")
    if not str(schema).startswith("repro-stream-smoke/"):
        raise SystemExit(f"{path}: not a stream-smoke report ({schema!r})")

    failures = 0
    peak = float(data.get("peak_rss_mb", float("inf")))
    budget = float(data.get("budget_mb", 0.0))
    n_jobs = int(data.get("n_jobs", 0))
    print(
        f"stream-smoke gate: {path} ({n_jobs} jobs, "
        f"chunk {data.get('chunk_jobs')}, {data.get('wall_s')}s, "
        f"{data.get('jobs_per_sec')} jobs/s)"
    )
    status = "ok" if peak <= budget and data.get("within_budget") else "OVER"
    print(f"  peak RSS {peak:.1f} MB vs budget {budget:.1f} MB {status}")
    if peak > budget or not data.get("within_budget"):
        failures += 1
    if n_jobs < 1:
        print("  FAIL: report shows no jobs executed")
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current",
        type=Path,
        nargs="?",
        default=None,
        help="fresh benchmark report (optional with --telemetry)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="baseline report (default: committed BENCH_engine.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help=(
            "maximum tolerated fractional ops/sec loss per benchmark "
            "(0.30 = fail below 70%% of baseline)"
        ),
    )
    parser.add_argument(
        "--engine-budget",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "tighter loss budget applied to the engine-throughput "
            "benchmarks only (names containing 'engine_throughput'). "
            "The observability counters (ISSUE 3) are budgeted at 2%% "
            "engine cost: pass 0.02 to enforce it.  Engine benches run "
            "hundreds of long rounds, so a tight floor is meaningful "
            "where it would be pure noise for the micro-benchmarks."
        ),
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="LOG",
        help=(
            "also gate on a JSONL telemetry event log: fail on any "
            "fault.giveup (a cell that exhausted its retry budget) or "
            "inconsistent fault ledger; recovered faults pass"
        ),
    )
    parser.add_argument(
        "--stream-smoke",
        type=Path,
        default=None,
        metavar="REPORT",
        help=(
            "also gate on a tools/stream_smoke.py JSON report: fail if "
            "the recorded peak RSS exceeded the smoke's budget (the "
            "ISSUE 7 bounded-memory claim)"
        ),
    )
    parser.add_argument(
        "--min-derived",
        action="append",
        default=None,
        metavar="NAME:FLOOR",
        help=(
            "minimum value for a derived cross-benchmark ratio of the "
            "current report (repeatable).  ISSUE 6 pins the flat-kernel "
            "speedup with 'flat_vs_reference_contention:5'.  A ratio "
            "missing from the report fails the gate."
        ),
    )
    args = parser.parse_args(argv)
    if (
        args.current is None
        and args.telemetry is None
        and args.stream_smoke is None
    ):
        parser.error(
            "pass a benchmark report, --telemetry LOG, "
            "--stream-smoke REPORT, or a combination"
        )

    smoke_failures = 0
    if args.stream_smoke is not None:
        smoke_failures = check_stream_smoke(args.stream_smoke)
        print()

    telemetry_failures = 0
    if args.telemetry is not None:
        telemetry_failures = check_telemetry(args.telemetry)
        print()

    if args.current is None:
        if smoke_failures or telemetry_failures:
            if smoke_failures:
                print("FAIL: stream smoke exceeded its memory budget")
            if telemetry_failures:
                print(
                    f"FAIL: {telemetry_failures} unrecovered fault "
                    f"problem(s) in telemetry"
                )
            return 1
        if args.stream_smoke is not None:
            print("OK: stream smoke stayed within its memory budget")
        if args.telemetry is not None:
            print("OK: telemetry shows no unrecovered faults")
        return 0

    current_report = load_report(args.current)
    current = extract_ops(current_report)
    baseline = load_ops(args.baseline)
    derived_floors = parse_min_derived(args.min_derived)

    def floor_for(name: str) -> float:
        if args.engine_budget is not None and "engine_throughput" in name:
            return 1.0 - args.engine_budget
        return 1.0 - args.max_regression

    failures = []
    for name in sorted(baseline):
        base = baseline[name]
        if name not in current:
            print(f"  {name}: no current measurement (skipped)")
            continue
        if base <= 0:
            continue
        floor = floor_for(name)
        ratio = current[name] / base
        status = "ok" if ratio >= floor else "REGRESSED"
        print(
            f"  {name}: {current[name]:.2f} vs {base:.2f} ops/s "
            f"({ratio:.2f}x, floor {floor:.2f}) {status}"
        )
        if ratio < floor:
            failures.append((name, ratio, floor))
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name}: new benchmark (no baseline, skipped)")

    derived_failures = 0
    if derived_floors:
        derived_failures = check_derived_floors(current_report, derived_floors)

    if failures or telemetry_failures or derived_failures or smoke_failures:
        if failures:
            print(f"\nFAIL: {len(failures)} benchmark(s) below their floor:")
            for name, ratio, floor in failures:
                print(f"  {name}: {ratio:.2f}x (floor {floor:.2f})")
        if derived_failures:
            print(
                f"\nFAIL: {derived_failures} derived ratio(s) below their "
                f"--min-derived floor"
            )
        if telemetry_failures:
            print(
                f"\nFAIL: {telemetry_failures} unrecovered fault "
                f"problem(s) in telemetry"
            )
        if smoke_failures:
            print("\nFAIL: stream smoke exceeded its memory budget")
        return 1
    print("\nOK: no benchmark below its floor")
    if args.telemetry is not None:
        print("OK: telemetry shows no unrecovered faults")
    if args.stream_smoke is not None:
        print("OK: stream smoke stayed within its memory budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
