#!/usr/bin/env python
"""Benchmark trajectory: run the benchmark suite, write BENCH_engine.json.

Runs every file in ``benchmarks/`` (engine throughput, workload
generation, sweep dispatch + cache) under pytest-benchmark, normalizes
the JSON output (ops/sec per benchmark plus host metadata) and writes
it to ``BENCH_engine.json`` at the repository root, so every PR can
compare throughput against the committed numbers of the previous one.

Baseline handling: by default, if the output file already exists, its
current numbers become the new file's ``baseline`` and per-benchmark
speedup ratios are computed (``--baseline auto``).  ``--baseline PATH``
uses an explicit file instead (either a previously written
BENCH_engine.json or a raw ``pytest-benchmark --benchmark-json`` dump),
and ``--baseline none`` records no baseline.

Usage::

    python tools/bench_report.py                 # full run, repo-root output
    python tools/bench_report.py --quick         # CI smoke (one round each)
    python tools/bench_report.py --baseline old.json --output BENCH_engine.json
    python tools/bench_report.py --telemetry events.jsonl   # summarize a log

Interpreting the file: ``benchmarks.<name>.ops_per_sec`` is the
headline number (higher is better; for the engine benchmarks 1 op = one
full simulated run of the 500-job reference workload);
``speedup.<name>`` is current vs baseline; ``derived.<name>`` are
named cross-benchmark ratios (e.g. ``warm_vs_cold_sweep`` is the
end-to-end grid-sweep speedup a warm ``--resume`` cache delivers).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = [
    "benchmarks/test_engine_throughput.py",
    "benchmarks/test_workload_generation.py",
    "benchmarks/test_sweep_dispatch.py",
    "benchmarks/test_streaming_throughput.py",
    "benchmarks/test_batch_throughput.py",
]
SCHEMA = "repro-bench-engine/3"

#: Cross-benchmark ratios worth tracking by name: ratio of the first
#: benchmark's ops/sec over the second's (higher is better).
DERIVED_RATIOS = {
    # End-to-end serial grid sweep resumed from a warm cache vs cold.
    "warm_vs_cold_sweep": ("test_sweep_warm_cache", "test_sweep_cold"),
    # Per-task transport: pickling one cold sweep task (coordinates and
    # a repetition index) vs pickling the whole JobSet object graph (the
    # pre-flat dispatch design).
    "flat_vs_pickle_dispatch": (
        "test_dispatch_cold_task",
        "test_dispatch_pickled_jobset",
    ),
    # Vectorized CSR workload build vs its JobSet view (the same build
    # plus one Job per job over shared DAG shapes).
    "build_flat_vs_build": (
        "test_generate_build_flat",
        "test_generate_build_objects",
    ),
    # Memoized flatten (ISSUE 6) vs re-flattening the same JobSet.
    "cached_vs_cold_flatten": (
        "test_flatten_jobset_cached",
        "test_flatten_jobset",
    ),
    # engine="flat" (the compiled kernel at R=1) vs the reference tick
    # engine, per mirrored configuration (same instance, knobs and seed
    # on both sides).
    # The contention ratio (m=64, sigma=64 -- victim draws dominate)
    # carries the ISSUE-6 floor: bench_gate.py
    # --min-derived flat_vs_reference_contention:5 enforces it.
    "flat_vs_reference_admit_first": (
        "test_flat_engine_throughput_admit_first",
        "test_tick_engine_throughput_admit_first",
    ),
    "flat_vs_reference_steal_first": (
        "test_flat_engine_throughput_steal_first",
        "test_tick_engine_throughput_steal_first",
    ),
    "flat_vs_reference_theory_mode": (
        "test_flat_engine_throughput_theory_mode",
        "test_tick_engine_throughput_theory_mode",
    ),
    "flat_vs_reference_contention": (
        "test_flat_engine_throughput_contention",
        "test_tick_engine_throughput_contention",
    ),
}


def effective_jobs() -> int:
    """The worker count sweeps would actually use on this host.

    Mirrors :func:`repro.experiments.parallel.default_workers` (REPRO_JOBS
    override, else CPU count) so the report records the parallelism the
    numbers were taken under, not just the hardware.
    """
    env = os.environ.get("REPRO_JOBS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    return os.cpu_count() or 1


def logical_cores() -> int:
    """Logical cores this process may actually run on.

    ``os.cpu_count()`` reports the machine's full core count even when
    the process is pinned to a subset (container CPU quotas, taskset),
    which makes cross-host bench files lie about the parallelism that
    was available.  Prefer the scheduler affinity mask where the OS
    exposes one.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # macOS / restricted platforms
        return os.cpu_count() or 1


def physical_cores() -> Optional[int]:
    """Distinct physical cores, or None when the OS hides the topology.

    Both ``cpu_count`` and ``logical_cores`` are *logical* CPU counts
    (SMT threads included) -- on a 1-core container without SMT they
    coincide, which is how older reports came to record the same number
    under two names.  This counts distinct ``(physical id, core id)``
    pairs from ``/proc/cpuinfo``; platforms that do not expose the
    topology get None rather than a guess.
    """
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    pairs = set()
    phys = core = None
    for line in text.splitlines():
        if not line.strip():
            phys = core = None
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            phys = value.strip()
        elif key == "core id":
            core = value.strip()
        if phys is not None and core is not None:
            pairs.add((phys, core))
            phys = core = None
    return len(pairs) or None


def run_benchmarks(quick: bool) -> dict:
    """Run the benchmark files; return the raw pytest-benchmark JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *BENCH_FILES,
            "--benchmark-only",
            f"--benchmark-json={json_path}",
            "-q",
        ]
        if quick:
            cmd += [
                "--benchmark-min-rounds=1",
                "--benchmark-max-time=0.2",
                "--benchmark-warmup=off",
            ]
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
        return json.loads(json_path.read_text())


def normalize(raw: dict) -> Dict[str, dict]:
    """Raw pytest-benchmark JSON -> {test name: headline stats}."""
    out: Dict[str, dict] = {}
    for bench in raw["benchmarks"]:
        stats = bench["stats"]
        out[bench["name"]] = {
            "ops_per_sec": round(stats["ops"], 4),
            "mean_s": round(stats["mean"], 6),
            "min_s": round(stats["min"], 6),
            "rounds": stats["rounds"],
        }
    return out


def load_baseline(spec: str, output: Path) -> Optional[dict]:
    """Resolve --baseline into {label, benchmarks} or None."""
    if spec == "none":
        return None
    if spec == "auto":
        if not output.exists():
            return None
        data = json.loads(output.read_text())
        return {
            "label": data.get("label", "previous BENCH_engine.json"),
            "benchmarks": data["benchmarks"],
        }
    try:
        data = json.loads(Path(spec).read_text())
    except OSError as exc:
        raise SystemExit(f"--baseline {spec}: cannot read file ({exc})")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--baseline {spec}: not valid JSON ({exc})")
    if "benchmarks" not in data:
        raise SystemExit(
            f"--baseline {spec}: no 'benchmarks' key; expected a "
            f"BENCH_engine.json report or a raw pytest-benchmark dump"
        )
    if isinstance(data["benchmarks"], list):
        # Raw pytest-benchmark dump.
        return {"label": Path(spec).name, "benchmarks": normalize(data)}
    return {
        "label": data.get("label", Path(spec).name),
        "benchmarks": data["benchmarks"],
    }


def summarize_telemetry(log: Path) -> int:
    """Render a telemetry event log in bench-report style (see --telemetry)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import audit_events, read_events, summarize_events

    try:
        events = read_events(log)
    except OSError as exc:
        raise SystemExit(f"--telemetry {log}: cannot read ({exc})")
    print(summarize_events(events))
    problems = audit_events(events)
    print()
    if problems:
        print(f"audit: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("audit: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single-round smoke run (CI); numbers are noisy, trend only",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="normalized report path (default: repo-root BENCH_engine.json)",
    )
    parser.add_argument(
        "--baseline",
        default="auto",
        help=(
            "'auto' (reuse the existing output file's numbers), 'none', "
            "or a path to a previous report / raw pytest-benchmark JSON"
        ),
    )
    parser.add_argument(
        "--label",
        default=None,
        help="free-form label recorded in the report (e.g. a commit subject)",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="LOG",
        help=(
            "instead of running benchmarks, summarize and audit a "
            "telemetry event log (the JSONL file written by "
            "'python -m repro.experiments ... --telemetry LOG'; see "
            "docs/OBSERVABILITY.md).  Exits non-zero if the audit "
            "finds inconsistencies."
        ),
    )
    args = parser.parse_args(argv)

    if args.telemetry is not None:
        return summarize_telemetry(args.telemetry)

    baseline = load_baseline(args.baseline, args.output)
    raw = run_benchmarks(args.quick)
    benchmarks = normalize(raw)

    report = {
        "schema": SCHEMA,
        "label": args.label or ("quick smoke" if args.quick else "full run"),
        "quick": args.quick,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            # Logical CPUs the machine reports (os.cpu_count(), SMT
            # threads included).  This is the value REPRO_JOBS defaults
            # against: repro.experiments.parallel.default_workers uses
            # REPRO_JOBS if set, else os.cpu_count().
            "cpu_count": os.cpu_count(),
            # Logical CPUs this *process* may run on (scheduler
            # affinity mask); smaller than cpu_count under container
            # CPU quotas or taskset pinning.
            "logical_cores": logical_cores(),
            # Distinct physical cores, None when the OS hides the
            # topology.  cpu_count and logical_cores are both logical
            # counts and legitimately coincide on an unpinned non-SMT
            # host -- this field is what distinguishes SMT from real
            # parallel hardware.
            "physical_cores": physical_cores(),
            "repro_jobs": os.environ.get("REPRO_JOBS"),
            "jobs": effective_jobs(),
        },
        "benchmarks": benchmarks,
        "derived": {
            name: round(
                benchmarks[num]["ops_per_sec"]
                / benchmarks[den]["ops_per_sec"],
                3,
            )
            for name, (num, den) in DERIVED_RATIOS.items()
            if num in benchmarks
            and den in benchmarks
            and benchmarks[den]["ops_per_sec"] > 0
        },
    }
    if baseline is not None:
        report["baseline"] = baseline
        report["speedup"] = {
            name: round(
                benchmarks[name]["ops_per_sec"] / base["ops_per_sec"], 3
            )
            for name, base in baseline["benchmarks"].items()
            if name in benchmarks and base["ops_per_sec"] > 0
        }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, stats in sorted(benchmarks.items()):
        line = f"  {name}: {stats['ops_per_sec']:.2f} ops/s"
        if baseline is not None and name in report.get("speedup", {}):
            line += f"  ({report['speedup'][name]:.2f}x vs baseline)"
        print(line)
    for name, ratio in sorted(report["derived"].items()):
        print(f"  derived {name}: {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
