#!/usr/bin/env python3
"""End-to-end benchmark: reproduced claims, timed and traced layer by layer.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                        # every workload
    python3 benchmarks/e2e/run.py --workload fig2 --seed 3
    python3 benchmarks/e2e/run.py --workload search --trace 1
    python3 benchmarks/e2e/run.py --sets 2               # stability check
    python3 benchmarks/e2e/run.py --smoke --seconds 1    # tiny sizes

Each workload runs in its own fresh subprocess (child.py) with a pinned
environment: every ``REPRO_*`` variable is removed, ``REPRO_JOBS`` is
the number of usable CPUs, and every cache (compiled kernel, cell cache,
bytecode, temp files) lives in a temporary directory under the checkout
that is deleted afterwards.  Set-up is timed first, in fresh
interpreters; then the workload runs closed-loop passes for
``--seconds``.  Every output is checked against a committed digest (or,
for a seed without one, against the first pass and the workload's
invariants).

The last stdout line is one JSON object: ``correct``, ``attempted``
(passes), ``failed`` (failed passes) and ``metrics`` -- the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.dont_write_bytecode = True  # keep the checkout clean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from child import REFERENCE_PROBE_S, bracket, probe_group  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (neither imports the program)

#: Fresh interpreters timed per run for setup_s (after one untimed one
#: that fills the bytecode cache); --smoke times one and no warm-up.
SETUP_RUNS = 5
#: Every run must end well inside the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170.0
#: Coverage below this fails a traced run: some layer is not wrapped.
MIN_COVERAGE = 0.90


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(tmp: Path, cext_cache: Path) -> Dict[str, str]:
    """The pinned environment of one workload subprocess.

    ``tmp`` is the workload's scratch directory; its parent, the run's,
    holds the bytecode cache all workloads share.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in (
               "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")}
    cells = Path(tempfile.mkdtemp(prefix="cache-", dir=tmp))
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(tmp.parent / "pycache"),
        TMPDIR=str(tmp),
        REPRO_JOBS=str(cpu_count()),
        REPRO_CEXT_CACHE=str(cext_cache),
        REPRO_CACHE=str(cells),
    )
    return env


class ChildFailed(Exception):
    pass


def run_child(args: Sequence[str], env: Dict[str, str], timeout: float,
              ) -> Dict[str, Any]:
    """Run child.py; return its JSON result.  Kills its whole process
    group (pool workers included) if it outlives ``timeout``."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args], env=env,
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    out = err = None
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:  # whatever is left of its process group: leave nothing running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise ChildFailed(f"child {args[:3]} timed out after {timeout:.0f}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args[:3]} exited {proc.returncode}:\n"
                          f"{err.strip()[-3000:]}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, deadline: float, base: Path) -> Dict[str, Any]:
    """Set up and measure one workload; return the run's summary."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        common = ["--workload", name, "--seed", str(seed),
                  "--scratch", str(tmp), "--trace-dir"]
        setups: List[Dict[str, Any]] = []
        # The first full-size interpreter only fills the bytecode cache.
        counted = [True] if smoke else [False] + [True] * SETUP_RUNS
        for count in counted:
            cext = Path(tempfile.mkdtemp(prefix="cext-", dir=tmp))
            spans = Path(tempfile.mkdtemp(prefix="spans-", dir=tmp))
            probes = probe_group()
            t0 = time.perf_counter()
            res = run_child(["setup", *common, str(spans)],
                            child_env(tmp, cext), deadline - time.time())
            res["wall_s"] = time.perf_counter() - t0
            res["probes"] = probes
            if count:
                setups.append(res)
        bracket(setups, probe_group())
        # The measured process reuses the last set-up's compiled kernel:
        # building it is set-up work, and a compiler child would
        # otherwise count towards the workload's peak RSS.
        spans = Path(tempfile.mkdtemp(prefix="spans-", dir=tmp))
        measured = run_child(
            ["measure", *common, str(spans), "--seconds", str(seconds),
             "--trace", str(int(trace))] + (["--smoke"] if smoke else []),
            child_env(tmp, cext), deadline - time.time())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured["setups"] = setups
    return summarize(name, seed, trace, measured)


def scaled(record: Dict[str, Any], key: str = "wall_s") -> float:
    """A raw timing at the reference host speed (see child.probe)."""
    return (record.get(key) or 0.0) * REFERENCE_PROBE_S / record["probe_s"]


def summarize(name: str, seed: int, trace: bool, m: Dict[str, Any],
              ) -> Dict[str, Any]:
    """Metrics, quartiles and failures of one measured run."""
    passes = m["passes"] + m["traced"]
    failures = [p for p in passes if not p["ok"]]
    setups = m["setups"]
    errors = [p.get("error") for p in failures]
    errors += [s["error"] for s in setups if not s["ok"]]
    if not m["warmup"]["ok"]:
        errors.append(m["warmup"]["error"])
    good = [p for p in m["passes"] if p["ok"]] or m["passes"]
    raw = [p.get("wall_s", 0.0) for p in good]
    walls = [scaled(p) for p in good]
    wall = statistics.median(walls)
    jobs = statistics.median([p.get("jobs", 0) for p in good])
    metrics: Dict[str, float] = {}
    spread: Dict[str, tuple] = {}
    if not trace:
        rates = [p.get("jobs", 0) / w for p, w in zip(good, walls) if w]
        setup_walls = [scaled(s) for s in setups]
        metrics = {
            "wall_s": wall,
            "jobs_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        spread = {"wall_s": quartiles(walls),
                  "jobs_per_s": quartiles(rates),
                  "setup_s": quartiles(setup_walls)}
    else:
        layers = m["layers"]
        keys = sorted({k for layer in layers for k in layer})
        for key in keys:
            values = [layer.get(key, 0.0) for layer in layers]
            metrics[key] = statistics.median(values)
            spread[key] = quartiles(values)
        resumes = [scaled(p, "resume_s") for p in good if p.get("resume_s")]
        metrics["search.resume_s"] = statistics.median(resumes) if resumes else 0.0
        metrics["host.probe_s"] = statistics.median(p["probe_s"] for p in good)
        metrics["host.raw_wall_s"] = statistics.median(raw)
        metrics["setup.import_s"] = statistics.median(
            s["import_s"] for s in setups)
        metrics["setup.cext_build_s"] = statistics.median(
            s["cext_build_s"] for s in setups)
        traced = [scaled(p) for p in m["traced"] if p["ok"]]
        metrics["trace.overhead"] = (
            statistics.median(traced) / wall - 1.0 if traced and wall else 0.0)
        if metrics.get("trace.coverage", 0.0) < MIN_COVERAGE:
            gaps = "; ".join(f"{g[0]:.3f}s between {g[1]} and {g[2]}"
                             for g in m["gaps"][:3])
            errors.append(
                f"trace coverage {metrics.get('trace.coverage', 0.0):.3f} "
                f"< {MIN_COVERAGE}: unwrapped time {gaps or 'unknown'}; "
                f"tracer problems: {m['trace_problems'] or 'none'}")
    return {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": len(passes), "failed": len(failures),
        "correct": not errors, "errors": errors,
        "metrics": metrics, "spread": spread,
        "passes": len(good), "jobs_per_pass": jobs,
        "raw_wall_s": statistics.median(raw),
        "probe_s": statistics.median(p["probe_s"] for p in good),
        "digest": m["digest"], "golden": m["golden"],
        "hosts": [p.get("host", {}) for p in passes],
        "notes": m["trace_problems"],
    }


def print_run(summary: Dict[str, Any], catalog: List[Dict[str, Any]]) -> None:
    name = summary["workload"]
    print(f"== {name} (seed {summary['seed']}, {summary['passes']} passes, "
          f"{summary['jobs_per_pass']:g} jobs/pass, "
          f"{'traced' if summary['trace'] else 'untraced'})")
    for spec in catalog:
        key = spec["name"]
        value = summary["metrics"].get(key, 0.0)
        q1, q3 = summary["spread"].get(key, (value, value))
        print(f"  {key:<28} {value:>14.6g} {spec['unit']:<8} "
              f"q1 {q1:.6g}  q3 {q3:.6g}")
    print(f"  host: raw wall median {summary['raw_wall_s']:.4f} s, probe "
          f"median {summary['probe_s']:.4f} s (reference "
          f"{REFERENCE_PROBE_S} s)")
    state = "golden" if summary["golden"] else "no golden; first pass"
    print(f"  digest {summary['digest']} ({state})")
    for note in summary["notes"]:
        print(f"  note: tracer: {note}", file=sys.stderr)
    for error in summary["errors"]:
        print(f"  FAILED: {error}", file=sys.stderr)


def result_line(summaries: List[Dict[str, Any]],
                catalog: List[Dict[str, Any]], prefix: bool) -> str:
    units = {spec["name"]: spec["unit"] for spec in catalog}
    metrics = {}
    for s in summaries:
        for key, unit in units.items():
            label = f"{s['workload']}.{key}" if prefix else key
            metrics[label] = {"value": s["metrics"].get(key, 0.0),
                              "unit": unit}
    return json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    })


def compare_sets(sets: List[List[Dict[str, Any]]], bench: Dict[str, Any],
                 ) -> bool:
    """Print the two-set stability table; True when every pair agrees."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    agree = True
    print("\n== stability: first set vs last set "
          "(per-run medians; pass quartiles of each run)")
    print(f"  {'workload':<9}{'metric':<13}{'set 1':>12}{'set 2':>12}"
          f"{'diff':>9}{'bound':>7}  quartiles 1 | quartiles 2")
    for first, last in zip(sets[0], sets[-1]):
        for key, bound in bounds.items():
            a, b = first["metrics"][key], last["metrics"][key]
            diff = (b - a) / a if a else 0.0
            ok = abs(diff) <= bound
            agree = agree and ok
            q1 = first["spread"].get(key, (a, a))
            q2 = last["spread"].get(key, (b, b))
            print(f"  {first['workload']:<9}{key:<13}{a:>12.5g}{b:>12.5g}"
                  f"{diff:>+9.1%}{bound:>7.0%}  {q1[0]:.4g}-{q1[1]:.4g} | "
                  f"{q2[0]:.4g}-{q2[1]:.4g}{'' if ok else '  DISAGREE'}")
    print("\n== host load per pass (1-min loadavg / cpu pressure avg10)")
    for i, runs in enumerate(sets):
        for s in runs:
            loads = " ".join(
                f"{h.get('loadavg', 0):.2f}/{h.get('cpu_some_avg10', 0):.1f}"
                for h in s["hosts"])
            print(f"  set {i + 1} {s['workload']:<9} {loads}")
    return agree


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--sets", type=int, default=1,
                        help="full sets of runs; 2+ prints a stability "
                        "table comparing the first and last")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (no committed digests) and one "
                        "set-up interpreter")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    catalog = bench["per_layer"] if args.trace else bench["end_to_end"]
    sets: List[List[Dict[str, Any]]] = []
    scratch = ROOT / ".e2e_tmp"
    scratch.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        for _ in range(args.sets):
            runs = []
            for name in names:
                summary = run_workload(name, args.seed, seconds,
                                       bool(args.trace), args.smoke,
                                       time.time() + RUN_DEADLINE_S, base)
                print_run(summary, catalog)
                runs.append(summary)
            sets.append(runs)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    agree = True
    if args.sets > 1 and not args.trace:
        agree = compare_sets(sets, bench)
    print(result_line(sets[-1], catalog, prefix=len(names) > 1))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
