"""Workload subprocess of the end-to-end benchmark (started by run.py).

Two modes, each printing one JSON object as its last stdout line:

``setup``
    A fresh interpreter: import the program, then run one smoke-size
    pass through the workload's entry point.  Reports the import time
    and the time spent building or loading the compiled kernel.
``measure``
    One smoke-size warm-up pass, then full-size passes back to back
    until ``--seconds`` have elapsed.  With ``--trace 1`` the first half
    of the time runs untraced and the second half traced (see spans.py).
    Reports every pass (wall time, digest check, host load) plus peak
    RSS, and with tracing the per-layer metrics of every traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3

#: Median duration of :func:`probe` on the 2-core host where the
#: benchmark was defined.  Timings are reported at this host speed.
REFERENCE_PROBE_S = 0.034
#: Probes taken before every pass, and after the last one.
PROBES = 2


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The shared host's speed drifts by up to 2x within minutes, for every
    process alike.  Probes are taken between passes, and each pass's
    wall time is scaled by ``REFERENCE_PROBE_S`` over the mean of the
    probes just before and just after it (:func:`bracket`).  The
    program's own speed-ups and slow-downs stay in the scaled time; the
    host's drift cancels.  The probe is the benchmark's own code, so no
    change to the program can move it.
    """
    t0 = time.perf_counter()
    total, table = 0, {}  # small: the probe must not move peak RSS
    for i in range(300_000):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - t0


def probe_group() -> List[float]:
    return [probe() for _ in range(PROBES)]


def bracket(records: List[Dict[str, Any]], final: List[float]) -> None:
    """Set each record's ``probe_s``: the mean probe before and after it.

    ``records[i]["probes"]`` were taken just before record ``i``; the
    probes after it are the next record's, or ``final`` for the last.
    """
    for i, record in enumerate(records):
        after = records[i + 1]["probes"] if i + 1 < len(records) else final
        record["probe_s"] = statistics.mean(record["probes"] + after)


def host_load() -> Dict[str, float]:
    """1-minute load average and 10-second CPU pressure (Linux)."""
    out: Dict[str, float] = {}
    try:
        out["loadavg"] = os.getloadavg()[0]
    except OSError:
        pass
    try:
        line = Path("/proc/pressure/cpu").read_text().splitlines()[0]
        out["cpu_some_avg10"] = float(line.split()[1].split("=")[1])
    except (OSError, IndexError, ValueError):
        pass
    return out


def expected_digest(workload: str, seed: int) -> Optional[str]:
    path = HERE / "expected" / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def run_pass(workload, seed: int, smoke: bool, scratch: str,
             tracer=None) -> Dict[str, Any]:
    """One pass; never raises (a failure is recorded on the pass)."""
    from workloads import CheckFailed

    walls: Dict[str, float] = {}
    roots: List[Dict[str, Any]] = []

    def timed(label: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        if tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = tracer.call(f"pass.{label}", fn, args, kwargs)
            roots.append(tracer.spans[-1])
        walls[label] = time.perf_counter() - t0
        return out

    record: Dict[str, Any] = {"ok": False, "probes": probe_group()}
    try:
        outcome = workload.run(seed, smoke, timed, scratch)
    except CheckFailed as exc:
        record["error"] = f"check failed: {exc}"
    except Exception:
        record["error"] = traceback.format_exc()
    else:
        record.update(
            ok=True,
            wall_s=walls["main"],
            resume_s=walls.get("resume"),
            jobs=outcome.jobs,
            digest=hashlib.sha256(outcome.text.encode()).hexdigest(),
            extras=outcome.extras,
        )
    record["host"] = host_load()
    record["roots"] = [r["id"] for r in roots]
    return record


def check_digests(passes: List[Dict[str, Any]], name: str, seed: int,
                  smoke: bool) -> Optional[str]:
    """Fail every pass whose digest differs from the expected one.

    The expected digest is the committed golden for this seed, or, for a
    seed without one, the first pass's (every pass must agree).  Returns
    the digest the passes were checked against.
    """
    golden = None if smoke else expected_digest(name, seed)
    reference = golden
    for p in passes:
        if not p["ok"]:
            continue
        if reference is None:
            reference = p["digest"]
        if p["digest"] != reference:
            p["ok"] = False
            p["error"] = (f"output digest {p['digest'][:16]} != expected "
                          f"{reference[:16]}"
                          + (" (golden)" if golden else " (first pass)"))
    return reference


def setup_main(args) -> Dict[str, Any]:
    from spans import Tracer
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0

    tracer = Tracer(Path(args.trace_dir))
    try:  # the alias run_batch resolves the kernel through
        import repro.sim.batch_engine  # noqa: F401
    except ImportError:
        pass
    tracer.wrap_function("repro.sim._cext", "resolve_batch_kernel",
                         "setup.cext")
    record = run_pass(WORKLOADS[args.workload], args.seed, True,
                      args.scratch)
    tracer.uninstall()
    cext = [s for s in tracer.spans + tracer.worker_spans()
            if s["name"] == "setup.cext"]
    return {"ok": record["ok"], "error": record.get("error"),
            "import_s": import_s,
            "cext_build_s": sum(s["end"] - s["start"] for s in cext)}


def measure_main(args) -> Dict[str, Any]:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warmup = run_pass(workload, args.seed, True, args.scratch)
    passes: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < budget:
        passes.append(run_pass(workload, args.seed, args.smoke, args.scratch))
    bracket(passes, probe_group())
    layers: List[Dict[str, float]] = []
    problems: List[str] = []
    gaps: List[tuple] = []
    if args.trace:
        import spans

        tracer = spans.Tracer(Path(args.trace_dir))
        tracer.install()
        t0 = time.perf_counter()
        try:
            while (len(traced) < MIN_PASSES
                   or time.perf_counter() - t0 < args.seconds / 2):
                tracer.run_id = f"pass-{len(traced)}"
                traced.append(run_pass(workload, args.seed, args.smoke,
                                       args.scratch, tracer))
        finally:
            tracer.uninstall()
        problems = tracer.problems
        bracket(traced, probe_group())
        every = tracer.spans + tracer.worker_spans()
        for i, p in enumerate(traced):
            run_spans = [s for s in every if s["run"] == f"pass-{i}"]
            roots = [s for s in run_spans if s["id"] in p["roots"]]
            if not roots:
                continue
            layer = spans.pass_metrics(run_spans, roots)
            layer.update(p.get("extras") or {})
            layers.append(layer)
            for root in roots:
                gaps.extend(spans.coverage_gaps(run_spans, root))
    reference = check_digests(passes + traced, args.workload, args.seed,
                              args.smoke)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "warmup": {k: warmup.get(k) for k in ("ok", "error")},
        "passes": passes,
        "traced": traced,
        "layers": layers,
        "trace_problems": problems,
        "gaps": sorted(gaps, reverse=True)[:5],
        "digest": reference,
        "golden": expected_digest(args.workload, args.seed) is not None
        and not args.smoke,
        "peak_rss_mb": usage / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()
    result = setup_main(args) if args.mode == "setup" else measure_main(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
