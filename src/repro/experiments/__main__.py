"""Command-line entry point for the reproduction harness.

Usage::

    python -m repro.experiments fig2a [--n-jobs N] [--reps R] [--seed S]
    python -m repro.experiments all --n-jobs 1000 --jobs 4
    python -m repro.experiments fig2a --telemetry events.jsonl
    python -m repro.experiments telemetry events.jsonl

Adaptive experimentation (ISSUE 9; see EXPERIMENTS.md "Ask a question,
not a grid")::

    python -m repro.experiments search --space '{"k": [0, 4, 16, 64]}' \
        --workload '{"qps": 1200, "n_jobs": 1500}' --m 16
    python -m repro.experiments search --fixed '{"k": 16}' \
        --space '{"speed": [1.0, 1.1, 1.25, 1.5, 2.0]}' --budget 150 \
        --workload '{"qps": 1200, "n_jobs": 1500}' --m 16 --reps 3
    python -m repro.experiments ablate --fixed '{"k": 16}' \
        --deltas '{"no-steal": {"k": 0}, "half-m": {"m": 8}}' \
        --workload '{"qps": 1200, "n_jobs": 1500}' --m 16

Cache maintenance for sharded sweeps (see EXPERIMENTS.md)::

    python -m repro.experiments merge-cache SRC [SRC ...] --dest DIR
    python -m repro.experiments merge-telemetry SRC [SRC ...] --dest FILE
    python -m repro.experiments clean-cache [--cache-dir DIR]

Exit codes are unified across subcommands in
:mod:`repro.experiments.exitcodes` (0 ok, 1 failed check, 2 merge
conflict / usage error, 3 infeasible search budget).

``merge-cache`` combines shard caches losslessly; a content conflict
(same cell key, different result) prints a provenance-bearing error and
exits with code 2.  ``clean-cache`` clears the resolved cache directory
completely (cells, instances, manifests, sidecars) so a cleared cache
cannot poison a later merge.

Experiment ids and what they regenerate are listed in
``repro.experiments.config.EXPERIMENTS`` and in DESIGN.md's
per-experiment index.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments import figures
from repro.experiments.config import (
    EXPERIMENTS,
    ExperimentScale,
    FIG2A,
    FIG2B,
    FIG2C,
    SCALE_STANDARD,
)


#: The Figure 2 panels: the only experiments that run at the
#: ``--n-jobs``/``--reps`` scale, so the only ones whose ``--json-dir``
#: record carries it.
FIG2_PANELS = {"fig2a": FIG2A, "fig2b": FIG2B, "fig2c": FIG2C}

#: Jobs per data point of ``verify`` when ``--n-jobs`` is not given.
VERIFY_N_JOBS = 1000

#: id -> callable(scale, seed) -> SeriesResult (or rendered text).
#: Kept as a table so the tests can assert it covers the EXPERIMENTS
#: registry exactly.  Only the FIG2_PANELS entries use ``scale``; the
#: rest run at their own fixed sizes.
DISPATCH = {
    **{
        exp_id: (
            lambda scale, seed, config=config: (
                figures.figure2(config, scale, seed=seed)
            )
        )
        for exp_id, config in FIG2_PANELS.items()
    },
    "fig3": lambda scale, seed: figures.render_figure3(seed=seed),
    "lb5": lambda scale, seed: figures.lower_bound_experiment(seed=seed),
    "thm31": lambda scale, seed: (
        figures.speed_augmentation_experiment(seed=seed)
    ),
    "thm71": lambda scale, seed: figures.weighted_experiment(seed=seed),
    "abl-k": lambda scale, seed: figures.k_sweep_experiment(seed=seed),
    "abl-load": lambda scale, seed: (
        figures.load_sweep_experiment(seed=seed)
    ),
    "abl-steal": lambda scale, seed: (
        figures.steal_policy_experiment(seed=seed)
    ),
    "abl-sched": lambda scale, seed: (
        figures.scheduler_comparison_experiment(seed=seed)
    ),
    "abl-burst": lambda scale, seed: (
        figures.burstiness_experiment(seed=seed)
    ),
    "abl-grain": lambda scale, seed: figures.grain_experiment(seed=seed),
    "ext-speedup": lambda scale, seed: (
        figures.speedup_contrast_experiment(seed=seed)
    ),
    "ext-wws": lambda scale, seed: (
        figures.weighted_work_stealing_experiment(seed=seed)
    ),
    "ext-norms": lambda scale, seed: (
        figures.norm_profile_experiment(seed=seed)
    ),
    "ext-scaling": lambda scale, seed: (
        figures.single_job_scaling_experiment(seed=seed)
    ),
    "ext-makespan": lambda scale, seed: figures.makespan_experiment(seed=seed),
    "ext-overheads": lambda scale, seed: figures.overheads_experiment(seed=seed),
}


# The unified exit-code vocabulary (ISSUE 9); re-exported here so
# ``from repro.experiments.__main__ import EXIT_MERGE_CONFLICT`` keeps
# working -- repro.experiments.exitcodes is the canonical home.
from repro.experiments.exitcodes import (  # noqa: E402
    EXIT_FAILURE,
    EXIT_MERGE_CONFLICT,
    EXIT_OK,
    EXIT_SEARCH_INFEASIBLE,
)

#: Maintenance subcommands dispatched before the experiment parser --
#: they take source paths, not experiment ids.
MAINTENANCE_COMMANDS = ("merge-cache", "merge-telemetry", "clean-cache")

#: Adaptive-experimentation subcommands (ISSUE 9), likewise dispatched
#: before the experiment parser -- they take JSON knob payloads, not
#: experiment ids.
ADAPTIVE_COMMANDS = ("search", "ablate")


def _maintenance_main(argv: list[str]) -> int:
    """The ``merge-cache`` / ``merge-telemetry`` / ``clean-cache`` CLI."""
    command = argv[0]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {command}",
        description={
            "merge-cache": (
                "Merge shard sweep caches into one resumable cache "
                "(content-hash conflict detection; exit 2 on conflict)."
            ),
            "merge-telemetry": (
                "Concatenate shard telemetry event logs into one ledger "
                "(each source is validated first)."
            ),
            "clean-cache": (
                "Remove the cache directory completely: cells, "
                "instances, manifests, checkpoint sidecars."
            ),
        }[command],
    )
    if command in ("merge-cache", "merge-telemetry"):
        parser.add_argument(
            "sources",
            nargs="+",
            help=(
                "shard cache directories" if command == "merge-cache"
                else "shard telemetry logs (JSONL)"
            ),
        )
        parser.add_argument(
            "--dest",
            required=True,
            help=(
                "destination cache directory (created if missing)"
                if command == "merge-cache"
                else "destination event log (overwritten atomically)"
            ),
        )
    else:
        parser.add_argument(
            "--cache-dir",
            type=str,
            default=None,
            help=(
                "cache directory to remove (default: the REPRO_CACHE "
                "environment variable, else .repro_cache/)"
            ),
        )
    args = parser.parse_args(argv[1:])

    from repro.errors import CacheMergeConflictError, SweepConfigError

    try:
        if command == "merge-cache":
            from repro.experiments.shard import merge_caches

            report = merge_caches(args.sources, args.dest)
            print(report.render())
            return 0
        if command == "merge-telemetry":
            from repro.experiments.shard import merge_telemetry

            dest, n_events = merge_telemetry(args.sources, args.dest)
            print(
                f"merged {n_events} events from {len(args.sources)} "
                f"log(s) into {dest}"
            )
            return 0
        from repro.experiments.cache import SweepCache

        cache = SweepCache(args.cache_dir)
        stats = cache.stats()
        cache.clear()
        print(
            f"cleared {cache.root} "
            f"({stats['cells']} cells, {stats['instances']} instances, "
            f"{stats['manifests']} manifests)"
        )
        return 0
    except CacheMergeConflictError as exc:
        print(f"merge conflict: {exc}", file=sys.stderr)
        return EXIT_MERGE_CONFLICT
    except SweepConfigError as exc:
        parser.error(str(exc))
        return 1  # pragma: no cover - parser.error raises SystemExit


#: Distribution names the adaptive CLI's --workload JSON accepts.
WORKLOAD_DISTRIBUTIONS = (
    "bing", "finance", "lognormal", "uniform", "constant", "exponential",
)


def _parse_json_arg(parser, name: str, raw: str, expect: type):
    """Parse one --flag JSON payload, failing as a usage error."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        parser.error(f"{name} is not valid JSON: {exc}")
    if not isinstance(value, expect):
        parser.error(
            f"{name} must be a JSON {expect.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _build_workload(parser, raw: str, m: int):
    """A WorkloadSpec from the --workload JSON payload.

    Keys: ``distribution`` (one of :data:`WORKLOAD_DISTRIBUTIONS`, with
    optional ``distribution_args``), plus any
    :class:`~repro.workloads.generator.WorkloadSpec` field
    (``qps``/``n_jobs`` required; ``m`` defaults to the run's --m).
    """
    from repro.workloads import distributions as dist_mod
    from repro.workloads.generator import WorkloadSpec

    payload = _parse_json_arg(parser, "--workload", raw, dict)
    name = payload.pop("distribution", "bing")
    dist_args = payload.pop("distribution_args", {})
    classes = {
        "bing": dist_mod.BingDistribution,
        "finance": dist_mod.FinanceDistribution,
        "lognormal": dist_mod.LogNormalDistribution,
        "uniform": dist_mod.UniformDistribution,
        "constant": dist_mod.ConstantDistribution,
        "exponential": dist_mod.ExponentialDistribution,
    }
    if name not in classes:
        parser.error(
            f"--workload distribution must be one of "
            f"{sorted(classes)}, got {name!r}"
        )
    missing = [key for key in ("qps", "n_jobs") if key not in payload]
    if missing:
        parser.error(f"--workload JSON needs {missing}")
    payload.setdefault("m", m)
    try:
        return WorkloadSpec(classes[name](**dist_args), **payload)
    except TypeError as exc:
        parser.error(f"--workload: {exc}")


def _build_scheduler(parser, name: str, fixed_raw: str | None):
    """A scheduler factory from --scheduler (+ optional --fixed JSON).

    ``name`` is anything :func:`repro.api._as_factory` takes as a
    string (an engine name); ``--fixed`` pins scheduler keyword
    arguments outside the searched space (e.g. ``'{"k": 16}'`` while
    bisecting speed).
    """
    import functools

    from repro.api import _as_factory
    from repro.errors import SweepConfigError

    try:
        factory = _as_factory(name)
    except (SweepConfigError, TypeError) as exc:
        parser.error(str(exc))
    if fixed_raw is None:
        return factory
    fixed = _parse_json_arg(parser, "--fixed", fixed_raw, dict)
    return functools.partial(factory, **fixed)


def _adaptive_main(argv: list[str]) -> int:
    """The ``search`` / ``ablate`` CLI (ISSUE 9).

    Exit codes follow :mod:`repro.experiments.exitcodes`:
    :data:`EXIT_OK` on success, argparse's 2 on usage errors (including
    :class:`~repro.errors.SweepConfigError` from the harness), and
    :data:`EXIT_SEARCH_INFEASIBLE` when ``search --budget`` proves no
    candidate qualifies.
    """
    command = argv[0]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {command}",
        description={
            "search": (
                "Adaptive search: successive halving over a JSON "
                "space, or (with --budget) bisection for the smallest "
                "candidate meeting a flow-time budget.  Every "
                "evaluation is a cached, byte-identical sweep cell."
            ),
            "ablate": (
                "Declarative ablation: a baseline plus named deltas, "
                "run on identical instances, ranked by impact on the "
                "objective."
            ),
        }[command],
    )
    parser.add_argument(
        "--scheduler",
        default="work-stealing",
        help=(
            "engine name (work-stealing, flat, speedup-fifo, "
            "speedup-equi); combine with --fixed to pin scheduler "
            "parameters"
        ),
    )
    parser.add_argument(
        "--fixed",
        default=None,
        metavar="JSON",
        help='pinned scheduler kwargs, e.g. \'{"k": 16}\'',
    )
    parser.add_argument(
        "--workload",
        required=True,
        metavar="JSON",
        help=(
            'workload spec, e.g. \'{"distribution": "bing", '
            '"qps": 1200, "n_jobs": 1500}\' (any WorkloadSpec field; '
            "distribution_args feed the distribution constructor)"
        ),
    )
    parser.add_argument("--m", type=int, required=True, help="machine size")
    parser.add_argument(
        "--speed", type=float, default=1.0, help="speed augmentation factor"
    )
    parser.add_argument(
        "--objective", default="max_flow", help="metric to minimize"
    )
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "content-addressed cell cache (default: REPRO_CACHE, else "
            ".repro_cache/); reruns against the same directory are "
            "nearly all cache hits"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes"
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append JSONL telemetry (search.*/ablate.* events) to PATH",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the structured result as JSON instead of the summary",
    )
    if command == "search":
        parser.add_argument(
            "--space",
            required=True,
            metavar="JSON",
            help=(
                'candidate space, e.g. \'{"k": [0, 4, 16, 64]}\'; with '
                "--budget it must hold exactly one ascending axis "
                '(which may be "speed"/"augmentation")'
            ),
        )
        parser.add_argument(
            "--budget",
            type=float,
            default=None,
            help=(
                "threshold mode: find the smallest candidate with "
                "objective <= BUDGET (exit 3 when none qualifies)"
            ),
        )
        parser.add_argument(
            "--r0", type=int, default=1, help="round-0 repetitions (halving)"
        )
        parser.add_argument(
            "--eta", type=int, default=2,
            help="keep 1/eta of candidates per round (halving)",
        )
        parser.add_argument(
            "--rounds", type=int, default=None, help="halving round count"
        )
        parser.add_argument(
            "--reps", type=int, default=1,
            help="repetitions per probe (threshold mode)",
        )
        parser.add_argument(
            "--refine", choices=["ga"], default=None,
            help="append a GA refinement stage after halving",
        )
    else:
        parser.add_argument(
            "--baseline",
            default="{}",
            metavar="JSON",
            help='baseline knob overrides, e.g. \'{"k": 16}\'',
        )
        parser.add_argument(
            "--deltas",
            required=True,
            metavar="JSON",
            help=(
                "named deltas, e.g. '{\"no-steal\": {\"k\": 0}, "
                '"half-m": {"m": 8}}\' (scheduler params, m/num_workers, '
                "speed/augmentation, workload.<field>)"
            ),
        )
        parser.add_argument(
            "--reps", type=int, default=1, help="repetitions per config"
        )
        parser.add_argument(
            "--markdown",
            action="store_true",
            help="print the report as a markdown table",
        )
    args = parser.parse_args(argv[1:])

    import os

    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    telemetry = None
    if args.telemetry is not None:
        from repro.obs import Telemetry

        telemetry = Telemetry(args.telemetry)
    cache = args.cache_dir  # None lets the harness resolve REPRO_CACHE

    from repro.errors import SearchInfeasibleError, SweepConfigError

    workload = _build_workload(parser, args.workload, args.m)
    factory = _build_scheduler(parser, args.scheduler, args.fixed)
    try:
        if command == "search":
            import repro

            space = _parse_json_arg(parser, "--space", args.space, dict)
            result = repro.search(
                factory,
                space,
                workload,
                m=args.m,
                speed=args.speed,
                budget=args.budget,
                objective=args.objective,
                r0=args.r0,
                eta=args.eta,
                rounds=args.rounds,
                reps=args.reps,
                seed=args.seed,
                refine=args.refine,
                cache=cache,
                telemetry=telemetry,
            )
            print(
                json.dumps(result.as_dict(), indent=2)
                if args.json
                else result.summary()
            )
        else:
            import repro

            baseline = _parse_json_arg(
                parser, "--baseline", args.baseline, dict
            )
            deltas = _parse_json_arg(parser, "--deltas", args.deltas, dict)
            report = repro.ablate(
                factory,
                baseline,
                deltas,
                workload,
                m=args.m,
                speed=args.speed,
                objective=args.objective,
                reps=args.reps,
                seed=args.seed,
                cache=cache,
                telemetry=telemetry,
            )
            if args.json:
                print(json.dumps(report.as_dict(), indent=2))
            elif args.markdown:
                print(report.to_markdown())
            else:
                print(report.summary())
    except SearchInfeasibleError as exc:
        print(f"search infeasible: {exc}", file=sys.stderr)
        return EXIT_SEARCH_INFEASIBLE
    except (SweepConfigError, TypeError) as exc:
        parser.error(str(exc))
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"(telemetry written to {telemetry.path})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in MAINTENANCE_COMMANDS:
        return _maintenance_main(list(argv))
    if argv and argv[0] in ADAPTIVE_COMMANDS:
        return _adaptive_main(list(argv))
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures (see DESIGN.md).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "verify", "telemetry"],
        help=(
            "experiment id, 'all', 'verify' (smoke-check every shape), "
            "or 'telemetry' (summarize + audit an event log)"
        ),
    )
    parser.add_argument(
        "log",
        nargs="?",
        default=None,
        help="event log to summarize (the 'telemetry' command only)",
    )
    parser.add_argument(
        "--n-jobs", type=int, default=None,
        help=(
            f"jobs per data point (fig2 experiments, default "
            f"{SCALE_STANDARD.n_jobs}; verify, default {VERIFY_N_JOBS})"
        ),
    )
    parser.add_argument(
        "--reps", type=int, default=SCALE_STANDARD.reps,
        help="repetitions per data point (fig2 experiments)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for parallel experiment cells (default: "
            "the REPRO_JOBS environment variable, else the CPU count; "
            "1 forces serial execution).  Cell seeds derive from cell "
            "coordinates, so the value never changes the numbers."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=(
            "content-addressed cache directory for instances and cell "
            "results (default: the REPRO_CACHE environment variable, "
            "else .repro_cache/)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve previously computed cells from the cache instead of "
            "recomputing them; cached values are the exact floats of "
            "the original run, so results are bit-identical"
        ),
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell deadline for parallel experiment cells (default: "
            "the REPRO_CELL_TIMEOUT environment variable, else no "
            "deadline).  An expired cell's worker is terminated and the "
            "cell is retried from its coordinate-derived seed, so the "
            "value never changes the numbers."
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry budget per crashed or deadline-expired cell "
            "(default: the REPRO_RETRIES environment variable, else 2; "
            "0 disables retries).  Exhaustion aborts the sweep with "
            "CellCrashedError / CellTimeoutError."
        ),
    )
    parser.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "append structured run telemetry (JSONL events; see "
            "docs/OBSERVABILITY.md) to PATH while experiments run, and "
            "write run manifests next to the cache dir; summarize the "
            "log afterwards with 'python -m repro.experiments "
            "telemetry PATH'.  Never changes any result."
        ),
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each series experiment as an ASCII chart",
    )
    parser.add_argument(
        "--json-dir",
        type=str,
        default=None,
        help=(
            "also write each experiment's structured series as "
            "<json-dir>/<id>.json (x values, series, title, seed) for "
            "downstream plotting"
        ),
    )
    args = parser.parse_args(argv)

    if args.experiment == "telemetry":
        if args.log is None:
            parser.error("telemetry requires an event-log path")
        from repro.obs import audit_events, read_events, summarize_events

        log_path = Path(args.log)
        if not log_path.exists():
            parser.error(f"no such event log: {log_path}")
        events = read_events(log_path)
        print(summarize_events(events))
        print()
        problems = audit_events(events)
        if problems:
            print(f"audit: {len(problems)} problem(s)")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("audit: ok")
        return 0
    if args.log is not None:
        parser.error("a log path only accompanies the 'telemetry' command")

    # Route runtime knobs through their environment overrides rather
    # than threading parameters into every dispatch entry; parallel
    # cells and caches resolve them via repro.experiments.parallel and
    # repro.experiments.cache (and repro.obs.telemetry for --telemetry).
    import os

    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.cache_dir is not None:
        from repro.experiments.cache import CACHE_ENV

        os.environ[CACHE_ENV] = args.cache_dir
    if args.resume:
        from repro.experiments.cache import RESUME_ENV

        os.environ[RESUME_ENV] = "1"
    if args.cell_timeout is not None:
        from repro.experiments.parallel import CELL_TIMEOUT_ENV

        os.environ[CELL_TIMEOUT_ENV] = str(args.cell_timeout)
    if args.retries is not None:
        from repro.experiments.parallel import RETRIES_ENV

        os.environ[RETRIES_ENV] = str(args.retries)
    if args.telemetry is not None:
        from repro.obs.telemetry import TELEMETRY_ENV

        os.environ[TELEMETRY_ENV] = args.telemetry

    if args.experiment == "verify":
        from repro.experiments.verify import render_verification, verify_reproduction

        t0 = time.perf_counter()
        n_jobs = VERIFY_N_JOBS if args.n_jobs is None else args.n_jobs
        checks = verify_reproduction(
            ExperimentScale(n_jobs=n_jobs, reps=1), args.seed
        )
        print(render_verification(checks))
        print(f"-- verify done in {time.perf_counter() - t0:.1f}s")
        _close_env_telemetry(args)
        return 0 if all(c.passed for c in checks) else 1

    scale = ExperimentScale(
        n_jobs=SCALE_STANDARD.n_jobs if args.n_jobs is None else args.n_jobs,
        reps=args.reps,
    )
    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for exp_id in ids:
        t0 = time.perf_counter()
        print(f"== {exp_id}: {EXPERIMENTS[exp_id]} ==")
        result = DISPATCH[exp_id](scale, args.seed)
        if isinstance(result, str):
            print(result)
        else:
            print(result.render())
            if args.chart:
                print()
                print(result.render_chart())
            if args.json_dir is not None:
                out_dir = Path(args.json_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                scaled = exp_id in FIG2_PANELS
                payload = {
                    "experiment": exp_id,
                    "title": result.title,
                    "x_label": result.x_label,
                    "x_values": result.x_values,
                    "series": result.series,
                    "notes": result.notes,
                    "seed": args.seed,
                    "n_jobs": scale.n_jobs if scaled else None,
                    "reps": scale.reps if scaled else None,
                }
                path = out_dir / f"{exp_id}.json"
                path.write_text(json.dumps(payload, indent=2))
                print(f"(series written to {path})")
        print(f"-- {exp_id} done in {time.perf_counter() - t0:.1f}s\n")
    _close_env_telemetry(args)
    return 0


def _close_env_telemetry(args) -> None:
    """Flush and close the ``--telemetry`` sink, printing where it went."""
    if getattr(args, "telemetry", None) is None:
        return
    from repro.obs.telemetry import default_telemetry

    tel = default_telemetry()
    if tel is not None:
        tel.close()
        print(f"(telemetry written to {tel.path})")


if __name__ == "__main__":
    sys.exit(main())
