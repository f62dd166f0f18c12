"""Reproduction harness for the paper's evaluation (Section 6).

One entry point per paper artifact, each returning structured data and a
paper-style text rendering:

* :func:`~repro.experiments.figures.figure2` -- max flow vs QPS for the
  Bing / finance / log-normal workloads (Figures 2a-2c);
* :func:`~repro.experiments.figures.figure3` -- the work-distribution
  histograms (Figures 3a-3b);
* :func:`~repro.experiments.figures.lower_bound_experiment` -- the
  Lemma 5.1 ``Omega(log n)`` scaling study;
* :func:`~repro.experiments.figures.speed_augmentation_experiment` --
  the Theorem 3.1 / 7.1 envelope sweeps;
* :func:`~repro.experiments.figures.k_sweep_experiment` and
  :func:`~repro.experiments.figures.load_sweep_experiment` -- the
  Section 4/6 discussion ablations.

Command line: ``python -m repro.experiments <fig2a|fig2b|fig2c|fig3|lb5|
thm31|thm71|abl-k|abl-load|all> [--n-jobs N] [--seed S] [--reps R]
[--jobs W]``.

Experiment cells fan out across a process pool (``--jobs`` / the
``REPRO_JOBS`` environment variable / CPU count, in that order of
precedence); cell seeds derive from cell coordinates, so parallel and
serial runs are bit-identical.  See :mod:`repro.experiments.parallel`.

With ``--resume`` (or ``REPRO_RESUME=1``) previously computed cells are
served from the content-addressed cache (``--cache-dir`` / the
``REPRO_CACHE`` environment variable / ``.repro_cache/``); cached
values are the exact floats of the original run.  See
:mod:`repro.experiments.cache`.

The pool is supervised (ISSUE 4): ``--cell-timeout`` /
``REPRO_CELL_TIMEOUT`` bounds each cell's wall time, ``--retries`` /
``REPRO_RETRIES`` bounds how often a crashed or hung cell is re-run
(from its coordinate-derived seed, so recovery never changes a number),
broken pools are respawned, and completed cells are checkpointed into
the cache as they finish.  See docs/ROBUSTNESS.md.

Sweeps also scale *out* (ISSUE 8): ``repro.sweep(shard=(i, n),
cache=...)`` runs one deterministic slice of the grid per host, and
``python -m repro.experiments merge-cache <src>... --dest <dir>`` /
``merge-telemetry`` combine shard caches and event logs losslessly --
content-hash conflict detection, provenance-bearing errors, and
resume-after-merge bit-identical to a single-host sweep.  See
:mod:`repro.experiments.shard` and EXPERIMENTS.md.

Adaptive experimentation (ISSUE 9): ``python -m repro.experiments
search`` / ``ablate`` (and the :func:`repro.search` /
:func:`repro.ablate` facades) answer threshold and which-knob-matters
questions on top of the cached sweep path; see
:mod:`repro.experiments.search` / :mod:`repro.experiments.ablate`.
Subcommand exit codes live in :mod:`repro.experiments.exitcodes`.
"""

from repro.experiments.ablate import AblationDelta, AblationReport, ablate
from repro.experiments.cache import (
    SweepCache,
    cell_key,
    resolve_cache_dir,
    resume_enabled_by_env,
)
from repro.experiments.config import (
    EXPERIMENTS,
    ExperimentScale,
    Figure2Config,
    FIG2A,
    FIG2B,
    FIG2C,
    SCALE_PAPER,
    SCALE_QUICK,
    SCALE_STANDARD,
)
from repro.experiments.parallel import (
    backoff_schedule,
    default_cell_timeout,
    default_retries,
    default_workers,
    parallel_map,
)
from repro.experiments.runner import (
    run_figure2_cell,
    run_schedulers,
)
from repro.experiments.figures import (
    burstiness_experiment,
    figure2,
    figure3,
    grain_experiment,
    k_sweep_experiment,
    load_sweep_experiment,
    lower_bound_experiment,
    makespan_experiment,
    overheads_experiment,
    scheduler_comparison_experiment,
    single_job_scaling_experiment,
    speed_augmentation_experiment,
    steal_policy_experiment,
    weighted_experiment,
    weighted_work_stealing_experiment,
    norm_profile_experiment,
    speedup_contrast_experiment,
)
from repro.experiments.report import render_chart, render_histogram, render_series
from repro.experiments.shard import (
    MergeReport,
    ShardManifest,
    ShardSpec,
    grid_digest,
    load_shard_manifests,
    merge_caches,
    merge_telemetry,
    parse_shard,
    shard_cells,
)
from repro.experiments.search import (
    SearchResult,
    SearchRound,
    successive_halving,
    threshold_search,
)
from repro.experiments.sweep import METRICS, SweepCell, SweepResult
from repro.experiments.verify import (
    ShapeCheck,
    render_verification,
    verify_reproduction,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentScale",
    "Figure2Config",
    "FIG2A",
    "FIG2B",
    "FIG2C",
    "SCALE_PAPER",
    "SCALE_QUICK",
    "SCALE_STANDARD",
    "SweepCache",
    "cell_key",
    "resolve_cache_dir",
    "resume_enabled_by_env",
    "backoff_schedule",
    "default_cell_timeout",
    "default_retries",
    "default_workers",
    "parallel_map",
    "run_figure2_cell",
    "run_schedulers",
    "figure2",
    "figure3",
    "lower_bound_experiment",
    "makespan_experiment",
    "overheads_experiment",
    "speed_augmentation_experiment",
    "burstiness_experiment",
    "grain_experiment",
    "k_sweep_experiment",
    "load_sweep_experiment",
    "scheduler_comparison_experiment",
    "single_job_scaling_experiment",
    "steal_policy_experiment",
    "weighted_experiment",
    "weighted_work_stealing_experiment",
    "norm_profile_experiment",
    "speedup_contrast_experiment",
    "render_series",
    "render_histogram",
    "render_chart",
    "ShapeCheck",
    "SweepResult",
    "SweepCell",
    "METRICS",
    # adaptive experimentation (ISSUE 9)
    "SearchResult",
    "SearchRound",
    "successive_halving",
    "threshold_search",
    "AblationDelta",
    "AblationReport",
    "ablate",
    "ShardSpec",
    "ShardManifest",
    "MergeReport",
    "parse_shard",
    "shard_cells",
    "grid_digest",
    "load_shard_manifests",
    "merge_caches",
    "merge_telemetry",
    "verify_reproduction",
    "render_verification",
]
