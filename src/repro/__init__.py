"""repro -- online scheduling of parallelizable DAG jobs for max flow time.

A production-quality reproduction of

    Kunal Agrawal, Jing Li, Kefu Lu, Benjamin Moseley.
    "Scheduling Parallelizable Jobs Online to Minimize the Maximum Flow
    Time." SPAA 2016.

The library provides:

* a dynamic-multithreaded (DAG) job model (:mod:`repro.dag`);
* exact simulation engines for centralized preemptive scheduling and for
  randomized work stealing with unit-time steal attempts
  (:mod:`repro.sim`);
* the paper's schedulers -- FIFO, BWF, admit-first and steal-k-first work
  stealing -- plus the simulated-OPT lower bound and contrast baselines
  (:mod:`repro.core`);
* workload generators for the paper's Bing / finance / log-normal
  experiments and the Section 5 adversarial lower-bound instance
  (:mod:`repro.workloads`);
* flow-time metrics (:mod:`repro.metrics`), the theorems' bound formulas
  with run-vs-bound validators (:mod:`repro.theory`), and a harness that
  regenerates every figure of the paper's evaluation
  (:mod:`repro.experiments`).

Quickstart
----------
>>> import repro
>>> from repro import (FifoScheduler, WorkStealingScheduler, OptLowerBound,
...                    parallel_for, jobs_from_dags)
>>> dags = [parallel_for(total_body_work=64, grain=8) for _ in range(20)]
>>> jobs = jobs_from_dags(dags, arrivals=[2.0 * i for i in range(20)])
>>> opt = repro.run(OptLowerBound(), jobs, m=4)
>>> ws = repro.run(WorkStealingScheduler(k=4), jobs, m=4, seed=0)
>>> opt.max_flow <= ws.max_flow
True

:func:`repro.run` is the single entrypoint for every engine (scheduler
instances, ``"work-stealing"``, ``"speedup-fifo"``, ``"speedup-equi"``)
and the attachment point for :class:`repro.obs.Telemetry`
observability; see docs/OBSERVABILITY.md.

:func:`repro.sweep` is its grid-scale sibling: the same scheduler forms
crossed over a parameter grid on a fault-tolerant process pool (per-cell
deadlines, bounded deterministic retries, pool respawn, lossless
``resume=True`` checkpointing); see docs/ROBUSTNESS.md.  Failures
surface as the typed :mod:`repro.errors` hierarchy (all subclasses of
:class:`repro.errors.ReproError`).

Sweeps scale across hosts: ``repro.sweep(shard=(i, n), cache=...)``
runs a deterministic slice of the grid, and :func:`repro.merge_caches`
combines the shard caches into one resumable cache (content-hash
conflict detection, bit-identical resume-after-merge); see
EXPERIMENTS.md.

:func:`repro.search` and :func:`repro.ablate` answer *questions* on top
of the cached sweep path: deterministic successive halving / bisection
over a candidate space (including the paper's minimum speed
augmentation meeting a flow-time budget), and declarative baseline +
deltas ablation reports -- every candidate evaluation is a cached,
byte-identical sweep cell, so refinement and repetition are nearly
free; see EXPERIMENTS.md ("Ask a question, not a grid").
"""

# First: starts the compiled kernel's build in the background, so it
# overlaps the rest of the import (see repro.sim._cext).
import repro.sim._cext  # noqa: F401  isort: skip

from repro.core import (
    AdmitFirstScheduler,
    BwfScheduler,
    FifoScheduler,
    LifoScheduler,
    OptLowerBound,
    RandomPriorityScheduler,
    Scheduler,
    SjfScheduler,
    WorkStealingScheduler,
    opt_lower_bound,
)
from repro.dag import (
    DagBuilder,
    Job,
    JobDag,
    JobSet,
    adversarial_fork,
    balanced_tree,
    chain,
    diamond,
    fork_join,
    jobs_from_dags,
    map_reduce,
    parallel_chains,
    parallel_for,
    random_layered_dag,
    single_node,
)
from repro.dag import (
    FlatInstance,
    content_hash,
    flatten_jobset,
    load_flat,
    save_flat,
    to_jobset,
)
from repro.sim import (
    ScheduleResult,
    SimulationStats,
    TraceRecorder,
    audit_trace,
    derive_seed,
    make_rng,
    run_centralized,
)
from repro.api import ablate, run, search, sweep
from repro.errors import (
    CacheCorruptError,
    CacheMergeConflictError,
    CellCrashedError,
    CellTimeoutError,
    ReproError,
    SearchInfeasibleError,
    SweepConfigError,
    UnkeyableFactoryError,
)
from repro.obs import Telemetry
from repro.sim.stream_engine import StreamResult
from repro.workloads import StreamSpec, WorkloadSpec

__version__ = "1.22.0"


def merge_caches(sources, dest, telemetry=None):
    """Merge sharded sweep caches into one resumable cache.

    Top-level convenience for
    :func:`repro.experiments.shard.merge_caches` (imported lazily so
    ``import repro`` stays light); see that function for the full
    contract -- verbatim copies for new keys, silent tolerance of
    identical overlap, and a provenance-bearing
    :class:`~repro.errors.CacheMergeConflictError` when the same key
    holds different content.
    """
    from repro.experiments.shard import merge_caches as _merge

    return _merge(sources, dest, telemetry=telemetry)


__all__ = [
    "__version__",
    # unified entrypoints + observability (ISSUE 3 / ISSUE 4)
    "run",
    "sweep",
    "merge_caches",
    "Telemetry",
    # adaptive experimentation (ISSUE 9)
    "search",
    "ablate",
    # typed error hierarchy (ISSUE 4)
    "ReproError",
    "SweepConfigError",
    "UnkeyableFactoryError",
    "CacheCorruptError",
    "CacheMergeConflictError",
    "CellCrashedError",
    "CellTimeoutError",
    "SearchInfeasibleError",
    # core
    "Scheduler",
    "FifoScheduler",
    "BwfScheduler",
    "WorkStealingScheduler",
    "AdmitFirstScheduler",
    "OptLowerBound",
    "opt_lower_bound",
    "LifoScheduler",
    "SjfScheduler",
    "RandomPriorityScheduler",
    # dag
    "DagBuilder",
    "JobDag",
    "Job",
    "JobSet",
    "jobs_from_dags",
    "single_node",
    "chain",
    "diamond",
    "fork_join",
    "parallel_for",
    "parallel_chains",
    "balanced_tree",
    "map_reduce",
    "adversarial_fork",
    "random_layered_dag",
    # flat interchange format
    "FlatInstance",
    "flatten_jobset",
    "to_jobset",
    "content_hash",
    "save_flat",
    "load_flat",
    # workloads
    "WorkloadSpec",
    # streaming (ISSUE 7)
    "StreamSpec",
    "StreamResult",
    # sim
    "ScheduleResult",
    "SimulationStats",
    "TraceRecorder",
    "audit_trace",
    "derive_seed",
    "make_rng",
    "run_centralized",
]
