"""Workload assembly: distribution + arrivals + job shape -> JobSet.

This module reproduces the paper's Section 6 setup: jobs whose total work
is drawn from a distribution, whose bodies are "parallelized using
parallel for loops", arriving by a Poisson process at a queries-per-second
(QPS) rate chosen to hit a target machine utilization.

Units
-----
* Work is sampled in **milliseconds** (the unit of Figure 3) and
  converted to integer simulation *work units* via ``units_per_ms``.
* One simulation time unit is the time a speed-1 processor needs for one
  work unit, so 1 ms of real time equals ``units_per_ms`` time units.
* A QPS of ``q`` therefore corresponds to an arrival rate of
  ``q / (1000 * units_per_ms)`` jobs per time unit
  (:func:`qps_to_rate`).

Utilization accounting (how the paper's QPS labels map to load):
``utilization = qps * mean_work_seconds / m``.  With the default
``mean_ms = 10`` and ``m = 16``, QPS 800 / 1000 / 1200 give 50% / 62.5% /
75% -- the paper's low / medium / high load points.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dag.flat import FlatInstance, _with_job_spans, to_jobset
from repro.dag.job import JobSet
from repro.sim.rng import SeedLike, spawn_rngs
from repro.workloads.arrivals import ArrivalProcess, PoissonProcess
from repro.workloads.distributions import WorkDistribution


def _parallel_for_flat(
    works: np.ndarray,
    arrivals: np.ndarray,
    *,
    target_chunks: int,
    setup_units: int,
    finalize_units: int,
    weights: Optional[np.ndarray] = None,
) -> FlatInstance:
    """CSR assembly of parallel-for jobs from (works, arrivals) arrays.

    The one generator of parallel-for instances, called by
    :meth:`WorkloadSpec.build_flat` (whose JobSet view is ``build``),
    stream segments, trace replay and the makespan batch
    (``experiments.figures.makespan_experiment``).  One batch of numpy
    operations builds every job's ``[setup, chunk_1..chunk_c, finalize]``
    DAG with the same arithmetic as :func:`repro.dag.builders.parallel_for`,
    and seeds the instance's :attr:`~repro.dag.flat.FlatInstance.job_spans`
    in closed form.  ``works`` must already
    be positive int64 job bodies, ``setup_units``/``finalize_units``
    positive and ``arrivals`` sorted -- callers validate and own the
    ordering policy.  ``weights`` defaults to 1.0 per job.
    """
    works = np.asarray(works, dtype=np.int64)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    n = len(works)
    if weights is None:
        weights = np.ones(n, dtype=np.float64)

    # Per-job parallel-for decomposition (same arithmetic as
    # parallel_for): ceil-split the body into chunks of <= grain.
    grains = np.maximum(1, works // target_chunks)
    n_full = works // grains
    rem = works - n_full * grains
    n_chunks = n_full + (rem > 0)

    # Node layout per job: [setup, chunk_1..chunk_c, finalize].
    nodes_per_job = n_chunks + 2
    job_node_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nodes_per_job, out=job_node_offsets[1:])
    n_nodes = int(job_node_offsets[-1])
    setup_pos = job_node_offsets[:-1]
    fin_pos = job_node_offsets[1:] - 1

    # Global ids of every chunk node, jobs concatenated in order.
    total_chunks = int(n_chunks.sum())
    chunk_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_chunks, out=chunk_starts[1:])
    within = np.arange(total_chunks, dtype=np.int64) - np.repeat(
        chunk_starts[:-1], n_chunks
    )
    chunk_global = np.repeat(setup_pos + 1, n_chunks) + within

    # Chunk works: `grain` everywhere, the job's last chunk holds the
    # remainder when the split is uneven.
    chunk_works = np.repeat(grains, n_chunks)
    has_rem = rem > 0
    chunk_works[chunk_starts[1:][has_rem] - 1] = rem[has_rem]

    node_works = np.empty(n_nodes, dtype=np.int64)
    node_works[setup_pos] = setup_units
    node_works[fin_pos] = finalize_units
    node_works[chunk_global] = chunk_works

    # CSR edges: setup -> every chunk, every chunk -> finalize.
    out_degree = np.zeros(n_nodes, dtype=np.int64)
    out_degree[setup_pos] = n_chunks
    out_degree[chunk_global] = 1
    edge_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(out_degree, out=edge_offsets[1:])
    edge_targets = np.empty(2 * total_chunks, dtype=np.int64)
    fork_slots = np.repeat(edge_offsets[setup_pos], n_chunks) + within
    edge_targets[fork_slots] = chunk_global
    edge_targets[edge_offsets[chunk_global]] = np.repeat(fin_pos, n_chunks)

    flat = FlatInstance(
        node_works=node_works,
        edge_offsets=edge_offsets,
        edge_targets=edge_targets,
        job_node_offsets=job_node_offsets,
        arrivals=arrivals,
        weights=weights,
    )
    # Every path is setup -> one chunk -> finalize, and no chunk
    # exceeds the grain.
    return _with_job_spans(flat, setup_units + grains + finalize_units)


def qps_to_rate(qps: float, units_per_ms: float = 4.0) -> float:
    """Convert queries-per-second to arrivals per simulation time unit."""
    if qps <= 0:
        raise ValueError(f"qps must be positive, got {qps}")
    if units_per_ms <= 0:
        raise ValueError(f"units_per_ms must be positive, got {units_per_ms}")
    return qps / (1000.0 * units_per_ms)


def expected_utilization(qps: float, mean_work_ms: float, m: int) -> float:
    """Offered load of a (qps, mean work, machine size) combination.

    ``qps * mean_work_ms / 1000`` is the offered work in
    processor-seconds per second; dividing by ``m`` normalizes to the
    machine.  Values >= 1 mean an overloaded system whose backlog (and
    max flow time) grows without bound.
    """
    if m < 1:
        raise ValueError(f"need at least one processor, got m={m}")
    return qps * (mean_work_ms / 1000.0) / m


@dataclass
class WorkloadSpec:
    """Declarative description of one experimental workload.

    Attributes
    ----------
    distribution:
        Per-job total-work distribution (milliseconds).
    qps:
        Arrival rate in queries per second -- the x-axis of Figure 2.
    n_jobs:
        Number of jobs to generate (the paper uses 100,000 per point;
        the default harness scales this down -- see DESIGN.md).
    m:
        Machine size the workload targets (used only for utilization
        accounting, not generation).
    units_per_ms:
        Simulation resolution (work units per millisecond).
    target_chunks:
        Parallel-for decomposition: each job's body is split into about
        this many independent chunks, emulating TBB's auto-partitioning.
        Must be >= 1; chunk grain is ``max(1, body_work // target_chunks)``.
    setup_units / finalize_units:
        Serial prologue/epilogue work of each job, in units; must be >= 1.
    arrival_process:
        Override the arrival process; defaults to Poisson at
        ``qps_to_rate(qps, units_per_ms)`` as in the paper.
    """

    distribution: WorkDistribution
    qps: float
    n_jobs: int
    m: int = 16
    units_per_ms: float = 4.0
    target_chunks: int = 32
    setup_units: int = 1
    finalize_units: int = 1
    arrival_process: Optional[ArrivalProcess] = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.target_chunks < 1:
            raise ValueError(f"target_chunks must be >= 1, got {self.target_chunks}")
        if min(self.setup_units, self.finalize_units) < 1:
            raise ValueError(
                f"setup_units and finalize_units must be >= 1, got "
                f"{self.setup_units} and {self.finalize_units}"
            )
        if self.qps <= 0:
            raise ValueError(f"qps must be positive, got {self.qps}")

    @property
    def rate(self) -> float:
        """Arrival rate in jobs per simulation time unit."""
        return qps_to_rate(self.qps, self.units_per_ms)

    @property
    def utilization(self) -> float:
        """Expected offered load of this spec on its ``m`` processors."""
        return expected_utilization(self.qps, self.distribution.mean_ms, self.m)

    def __call__(self, seed: SeedLike = None) -> JobSet:
        """Alias for :meth:`build`, so a spec *is* a jobset factory.

        :func:`repro.sweep` and friends accept any ``Callable[[int], JobSet]``;
        passing the spec itself (instead of a lambda around it) keeps the
        factory picklable for process pools and lets the sweep layer
        discover :meth:`cache_key`/:meth:`build_flat` for instance
        caching and zero-copy dispatch.
        """
        return self.build(seed)

    def _sample(self, seed: SeedLike) -> "tuple[np.ndarray, np.ndarray]":
        """Draw (works, arrivals) -- the only randomness in a build.

        The seed fans out into independent streams for work sampling and
        arrival generation, so changing one never perturbs the other
        (paired-comparison hygiene across sweeps).
        """
        work_rng, arrival_rng = spawn_rngs(seed, 2)
        works = self.distribution.sample_units(
            work_rng, self.n_jobs, units_per_ms=self.units_per_ms
        )
        process = self.arrival_process or PoissonProcess(self.rate)
        arrivals = np.asarray(
            process.generate(arrival_rng, self.n_jobs), dtype=np.float64
        )
        return works, arrivals

    def build(self, seed: SeedLike = None) -> JobSet:
        """Materialize the workload into a :class:`JobSet`.

        The :func:`~repro.dag.flat.to_jobset` view of :meth:`build_flat`:
        it holds that flat (``flatten_jobset(spec.build(s))`` returns
        it) and builds its jobs only when iterated, where identical
        bodies share one :class:`JobDag` with every other view in the
        process (the shape map).
        """
        return to_jobset(self.build_flat(seed))

    def build_flat(self, seed: SeedLike = None) -> FlatInstance:
        """Materialize the workload directly as a :class:`FlatInstance`.

        Constructs the CSR arrays of every parallel-for job in one batch
        of numpy operations -- no per-job Python loop, no intermediate
        object graph.  The arrays equal the flattened per-job
        :func:`~repro.dag.builders.parallel_for` construction (asserted by
        ``tests/workloads/test_generator.py``); :meth:`build` and
        ``to_jobset`` recover the object view when an engine needs it.
        """
        works, arrivals = self._sample(seed)
        # JobSet orders jobs by (arrival, generation index); mirror it so
        # job i of the flat is job i of the JobSet view.
        order = np.argsort(arrivals, kind="stable")
        return _parallel_for_flat(
            works[order],
            arrivals[order],
            target_chunks=self.target_chunks,
            setup_units=self.setup_units,
            finalize_units=self.finalize_units,
        )

    def stream(self, chunk_jobs: int = 65536) -> "StreamSpec":
        """Lazy chunked view of this workload for bounded-memory runs.

        Returns a :class:`repro.workloads.stream.StreamSpec` that yields
        the workload as CSR segments of ``chunk_jobs`` jobs each without
        ever materializing the full instance -- the input side of
        ``repro.run(..., stream=...)`` (docs/STREAMING.md).
        """
        from repro.workloads.stream import StreamSpec

        return StreamSpec(spec=self, chunk_jobs=chunk_jobs)

    # -- cache identity ---------------------------------------------------

    def spec_token(self) -> str:
        """Canonical string capturing everything generation depends on."""
        process = self.arrival_process or PoissonProcess(self.rate)
        return (
            f"WorkloadSpec(distribution={self.distribution.token()},"
            f"qps={self.qps!r},n_jobs={self.n_jobs!r},"
            f"units_per_ms={self.units_per_ms!r},"
            f"target_chunks={self.target_chunks!r},"
            f"setup_units={self.setup_units!r},"
            f"finalize_units={self.finalize_units!r},"
            f"arrivals={process.token()})"
        )

    def cache_key(self, seed: int) -> str:
        """Content key for the instance cache: spec hash + derived seed.

        Two specs produce the same key iff their tokens and seeds agree,
        in which case their built instances are identical -- the
        invariant :mod:`repro.experiments.cache` relies on.
        """
        digest = hashlib.sha256(
            f"{self.spec_token()}|seed={int(seed)}".encode()
        ).hexdigest()
        return digest

    def describe(self) -> str:
        """One-line human-readable summary for experiment logs."""
        return (
            f"{self.distribution.name} qps={self.qps:g} n={self.n_jobs} "
            f"m={self.m} util~{self.utilization:.0%} "
            f"mean={self.distribution.mean_ms:g}ms"
        )
