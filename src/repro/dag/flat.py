"""Flat CSR interchange format for whole scheduling instances.

A :class:`FlatInstance` encodes a :class:`~repro.dag.job.JobSet` as six
numpy arrays -- the compressed-sparse-row (CSR) layout used by graph
libraries -- instead of a Python object graph:

* ``node_works``        -- ``int64[N]``, per-node work over *all* jobs;
* ``edge_offsets``      -- ``int64[N + 1]``, CSR row pointers: node ``v``'s
  successor ids live in ``edge_targets[edge_offsets[v]:edge_offsets[v+1]]``;
* ``edge_targets``      -- ``int64[E]``, successor node ids (global);
* ``job_node_offsets``  -- ``int64[n_jobs + 1]``, job ``i`` owns the node
  span ``[job_node_offsets[i], job_node_offsets[i+1])``;
* ``arrivals``          -- ``float64[n_jobs]``, release times;
* ``weights``           -- ``float64[n_jobs]``, priority weights.

Node ids are global: job ``i``'s node ``v`` is global id
``job_node_offsets[i] + v``, and every edge stays inside its job's span.

Why it exists (see ISSUE 2): the object graph is the right API for
schedulers, but it is the wrong wire/storage format.  Flat arrays can be
hashed for content-addressed caching, written to disk as a single
``.npz``, and pickled as six array buffers instead of one Python object
per job and node.  The round-trip is lossless: :func:`to_jobset` gives the
exact DAG structure, arrivals and weights that :func:`flatten_jobset`
consumed (asserted by ``tests/dag/test_flat.py``).

The flat is the instance; its :class:`JobSet` is a view.  A set holds
its flat in one field (:func:`to_jobset` puts it there,
:func:`flatten_jobset` fills it for a set built from jobs and returns
it), reads its per-job arrays from it, and builds its :class:`Job`
objects only when a caller iterates or indexes it.  Nothing points from
a flat to a set.  Malformed arrays are refused once per flat
(:func:`_check_flat`), before any view or per-job array reads them.

Per-job spans and works are derived once per flat: in closed form by a
builder that knows them (the parallel-for generator,
:meth:`FlatInstance.tile`, the :func:`flatten_jobset` walk), else from
the arrays (:func:`_span_pass`, ``np.add.reduceat``).  An instance that
releases one DAG many times is built by :meth:`FlatInstance.tile`
without a :class:`Job` or a walk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dag.graph import DagValidationError, JobDag
from repro.dag.job import Job, JobSet

PathLike = Union[str, Path]

#: Array fields of a FlatInstance, in canonical (hash/serialize) order.
_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("node_works", np.int64),
    ("edge_offsets", np.int64),
    ("edge_targets", np.int64),
    ("job_node_offsets", np.int64),
    ("arrivals", np.float64),
    ("weights", np.float64),
)

#: Version stamp folded into :func:`content_hash`.
FLAT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FlatInstance:
    """A whole scheduling instance as six flat numpy arrays (see module doc).

    Arrays are read-only; instances are safe to share between threads.
    """

    node_works: np.ndarray
    edge_offsets: np.ndarray
    edge_targets: np.ndarray
    job_node_offsets: np.ndarray
    arrivals: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _FIELDS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n_jobs = self.n_jobs
        if len(self.arrivals) != n_jobs or len(self.weights) != n_jobs:
            raise ValueError(
                f"arrivals/weights must have one entry per job "
                f"({n_jobs}), got {len(self.arrivals)}/{len(self.weights)}"
            )
        if len(self.edge_offsets) != self.n_nodes + 1:
            raise ValueError(
                f"edge_offsets must have n_nodes + 1 = {self.n_nodes + 1} "
                f"entries, got {len(self.edge_offsets)}"
            )

    # -- shape accessors ----------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the instance."""
        return len(self.job_node_offsets) - 1

    @property
    def n_nodes(self) -> int:
        """Total node count over all jobs."""
        return len(self.node_works)

    @property
    def n_edges(self) -> int:
        """Total precedence-edge count over all jobs."""
        return len(self.edge_targets)

    @property
    def nbytes(self) -> int:
        """Total payload size of the six arrays in bytes."""
        return sum(getattr(self, name).nbytes for name, _ in _FIELDS)

    @property
    def arrivals_sorted(self) -> bool:
        """Whether the jobs are listed in arrival order, the order a
        :class:`JobSet` keeps (cached on the instance)."""
        ok = getattr(self, "_arrivals_sorted_cache", None)
        if ok is None:
            ok = bool(np.all(self.arrivals[1:] >= self.arrivals[:-1]))
            object.__setattr__(self, "_arrivals_sorted_cache", ok)
        return ok

    # -- per-job accessors --------------------------------------------------

    @property
    def job_works(self) -> np.ndarray:
        """Total work ``W_i`` of every job, ``int64[n_jobs]`` (read-only).

        One ``np.add.reduceat`` over the node works, cached on the
        instance; equal to ``to_jobset(self).works``.
        """
        works = getattr(self, "_job_works_cache", None)
        if works is None:
            _check_flat(self)
            works = np.add.reduceat(self.node_works, self.job_node_offsets[:-1])
            works.flags.writeable = False
            object.__setattr__(self, "_job_works_cache", works)
        return works

    @property
    def job_spans(self) -> np.ndarray:
        """Critical-path length ``P_i`` of every job, ``int64[n_jobs]``
        (read-only), in this instance's job order.

        Cached on the instance: set in closed form by a builder that
        knows it (parallel-for jobs, :meth:`tile`) or by
        :func:`flatten_jobset`, else computed once from the arrays by
        :func:`_span_pass`.  Equal to ``to_jobset(self).spans`` where
        arrivals are sorted.
        """
        spans = getattr(self, "_job_spans_cache", None)
        if spans is None:
            spans = _with_job_spans(self, _span_pass(self))._job_spans_cache
        return spans

    @classmethod
    def tile(
        cls,
        dag: JobDag,
        arrivals: Sequence[float],
        weights: Optional[Sequence[float]] = None,
    ) -> "FlatInstance":
        """The instance that releases ``dag`` once per arrival.

        Job ``i`` is ``dag`` released at ``arrivals[i]`` with weight
        ``weights[i]`` (default 1.0).  The arrays are the DAG's CSR
        repeated ``n`` times with node ids shifted by ``i * k`` (``k``
        nodes per job), built in O(nodes) numpy with no per-job Python;
        every job's span and work are recorded in closed form.  Equal to
        :func:`flatten_jobset` of the jobs it describes, listed in the
        given order (unsorted arrivals are sorted by :func:`to_jobset`).
        """
        works, degrees, targets = _dag_csr(dag)
        arrivals = np.asarray(arrivals, dtype=np.float64)
        n = len(arrivals)
        k = len(works)
        edge_offsets = np.zeros(n * k + 1, dtype=np.int64)
        np.cumsum(np.tile(degrees, n), out=edge_offsets[1:])
        shifts = np.arange(n, dtype=np.int64) * k
        flat = cls(
            node_works=np.tile(works, n),
            edge_offsets=edge_offsets,
            edge_targets=(targets[None, :] + shifts[:, None]).ravel(),
            job_node_offsets=np.append(shifts, n * k),
            arrivals=arrivals,
            weights=np.ones(n) if weights is None else weights,
        )
        return _with_job_spans(
            flat,
            np.full(n, dag.span, dtype=np.int64),
            works=np.full(n, dag.total_work, dtype=np.int64),
        )

    def job_slice(self, i: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Job ``i``'s (works, edge_offsets, edge_targets) in local ids.

        The returned ``edge_offsets``/``edge_targets`` are rebased so the
        job reads as a standalone CSR graph with node ids in
        ``[0, n_nodes_i)``.
        """
        lo, hi = int(self.job_node_offsets[i]), int(self.job_node_offsets[i + 1])
        e_lo, e_hi = int(self.edge_offsets[lo]), int(self.edge_offsets[hi])
        return (
            self.node_works[lo:hi],
            self.edge_offsets[lo : hi + 1] - e_lo,
            self.edge_targets[e_lo:e_hi] - lo,
        )

    def __reduce__(self):
        # The arrays only: caches kept on the instance stay in-process.
        return type(self), tuple(getattr(self, name) for name, _ in _FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatInstance):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _FIELDS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatInstance(n_jobs={self.n_jobs}, n_nodes={self.n_nodes}, "
            f"n_edges={self.n_edges})"
        )


# ----------------------------------------------------------------------
# Validation and per-job spans
# ----------------------------------------------------------------------


def _check_csr(flat: FlatInstance) -> None:
    """Raise :class:`ValueError` unless ``flat``'s CSR offsets are sound,
    every edge stays inside its source node's job and every job has a
    root (admission starts a job at its first root).

    The compiled kernel indexes its tables without bounds checks and the
    :class:`JobDag` of a view is built by the trusted
    :meth:`JobDag.from_csr`, so a malformed hand-built instance is
    refused here.  An edge inside its job also lies in ``[0, n_nodes)``.
    """
    n_nodes = flat.n_nodes
    eo = flat.edge_offsets
    et = flat.edge_targets
    jno = flat.job_node_offsets
    if eo[0] != 0 or eo[-1] != len(et) or np.any(eo[1:] < eo[:-1]):
        raise ValueError(
            "malformed FlatInstance: edge_offsets must be non-decreasing, "
            f"start at 0 and end at len(edge_targets) = {len(et)}"
        )
    if jno[0] != 0 or jno[-1] != n_nodes or np.any(jno[1:] < jno[:-1]):
        raise ValueError(
            "malformed FlatInstance: job_node_offsets must be "
            f"non-decreasing, start at 0 and end at n_nodes = {n_nodes}"
        )
    job_edges = np.diff(eo[jno])
    if np.any(
        (et < np.repeat(jno[:-1], job_edges))
        | (et >= np.repeat(jno[1:], job_edges))
    ):
        raise ValueError(
            "malformed FlatInstance: every edge must stay inside its "
            "source node's job"
        )
    has_pred = np.zeros(n_nodes, dtype=bool)
    has_pred[et] = True
    if np.any(jno[1:] == jno[:-1]) or np.any(
        np.logical_and.reduceat(has_pred, jno[:-1])
    ):
        raise ValueError(
            "malformed FlatInstance: every job needs at least one node "
            "without predecessors"
        )


def _check_nodes(flat: FlatInstance) -> None:
    """Raise :class:`DagValidationError` for a node without positive
    work (it would never finish), naming the first one."""
    jno = flat.job_node_offsets
    bad = np.flatnonzero(flat.node_works <= 0)
    if len(bad):
        v = int(bad[0])
        i = int(np.searchsorted(jno, v, side="right")) - 1
        raise DagValidationError(
            f"malformed FlatInstance: node works must be positive (job "
            f"{i}: node {v - int(jno[i])} has non-positive work "
            f"{int(flat.node_works[v])})"
        )


def _check_flat(flat: FlatInstance) -> None:
    """Refuse a malformed instance, once per instance: its node works,
    its CSR arrays, then the bounds :class:`Job` enforces on arrivals
    and weights (a NaN weight leaves weighted admission undefined)."""
    if getattr(flat, "_checked", False):
        return
    _check_nodes(flat)
    _check_csr(flat)
    if not np.all((flat.arrivals >= 0) & (flat.arrivals < np.inf)):
        raise ValueError(
            "malformed FlatInstance: arrivals must be finite and non-negative"
        )
    if not np.all((flat.weights > 0) & (flat.weights < np.inf)):
        raise ValueError(
            "malformed FlatInstance: weights must be finite and positive"
        )
    object.__setattr__(flat, "_checked", True)


def _with_job_spans(
    flat: FlatInstance,
    spans: np.ndarray,
    works: Optional[np.ndarray] = None,
) -> FlatInstance:
    """Cache ``spans`` as ``flat.job_spans``, and ``works`` (if given)
    as ``flat.job_works``: a builder that knows them in closed form calls
    this.  Returns ``flat``."""
    for name, values in (
        ("_job_spans_cache", spans), ("_job_works_cache", works)
    ):
        if values is not None:
            values = np.asarray(values, dtype=np.int64)
            values.flags.writeable = False
            object.__setattr__(flat, name, values)
    return flat


def _span_pass(flat: FlatInstance) -> np.ndarray:
    """Every job's critical-path length, from the arrays alone.

    A segmented longest-path pass over the whole instance, level by
    level from the roots (Kahn's algorithm on a frontier array): each
    frontier node's finish time is pushed to its successors with
    ``np.maximum.at``, a successor joins the next frontier once all its
    predecessors have, and ``np.maximum.reduceat`` over
    ``job_node_offsets`` takes each job's latest finish.  One numpy
    round per DAG level, however many jobs.  Raises
    :class:`DagValidationError` if a job's DAG has a cycle.
    """
    _check_flat(flat)
    works = flat.node_works
    eo = flat.edge_offsets
    et = flat.edge_targets
    start = np.zeros(flat.n_nodes, dtype=np.int64)
    waiting = np.bincount(et, minlength=flat.n_nodes)
    frontier = np.flatnonzero(waiting == 0)
    done = 0
    while len(frontier):
        done += len(frontier)
        ends = start[frontier] + works[frontier]
        lo = eo[frontier]
        counts = eo[frontier + 1] - lo
        total = int(counts.sum())
        # The frontier's edges: each node's run eo[v]..eo[v+1].
        firsts = np.cumsum(counts) - counts
        edges = np.repeat(lo - firsts, counts) + np.arange(total)
        succ = et[edges]
        np.maximum.at(start, succ, np.repeat(ends, counts))
        succ, hits = np.unique(succ, return_counts=True)
        waiting[succ] -= hits
        frontier = succ[waiting[succ] == 0]
    if done != flat.n_nodes:
        v = int(np.flatnonzero(waiting)[0])
        i = int(np.searchsorted(flat.job_node_offsets, v, side="right")) - 1
        raise DagValidationError(
            f"malformed FlatInstance: job {i}'s DAG has a cycle"
        )
    return np.maximum.reduceat(start + works, flat.job_node_offsets[:-1])


# ----------------------------------------------------------------------
# Object graph -> flat
# ----------------------------------------------------------------------


def _dag_csr(dag: JobDag) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One DAG's local CSR pieces: node works, out-degrees and the
    concatenated successor ids (``int64``)."""
    works = np.asarray(dag.works, dtype=np.int64)
    degrees = np.fromiter(
        (len(s) for s in dag.successors), dtype=np.int64, count=dag.n_nodes
    )
    targets = np.fromiter(
        chain.from_iterable(dag.successors), dtype=np.int64,
        count=dag.n_edges,
    )
    return works, degrees, targets


def flatten_jobset(jobset: JobSet) -> FlatInstance:
    """Encode a :class:`JobSet` into CSR arrays (jobs stay in set order).

    Jobs that share one :class:`JobDag` object are flattened once and
    their spans replicated, so the cost is proportional to the number
    of *distinct* DAGs plus the output size, not to naive per-job
    re-walks.  An instance that is one DAG released many times (the
    Lemma 5.1 instance) is better built by :meth:`FlatInstance.tile`,
    which makes no :class:`Job` at all.

    Returns the set's flat: the one a :func:`to_jobset` view reads, or,
    for a set built from jobs, the result of the walk, kept in the set
    (a JobSet is immutable) so the walk happens once.  The walk also
    records every job's span.
    """
    if jobset._flat is not None:
        return jobset._flat
    n_jobs = len(jobset)
    job_nodes = np.empty(n_jobs, dtype=np.int64)
    arrivals = np.empty(n_jobs, dtype=np.float64)
    weights = np.empty(n_jobs, dtype=np.float64)
    spans = np.empty(n_jobs, dtype=np.int64)

    # Per distinct DAG (by identity): local works / out-degrees / targets.
    dag_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    per_job: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for i, job in enumerate(jobset):
        key = id(job.dag)
        entry = dag_cache.get(key)
        if entry is None:
            entry = dag_cache[key] = _dag_csr(job.dag)
        per_job.append(entry)
        job_nodes[i] = len(entry[0])
        arrivals[i] = job.arrival
        weights[i] = job.weight
        spans[i] = job.dag.span

    job_node_offsets = np.zeros(n_jobs + 1, dtype=np.int64)
    np.cumsum(job_nodes, out=job_node_offsets[1:])
    n_nodes = int(job_node_offsets[-1])

    node_works = np.empty(n_nodes, dtype=np.int64)
    degrees_all = np.empty(n_nodes, dtype=np.int64)
    target_blocks: List[np.ndarray] = []
    for i, (works, degrees, targets) in enumerate(per_job):
        lo = job_node_offsets[i]
        node_works[lo : lo + len(works)] = works
        degrees_all[lo : lo + len(works)] = degrees
        if len(targets):
            target_blocks.append(targets + lo)
    edge_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(degrees_all, out=edge_offsets[1:])
    edge_targets = (
        np.concatenate(target_blocks)
        if target_blocks
        else np.empty(0, dtype=np.int64)
    )
    flat = FlatInstance(
        node_works=node_works,
        edge_offsets=edge_offsets,
        edge_targets=edge_targets,
        job_node_offsets=job_node_offsets,
        arrivals=arrivals,
        weights=weights,
    )
    jobset._flat = _with_job_spans(flat, spans)
    return jobset._flat


# ----------------------------------------------------------------------
# Flat -> object graph
# ----------------------------------------------------------------------


#: Process-wide map from a job's local CSR bytes to the :class:`JobDag`
#: every view shares for that shape; emptied when it reaches
#: :data:`_SHAPES_MAX` entries.
_SHAPES: Dict[Tuple[bytes, bytes, bytes], JobDag] = {}
_SHAPES_MAX = 4096


def to_jobset(flat: FlatInstance) -> JobSet:
    """The :class:`JobSet` a :class:`FlatInstance` encodes.

    A view that holds ``flat``: its aggregate views read the arrays, and
    it builds its :class:`Job` objects (:func:`_materialize`) the first
    time a caller iterates or indexes it.  Each call returns a new view;
    nothing is cached on ``flat``.  A flat whose arrivals are not sorted
    gets an eagerly built set in arrival order instead (re-identified,
    as :class:`JobSet` does), which keeps ``flat`` as its source: engines
    that need the flat's jobs in arrival order report
    ``arrivals=unsorted`` and run their reference path.

    Malformed arrays raise :class:`ValueError` here (:func:`_check_flat`).
    """
    _check_flat(flat)
    if flat.arrivals_sorted:
        return JobSet._view(flat)
    jobset = JobSet(_materialize(flat))
    jobset._flat = flat
    return jobset


def _materialize(flat: FlatInstance) -> Tuple[Job, ...]:
    """The jobs of a checked ``flat``, job ``i`` with id ``i``.

    Structurally identical jobs (same works and edges), in this instance
    or any other, share one :class:`JobDag` through the shape map, built
    by the trusted :meth:`JobDag.from_csr`: integer works drawn from a
    distribution repeat constantly, so large instances and repeated
    builds construct only the distinct shapes.
    """
    n = flat.n_jobs
    jno = flat.job_node_offsets
    eo = flat.edge_offsets
    # Local ids, rebased once per instance: edge offsets from the job's
    # first edge, edge targets from the job's first node.
    job_edges = eo[jno]
    local_eo = eo[:-1] - np.repeat(job_edges[:-1], np.diff(jno))
    local_et = flat.edge_targets - np.repeat(jno[:-1], np.diff(job_edges))
    works_b = flat.node_works.tobytes()
    offsets_b = local_eo.tobytes()
    targets_b = local_et.tobytes()
    node_at = (jno * 8).tolist()  # byte offsets into the int64 buffers
    edge_at = (job_edges * 8).tolist()
    arrivals = flat.arrivals.tolist()
    weights = flat.weights.tolist()
    shapes = _SHAPES
    jobs: List[Job] = []
    for i in range(n):
        lo, hi = node_at[i], node_at[i + 1]
        key = (works_b[lo:hi], offsets_b[lo:hi],
               targets_b[edge_at[i]:edge_at[i + 1]])
        dag = shapes.get(key)
        if dag is None:
            dag = JobDag.from_csr(*flat.job_slice(i))
            if len(shapes) >= _SHAPES_MAX:
                shapes.clear()
            shapes[key] = dag
        jobs.append(Job(i, dag, arrivals[i], weights[i]))
    return tuple(jobs)


# ----------------------------------------------------------------------
# Segmented CSR: append
# ----------------------------------------------------------------------


def concat_flat(segments: "List[FlatInstance]") -> FlatInstance:
    """Concatenate instances job-wise into one instance.

    Node ids and CSR offsets are rebased so job ``k`` of segment ``s``
    becomes a global job with identical structure; edges never cross
    jobs, so rebasing targets by each segment's node base is exact.
    This is the materialization step of the streaming workload path
    (:meth:`repro.workloads.stream.StreamSpec.materialize`).
    """
    if not segments:
        raise ValueError("concat_flat needs at least one segment")
    if len(segments) == 1:
        return segments[0]
    node_base = 0
    edge_offset_parts = [np.zeros(1, dtype=np.int64)]
    edge_target_parts = []
    job_offset_parts = [np.zeros(1, dtype=np.int64)]
    edge_base = 0
    job_node_base = 0
    for seg in segments:
        edge_offset_parts.append(seg.edge_offsets[1:] + edge_base)
        edge_target_parts.append(seg.edge_targets + node_base)
        job_offset_parts.append(seg.job_node_offsets[1:] + job_node_base)
        node_base += seg.n_nodes
        edge_base += seg.n_edges
        job_node_base += seg.n_nodes
    return FlatInstance(
        node_works=np.concatenate([s.node_works for s in segments]),
        edge_offsets=np.concatenate(edge_offset_parts),
        edge_targets=np.concatenate(edge_target_parts),
        job_node_offsets=np.concatenate(job_offset_parts),
        arrivals=np.concatenate([s.arrivals for s in segments]),
        weights=np.concatenate([s.weights for s in segments]),
    )


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------


def content_hash(flat: FlatInstance) -> str:
    """A stable sha256 hex digest of the instance's full content.

    The digest covers every array's dtype-tagged bytes plus the format
    version, so two instances hash equal iff :func:`flatten_jobset`
    produced byte-identical arrays -- the key used by the
    content-addressed sweep cache (:mod:`repro.experiments.cache`).
    """
    h = hashlib.sha256()
    h.update(f"repro-flat/{FLAT_FORMAT_VERSION}".encode())
    for name, _ in _FIELDS:
        arr = getattr(flat, name)
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.int64(len(arr)).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Disk serialization
# ----------------------------------------------------------------------


def save_flat(flat: FlatInstance, path: PathLike) -> None:
    """Write an instance as an uncompressed ``.npz`` archive."""
    with open(path, "wb") as fh:
        np.savez(fh, **{name: getattr(flat, name) for name, _ in _FIELDS})


def load_flat(path: PathLike) -> FlatInstance:
    """Read an instance written by :func:`save_flat`."""
    with np.load(path, allow_pickle=False) as archive:
        return FlatInstance(**{name: archive[name] for name, _ in _FIELDS})
