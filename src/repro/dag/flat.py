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
``.npz``, and shipped across process boundaries through
``multiprocessing.shared_memory`` without pickling a single Python
object.  The round-trip is lossless: :func:`to_jobset` rebuilds the
exact DAG structure, arrivals and weights that :func:`flatten_jobset`
consumed (asserted by ``tests/dag/test_flat.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from repro.dag.graph import JobDag
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

#: Version stamp carried by on-disk and shared-memory payloads.
FLAT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FlatInstance:
    """A whole scheduling instance as six flat numpy arrays (see module doc).

    Arrays are read-only views; instances are safe to share between
    threads and to alias onto shared-memory buffers.
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
        """Total payload size in bytes (the shared-memory footprint)."""
        return sum(getattr(self, name).nbytes for name, _ in _FIELDS)

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
# Object graph -> flat
# ----------------------------------------------------------------------


def flatten_jobset(jobset: JobSet) -> FlatInstance:
    """Encode a :class:`JobSet` into CSR arrays (jobs stay in set order).

    Jobs that share one :class:`JobDag` object (e.g. the adversarial
    instance) are flattened once and their spans replicated, so the cost
    is proportional to the number of *distinct* DAGs plus the output
    size, not to naive per-job re-walks.

    The result is cached on the JobSet: a JobSet is immutable after
    construction (``_jobs`` is a tuple and there is no mutation API), so
    run -> sweep paths that repeatedly flatten the same instance -- the
    measured ``flatten_jobset`` hot spot -- pay the walk once.
    :func:`to_jobset` pre-seeds the same cache on the sets it rebuilds.
    """
    cached = getattr(jobset, "_flat_cache", None)
    if cached is not None:
        return cached
    n_jobs = len(jobset)
    job_nodes = np.empty(n_jobs, dtype=np.int64)
    arrivals = np.empty(n_jobs, dtype=np.float64)
    weights = np.empty(n_jobs, dtype=np.float64)

    # Per distinct DAG (by identity): local works / out-degrees / targets.
    dag_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    per_job: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for i, job in enumerate(jobset):
        key = id(job.dag)
        entry = dag_cache.get(key)
        if entry is None:
            dag = job.dag
            works = np.asarray(dag.works, dtype=np.int64)
            degrees = np.fromiter(
                (len(s) for s in dag.successors), dtype=np.int64,
                count=dag.n_nodes,
            )
            if dag.n_edges:
                targets = np.concatenate(
                    [np.asarray(s, dtype=np.int64) for s in dag.successors
                     if s]
                )
            else:
                targets = np.empty(0, dtype=np.int64)
            entry = (works, degrees, targets)
            dag_cache[key] = entry
        per_job.append(entry)
        job_nodes[i] = len(entry[0])
        arrivals[i] = job.arrival
        weights[i] = job.weight

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
    jobset._flat_cache = flat
    return flat


# ----------------------------------------------------------------------
# Flat -> object graph
# ----------------------------------------------------------------------


def to_jobset(flat: FlatInstance) -> JobSet:
    """Rebuild the exact :class:`JobSet` a :class:`FlatInstance` encodes.

    Structurally identical jobs (same works and edges) share one rebuilt
    :class:`JobDag` object, mirroring -- and often improving on -- the
    sharing of the original object graph.  DAGs are constructed through
    the trusted CSR path (:meth:`JobDag.from_csr`): the arrays came from
    a validated DAG, so re-validating every span would only duplicate
    work already done at first construction.

    The view is cached on ``flat`` (the mirror of :func:`flatten_jobset`'s
    cache), so each instance is rebuilt at most once per process.
    """
    cached = getattr(flat, "_jobset_cache", None)
    if cached is not None:
        return cached
    jobs: List[Job] = []
    rebuilt: Dict[bytes, JobDag] = {}
    arrivals = flat.arrivals
    weights = flat.weights
    for i in range(flat.n_jobs):
        works, offsets, targets = flat.job_slice(i)
        key = b"".join(
            (works.tobytes(), offsets.tobytes(), targets.tobytes())
        )
        dag = rebuilt.get(key)
        if dag is None:
            dag = JobDag.from_csr(works, offsets, targets)
            rebuilt[key] = dag
        jobs.append(
            Job(
                job_id=i,
                dag=dag,
                arrival=float(arrivals[i]),
                weight=float(weights[i]),
            )
        )
    jobset = JobSet(jobs)
    if flat.n_jobs <= 1 or bool(np.all(arrivals[1:] >= arrivals[:-1])):
        # The round trip is lossless, so flattening the rebuilt set would
        # reproduce `flat` byte for byte -- pre-seed the flatten cache.
        # (Only when arrivals were already sorted: JobSet re-sorts, so an
        # unsorted input permutes job order and the cache would be wrong.)
        jobset._flat_cache = flat
    _cache_jobset_view(flat, jobset)
    return jobset


def _cache_jobset_view(flat: FlatInstance, jobset: JobSet) -> None:
    """Make ``jobset`` (which ``flat`` encodes) the :func:`to_jobset` view.

    Not done by :func:`flatten_jobset`, whose hot paths (the figure
    runners, ``run_centralized``) flatten JobSets nobody converts back.
    Where both caches are set -- here, once ``flatten_jobset(jobset)``
    has run, and in :func:`to_jobset` for sorted arrivals -- the flat
    and its view reference each other, so only the cycle collector
    frees them.
    """
    object.__setattr__(flat, "_jobset_cache", jobset)


# ----------------------------------------------------------------------
# Segmented CSR: append / slice
# ----------------------------------------------------------------------


def concat_flat(segments: "List[FlatInstance]") -> FlatInstance:
    """Concatenate instances job-wise into one instance.

    Node ids and CSR offsets are rebased so job ``k`` of segment ``s``
    becomes a global job with identical structure; edges never cross
    jobs, so rebasing targets by each segment's node base is exact.
    This is the materialization step of the streaming workload path
    (:meth:`repro.workloads.stream.StreamSpec.materialize`) and the
    inverse of :func:`slice_flat` over a partition.
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


def slice_flat(flat: FlatInstance, start: int, stop: int) -> FlatInstance:
    """Extract jobs ``[start, stop)`` as a standalone rebased instance.

    The compaction primitive of the streaming engine's retirement path:
    dropping a retired prefix is ``slice_flat(flat, frontier, n_jobs)``.
    ``concat_flat(slice_flat(f, 0, k), slice_flat(f, k, n))`` reproduces
    ``f`` byte for byte.
    """
    if not 0 <= start <= stop <= flat.n_jobs:
        raise ValueError(
            f"job slice [{start}, {stop}) out of range for "
            f"{flat.n_jobs} jobs"
        )
    lo = int(flat.job_node_offsets[start])
    hi = int(flat.job_node_offsets[stop])
    e_lo = int(flat.edge_offsets[lo])
    e_hi = int(flat.edge_offsets[hi])
    return FlatInstance(
        node_works=flat.node_works[lo:hi],
        edge_offsets=flat.edge_offsets[lo : hi + 1] - e_lo,
        edge_targets=flat.edge_targets[e_lo:e_hi] - lo,
        job_node_offsets=flat.job_node_offsets[start : stop + 1] - lo,
        arrivals=flat.arrivals[start:stop],
        weights=flat.weights[start:stop],
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


# ----------------------------------------------------------------------
# Buffer packing (the shared-memory wire format)
# ----------------------------------------------------------------------


def pack_into(flat: FlatInstance, buf) -> Dict[str, Any]:
    """Copy the arrays into ``buf`` back to back; returns the layout meta.

    ``buf`` is any writable buffer of at least :attr:`FlatInstance.nbytes`
    bytes (typically a ``multiprocessing.shared_memory`` block).  The
    returned meta dict is tiny, JSON/pickle-friendly, and everything
    :func:`unpack_from` needs to rebuild zero-copy views.
    """
    layout = []
    offset = 0
    for name, _ in _FIELDS:
        arr = getattr(flat, name)
        end = offset + arr.nbytes
        view = np.frombuffer(buf, dtype=arr.dtype, count=len(arr), offset=offset)
        view[:] = arr
        layout.append((name, str(arr.dtype), int(len(arr)), int(offset)))
        offset = end
    return {
        "format_version": FLAT_FORMAT_VERSION,
        "nbytes": offset,
        "layout": layout,
    }


def unpack_from(buf, meta: Dict[str, Any]) -> FlatInstance:
    """Rebuild a :class:`FlatInstance` of zero-copy views over ``buf``.

    No array data is copied: the returned instance aliases ``buf``, so
    the buffer must outlive the instance (the dispatch layer in
    :mod:`repro.experiments.parallel` guarantees this by holding the
    shared-memory block open for the worker's lifetime).
    """
    version = meta.get("format_version", FLAT_FORMAT_VERSION)
    if version > FLAT_FORMAT_VERSION:
        raise ValueError(
            f"flat payload has format version {version}; this library "
            f"reads up to {FLAT_FORMAT_VERSION}"
        )
    arrays = {}
    for name, dtype, count, offset in meta["layout"]:
        arrays[name] = np.frombuffer(
            buf, dtype=np.dtype(dtype), count=count, offset=offset
        )
    return FlatInstance(**arrays)


def meta_to_json(meta: Dict[str, Any]) -> str:
    """Serialize a :func:`pack_into` meta dict to compact JSON."""
    return json.dumps(meta, separators=(",", ":"))


def meta_from_json(text: str) -> Dict[str, Any]:
    """Inverse of :func:`meta_to_json`."""
    return json.loads(text)
