"""Round-trip and content-addressing tests for the flat CSR format.

The contract (ISSUE 2): ``to_jobset(flatten_jobset(js))`` reproduces the
object DAGs *exactly* -- same works, same successor lists in the same
order, same arrivals and weights -- and ``content_hash`` is a pure
function of that content.
"""

import numpy as np
import pytest

from repro.dag.builders import (
    adversarial_fork,
    balanced_tree,
    chain,
    diamond,
    map_reduce,
    parallel_chains,
    parallel_for,
    random_layered_dag,
    single_node,
)
from repro.dag.flat import (
    FlatInstance,
    content_hash,
    flatten_jobset,
    load_flat,
    meta_from_json,
    meta_to_json,
    pack_into,
    save_flat,
    to_jobset,
    unpack_from,
)
from repro.dag.graph import JobDag
from repro.dag.job import Job, JobSet
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec


def _mixed_jobset() -> JobSet:
    rng = np.random.default_rng(7)
    dags = [
        single_node(5),
        chain([1, 2, 3]),
        diamond(2),
        parallel_for(40, 7),
        balanced_tree(2, 2),
        map_reduce([3, 1, 4, 1, 5], reduce_fanin=2),
        parallel_chains([2, 3, 1]),
        adversarial_fork(20, fanout=10),
        random_layered_dag(rng, n_nodes=30, n_layers=5),
    ]
    return JobSet(
        Job(job_id=i, dag=d, arrival=0.5 * i, weight=1.0 + 0.25 * i)
        for i, d in enumerate(dags)
    )


def assert_jobsets_identical(a: JobSet, b: JobSet) -> None:
    assert len(a) == len(b)
    for ja, jb in zip(a, b):
        assert ja.job_id == jb.job_id
        assert ja.arrival == jb.arrival
        assert ja.weight == jb.weight
        assert ja.dag.works == jb.dag.works
        assert ja.dag.successors == jb.dag.successors
        # Derived structure must agree too (recomputed, not copied).
        assert ja.dag.span == jb.dag.span
        assert ja.dag.roots == jb.dag.roots
        assert ja.dag.predecessor_counts == jb.dag.predecessor_counts


class TestRoundTrip:
    def test_mixed_shapes_round_trip_exactly(self):
        js = _mixed_jobset()
        flat = flatten_jobset(js)
        assert_jobsets_identical(js, to_jobset(flat))

    def test_workload_spec_round_trip(self):
        js = WorkloadSpec(
            BingDistribution(), qps=900.0, n_jobs=60, m=4, target_chunks=8
        ).build(seed=3)
        assert_jobsets_identical(js, to_jobset(flatten_jobset(js)))

    def test_empty_jobset(self):
        flat = flatten_jobset(JobSet([]))
        assert flat.n_jobs == 0
        assert flat.n_nodes == 0
        assert flat.n_edges == 0
        assert len(to_jobset(flat)) == 0

    def test_shared_dag_objects_rebuilt_shared(self):
        dag = adversarial_fork(20)
        js = JobSet(
            Job(job_id=i, dag=dag, arrival=float(i)) for i in range(8)
        )
        rebuilt = to_jobset(flatten_jobset(js))
        # Structurally identical jobs share one rebuilt JobDag object.
        assert len({id(j.dag) for j in rebuilt}) == 1
        assert_jobsets_identical(js, rebuilt)

    def test_shapes_and_counts(self):
        js = _mixed_jobset()
        flat = flatten_jobset(js)
        assert flat.n_jobs == len(js)
        assert flat.n_nodes == sum(j.dag.n_nodes for j in js)
        assert flat.n_edges == sum(j.dag.n_edges for j in js)
        assert flat.job_node_offsets[0] == 0
        assert flat.edge_offsets[0] == 0
        assert flat.edge_offsets[-1] == flat.n_edges
        # Every edge stays inside its job's node span.
        for i, job in enumerate(js):
            lo, hi = flat.job_node_offsets[i], flat.job_node_offsets[i + 1]
            e_lo, e_hi = flat.edge_offsets[lo], flat.edge_offsets[hi]
            targets = flat.edge_targets[e_lo:e_hi]
            assert np.all((targets >= lo) & (targets < hi))

    def test_arrays_are_read_only(self):
        flat = flatten_jobset(_mixed_jobset())
        with pytest.raises(ValueError):
            flat.node_works[0] = 99


class TestTrustedCsr:
    def test_from_csr_matches_validated_constructor(self):
        dag = parallel_chains([2, 4, 1], node_work=3)
        degrees = [len(s) for s in dag.successors]
        offsets = np.concatenate([[0], np.cumsum(degrees)])
        targets = [u for succ in dag.successors for u in succ]
        rebuilt = JobDag.from_csr(list(dag.works), offsets, targets)
        assert rebuilt.works == dag.works
        assert rebuilt.successors == dag.successors
        assert rebuilt.span == dag.span
        assert rebuilt.topological_order() == dag.topological_order()

    def test_from_csr_rejects_empty_and_cycles(self):
        from repro.dag.graph import DagValidationError

        with pytest.raises(DagValidationError):
            JobDag.from_csr([], [0], [])
        with pytest.raises(DagValidationError):
            # 0 -> 1 -> 0 has no roots.
            JobDag.from_csr([1, 1], [0, 1, 2], [1, 0])


class TestContentHash:
    def test_hash_is_deterministic_and_content_addressed(self):
        js = _mixed_jobset()
        h1 = content_hash(flatten_jobset(js))
        h2 = content_hash(flatten_jobset(to_jobset(flatten_jobset(js))))
        assert h1 == h2
        assert len(h1) == 64

    def test_hash_changes_with_content(self):
        js = _mixed_jobset()
        flat = flatten_jobset(js)
        other = JobSet(
            Job(job_id=j.job_id, dag=j.dag, arrival=j.arrival + 1.0,
                weight=j.weight)
            for j in js
        )
        assert content_hash(flat) != content_hash(flatten_jobset(other))


class TestSerialization:
    def test_npz_round_trip(self, tmp_path):
        flat = flatten_jobset(_mixed_jobset())
        path = tmp_path / "instance.npz"
        save_flat(flat, path)
        loaded = load_flat(path)
        assert loaded == flat
        assert content_hash(loaded) == content_hash(flat)

    def test_buffer_pack_unpack_zero_copy(self):
        flat = flatten_jobset(_mixed_jobset())
        buf = bytearray(flat.nbytes)
        meta = pack_into(flat, buf)
        meta = meta_from_json(meta_to_json(meta))  # survives JSON transit
        view = unpack_from(buf, meta)
        assert view == flat
        # Zero copy: the views alias the buffer, not fresh allocations.
        assert view.node_works.base is not None
        assert_jobsets_identical(
            to_jobset(flat), to_jobset(view)
        )

    def test_unpack_rejects_future_versions(self):
        flat = flatten_jobset(_mixed_jobset())
        buf = bytearray(flat.nbytes)
        meta = pack_into(flat, buf)
        meta["format_version"] = 999
        with pytest.raises(ValueError):
            unpack_from(buf, meta)


class TestJobSetView:
    """``to_jobset`` caches its view on the instance it was given."""

    @pytest.mark.parametrize("order", [1, -1], ids=["sorted", "unsorted"])
    def test_view_is_built_once_and_equals_a_rebuild(self, order):
        flat = flatten_jobset(_mixed_jobset())
        fields = {
            "node_works": flat.node_works,
            "edge_offsets": flat.edge_offsets,
            "edge_targets": flat.edge_targets,
            "job_node_offsets": flat.job_node_offsets,
            "arrivals": flat.arrivals[::order],
            "weights": flat.weights,
        }
        inst = FlatInstance(**fields)
        view = to_jobset(inst)
        assert to_jobset(inst) is view
        assert_jobsets_identical(view, to_jobset(FlatInstance(**fields)))

    def test_pickle_ships_the_arrays_only(self):
        import pickle

        flat = flatten_jobset(_mixed_jobset())
        to_jobset(flat)
        back = pickle.loads(pickle.dumps(flat))
        assert back == flat
        assert not hasattr(back, "_jobset_cache")
        assert not back.node_works.flags.writeable
        assert len(pickle.dumps(flat)) < flat.nbytes + 2048
