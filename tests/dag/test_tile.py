"""Tests for :meth:`FlatInstance.tile`: one DAG released n times.

The tiled arrays must equal :func:`flatten_jobset` of the same jobs
built one by one, with the same closed-form spans and works, over every
``dag/builders.py`` family; malformed arrivals and weights are refused
by the one check every flat gets; and the Lemma 5.1 experiment, whose
instance is tiled, renders exactly what the Job-built instance gave.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import builders
from repro.dag.flat import FlatInstance, flatten_jobset, to_jobset
from repro.dag.job import Job, JobSet
from repro.experiments import figures
from repro.experiments.figures import lower_bound_experiment
from repro.sim.batch_engine import run_batch
from repro.workloads.adversarial import adversarial_machine_size
from tests.properties.test_opt_flat_properties import builder_dags, permuted

GAPS = st.sampled_from([0.0, 0.5, 1.0, 7.0])
WEIGHTS = st.sampled_from([1.0, 2.0, 3.5])


def jobs_of(dag, arrivals, weights):
    """The instance built one Job at a time."""
    return JobSet(
        Job(i, dag, float(a), float(w))
        for i, (a, w) in enumerate(zip(arrivals, weights))
    )


def assert_tiles(dag, arrivals, weights):
    flat = FlatInstance.tile(dag, arrivals, weights)
    ref = flatten_jobset(jobs_of(dag, arrivals, weights))
    assert flat == ref
    assert flat.job_spans.tolist() == ref.job_spans.tolist()
    assert flat.job_works.tolist() == ref.job_works.tolist()
    assert flat.job_spans.tolist() == [dag.span] * len(arrivals)
    assert flat.job_works.tolist() == [dag.total_work] * len(arrivals)
    return flat


@given(
    builder_dags(),
    st.lists(GAPS, min_size=1, max_size=12),
    st.data(),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_tile_equals_the_flattened_jobs(dag, gaps, data, shuffle, seed):
    if shuffle:
        dag = permuted(dag, np.random.default_rng(seed))
    arrivals = np.cumsum(gaps).tolist()
    weights = data.draw(
        st.lists(WEIGHTS, min_size=len(gaps), max_size=len(gaps))
    )
    assert_tiles(dag, arrivals, weights)


def test_one_job():
    dag = builders.fork_join(2, [1, 3, 1], 4)
    flat = assert_tiles(dag, [5.0], [2.0])
    assert flat.n_jobs == 1
    assert flat.job_node_offsets.tolist() == [0, dag.n_nodes]


def test_single_node_dag_has_no_edges():
    flat = assert_tiles(builders.single_node(3), [0.0, 1.0, 1.0], [1.0] * 3)
    assert flat.n_edges == 0
    assert flat.edge_offsets.tolist() == [0, 0, 0, 0]
    assert flat.job_node_offsets.tolist() == [0, 1, 2, 3]


def test_default_weights_are_one():
    dag = builders.diamond(2)
    flat = FlatInstance.tile(dag, [0.0, 4.0])
    assert flat.weights.tolist() == [1.0, 1.0]
    assert flat == FlatInstance.tile(dag, [0.0, 4.0], [1.0, 1.0])


def test_unsorted_arrivals_take_the_eager_sort():
    dag = builders.fork_join(1, [2, 5], 1)
    arrivals, weights = [6.0, 0.0, 3.0, 0.0], [1.0, 2.0, 3.0, 4.0]
    flat = FlatInstance.tile(dag, arrivals, weights)
    assert not flat.arrivals_sorted
    view = to_jobset(flat)
    assert view._jobs is not None  # built eagerly, in arrival order
    assert flatten_jobset(view) is flat
    ref = jobs_of(dag, arrivals, weights)
    assert [(j.job_id, j.arrival, j.weight) for j in view] == [
        (j.job_id, j.arrival, j.weight) for j in ref
    ]
    assert all(j.dag.works == dag.works for j in view)
    assert all(j.dag.successors == dag.successors for j in view)
    assert view.spans == ref.spans
    # Spans stay in the flat's job order, which here is every job's.
    assert flat.job_spans.tolist() == [dag.span] * 4


@pytest.mark.parametrize(
    "arrivals, weights, message",
    [
        ([0.0, -1.0], [1.0, 1.0], "arrivals must be finite and non-negative"),
        ([0.0, 1.0], [1.0, 0.0], "weights must be finite and positive"),
    ],
    ids=["negative-arrival", "zero-weight"],
)
def test_bad_values_are_refused_by_the_flat_check(arrivals, weights, message):
    dag = builders.adversarial_fork(10)
    with pytest.raises(ValueError, match=message):
        to_jobset(FlatInstance.tile(dag, arrivals, weights))
    with pytest.raises(ValueError, match=message):
        run_batch(
            [FlatInstance.tile(dag, arrivals, weights)], m=10, seeds=[0]
        )


def test_wrong_weight_count_is_refused():
    with pytest.raises(ValueError, match="one entry per job"):
        FlatInstance.tile(builders.single_node(1), [0.0, 1.0], [1.0])


def job_built_instance(n_jobs, m=None, spacing=None, fanout=None):
    """The Lemma 5.1 instance as it was built before tiling: one Job per
    release, all sharing one DAG."""
    if m is None:
        m = adversarial_machine_size(n_jobs)
    if spacing is None:
        spacing = 2.0 * m
    dag = builders.adversarial_fork(m, fanout=fanout)
    return JobSet(Job(i, dag, spacing * i, 1.0) for i in range(n_jobs)), m


@pytest.mark.parametrize(
    "seed, paper_fanout", [(0, False), (1, False), (2, False), (0, True)]
)
def test_lower_bound_experiment_renders_as_before(
    monkeypatch, seed, paper_fanout
):
    kwargs = dict(
        n_values=(256, 1024, 4096), seed=seed, reps=5,
        use_paper_fanout=paper_fanout,
    )
    tiled = lower_bound_experiment(**kwargs).render()
    monkeypatch.setattr(figures, "adversarial_instance", job_built_instance)
    assert lower_bound_experiment(**kwargs).render() == tiled
