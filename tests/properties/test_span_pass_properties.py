"""Property test: the array span pass equals :attr:`JobDag.span`.

A flat without closed-form spans (cache-loaded, unpickled or hand
built) computes :attr:`~repro.dag.flat.FlatInstance.job_spans` with
``dag/flat.py::_span_pass``, a level-synchronous longest-path pass over
the CSR arrays that builds no :class:`~repro.dag.job.Job`.  On every
``dag/builders.py`` family (``random_layered_dag`` and edgeless jobs
included), with node ids permuted out of topological order and the
arrivals shuffled out of order, each job's span must equal its DAG's.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import builders
from repro.dag import flat as flat_mod
from repro.dag.flat import FlatInstance, _span_pass, flatten_jobset
from repro.dag.graph import DagValidationError, JobDag
from repro.dag.job import jobs_from_dags
from tests.properties.test_opt_flat_properties import builder_dags, permuted


@st.composite
def dags(draw):
    if draw(st.integers(0, 9)) == 0:
        # Edgeless: every node is a root.
        works = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
        return JobDag(works, [()] * len(works))
    return draw(builder_dags())


@st.composite
def spanless_flats(draw):
    """A pickled (so spanless) flat of 1-10 drawn jobs, arrivals shuffled,
    and each job's :attr:`JobDag.span` in the flat's job order."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    jobs = []
    for _ in range(n):
        dag = draw(dags())
        if draw(st.booleans()):
            dag = permuted(dag, rng)
        jobs.append(dag)
    flat = flatten_jobset(jobs_from_dags(jobs, list(range(n))))
    arrivals = flat.arrivals
    if draw(st.booleans()):
        arrivals = rng.permutation(arrivals)
    shuffled = FlatInstance(
        node_works=flat.node_works,
        edge_offsets=flat.edge_offsets,
        edge_targets=flat.edge_targets,
        job_node_offsets=flat.job_node_offsets,
        arrivals=arrivals,
        weights=flat.weights,
    )
    return pickle.loads(pickle.dumps(shuffled)), [d.span for d in jobs]


@given(spanless_flats())
@settings(max_examples=200, deadline=None)
def test_span_pass_equals_the_dag_spans(case):
    flat, spans = case
    assert not hasattr(flat, "_job_spans_cache")
    assert _span_pass(flat).tolist() == spans
    assert flat.job_spans.tolist() == spans


def test_large_random_layered_instance():
    rng = np.random.default_rng(3)
    jobs = [
        permuted(
            builders.random_layered_dag(
                rng, n_nodes=40, n_layers=int(rng.integers(1, 40)),
                edge_probability=0.3, max_work=9,
            ),
            rng,
        )
        for _ in range(300)
    ]
    flat = flatten_jobset(jobs_from_dags(jobs, [0.0] * len(jobs)))
    assert _span_pass(pickle.loads(pickle.dumps(flat))).tolist() == [
        d.span for d in jobs
    ]


def test_spanless_flat_builds_no_job(monkeypatch):
    flat = pickle.loads(pickle.dumps(flatten_jobset(jobs_from_dags(
        [builders.diamond(2), builders.chain([1, 2, 3])], [0.0, 1.0]
    ))))

    def refuse(flat):
        raise AssertionError("the span pass built the view's jobs")

    monkeypatch.setattr(flat_mod, "_materialize", refuse)
    assert flat.job_spans.tolist() == [6, 6]


def test_a_cycle_is_refused():
    # Job 1: root 2 -> 3 -> 4 -> 3 (a cycle behind a root).
    flat = FlatInstance(
        node_works=[1, 1, 1, 1, 1],
        edge_offsets=[0, 1, 1, 2, 3, 4],
        edge_targets=[1, 3, 4, 3],
        job_node_offsets=[0, 2, 5],
        arrivals=[0.0, 1.0],
        weights=[1.0, 1.0],
    )
    with pytest.raises(DagValidationError, match="job 1's DAG has a cycle"):
        flat.job_spans
