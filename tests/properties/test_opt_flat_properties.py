"""Property test: the OPT lower bound reads a flat instance exactly.

:func:`repro.core.opt.opt_lower_bound` reads the per-job arrays
(:attr:`~repro.dag.flat.FlatInstance.job_works`,
:attr:`~repro.dag.flat.FlatInstance.job_spans`) of a
:class:`~repro.dag.flat.FlatInstance`'s view and of a JobSet built from
jobs (its flattening).  On every drawn instance the two must agree
exactly: completions (``np.array_equal``, and equal to the recursion's
first, numpy-indexed loop), max flow and stats.  The
draws cover generated parallel-for workloads (whose spans come in
closed form), flattened ``dag/builders.py`` families and the Lemma 5.1
instance (whose spans are read off the JobSet view), node ids permuted
out of topological order, and single jobs.  The per-job spans are
pinned against :attr:`JobDag.span` on the same draws.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.opt import OptLowerBound, opt_lower_bound
from repro.dag import builders
from repro.dag.flat import FlatInstance, flatten_jobset, to_jobset
from repro.dag.graph import JobDag
from repro.dag.job import JobSet, jobs_from_dags
from repro.workloads import adversarial_instance
from repro.workloads.distributions import (
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
)
from repro.workloads.generator import WorkloadSpec

GAPS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0, 12.0])
WEIGHTS = st.sampled_from([1.0, 2.0, 3.5])
works = st.integers(1, 5)


def uncached(flat: FlatInstance) -> FlatInstance:
    """The same arrays without any derived state (closed-form spans
    included), as a pool worker receives them."""
    return pickle.loads(pickle.dumps(flat))


def loop_completions(jobset, m, speed, use_span_bound):
    """The bound's recursion as first written: numpy scalars indexed in
    a loop, on the JobSet's lists."""
    arrivals = np.asarray(jobset.arrivals, dtype=np.float64)
    service = np.asarray(jobset.works, dtype=np.float64) / (m * speed)
    completions = np.empty(arrivals.size, dtype=np.float64)
    clock = 0.0
    for i in range(arrivals.size):
        a = arrivals[i]
        if a > clock:
            clock = a
        clock += service[i]
        completions[i] = clock
    if use_span_bound:
        spans = np.asarray(jobset.spans, dtype=np.float64)
        np.maximum(completions, arrivals + spans / speed, out=completions)
    return completions


def assert_opt_agrees(flat: FlatInstance, jobset: JobSet) -> None:
    spans = [job.dag.span for job in jobset]
    assert flat.job_spans.tolist() == spans
    assert uncached(flat).job_spans.tolist() == spans
    assert flat.job_works.tolist() == [job.work for job in jobset]
    for m in (1, 3, 16):
        for use_span_bound in (True, False):
            for speed in (1.0, 1.5):
                ref = opt_lower_bound(
                    jobset, m, speed=speed, use_span_bound=use_span_bound
                )
                got = opt_lower_bound(
                    flat, m, speed=speed, use_span_bound=use_span_bound
                )
                assert np.array_equal(ref.completions, got.completions)
                assert np.array_equal(
                    ref.completions,
                    loop_completions(jobset, m, speed, use_span_bound),
                )
                assert np.array_equal(ref.arrivals, got.arrivals)
                assert np.array_equal(ref.weights, got.weights)
                assert ref.max_flow == got.max_flow
                assert ref.stats == got.stats


distributions = st.one_of(
    st.builds(BingDistribution, mean_ms=st.sampled_from([5.0, 10.0])),
    st.builds(FinanceDistribution, mean_ms=st.sampled_from([5.0, 10.0])),
    st.builds(
        LogNormalDistribution,
        mean_ms=st.just(10.0),
        sigma=st.sampled_from([0.5, 1.0, 1.7]),
        clip=st.sampled_from([3.0, 50.0]),
    ),
)


@given(
    distributions,
    st.integers(1, 120),
    st.sampled_from([300.0, 1000.0, 2500.0]),
    st.integers(1, 64),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_generated_workloads(dist, n_jobs, qps, chunks, setup, finalize, seed):
    spec = WorkloadSpec(
        dist, qps=qps, n_jobs=n_jobs, m=16, target_chunks=chunks,
        setup_units=setup, finalize_units=finalize,
    )
    assert_opt_agrees(spec.build_flat(seed), spec.build(seed))


@st.composite
def builder_dags(draw):
    kind = draw(st.sampled_from([
        "single", "chain", "fork_join", "diamond", "parallel_for",
        "parallel_chains", "balanced_tree", "map_reduce", "adversarial_fork",
        "layered", "series", "parallel", "wide_then_narrow", "pipeline",
    ]))
    if kind == "single":
        return builders.single_node(draw(works))
    if kind == "chain":
        return builders.chain(draw(st.lists(works, min_size=1, max_size=40)))
    if kind == "fork_join":
        return builders.fork_join(
            draw(works), draw(st.lists(works, min_size=1, max_size=12)),
            draw(works),
        )
    if kind == "diamond":
        return builders.diamond(draw(works))
    if kind == "parallel_for":
        return builders.parallel_for(
            draw(st.integers(1, 200)), draw(st.integers(1, 40)),
            draw(works), draw(works),
        )
    if kind == "parallel_chains":
        return builders.parallel_chains(
            draw(st.lists(st.integers(1, 8), min_size=1, max_size=5)),
            draw(works),
        )
    if kind == "balanced_tree":
        return builders.balanced_tree(
            draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(works),
            with_reduction=draw(st.booleans()),
        )
    if kind == "map_reduce":
        return builders.map_reduce(
            draw(st.lists(works, min_size=1, max_size=10)),
            draw(st.integers(2, 4)),
        )
    if kind == "adversarial_fork":
        return builders.adversarial_fork(draw(st.integers(1, 40)))
    if kind == "layered":
        n_nodes = draw(st.integers(1, 15))
        return builders.random_layered_dag(
            np.random.default_rng(draw(st.integers(0, 2**31 - 1))),
            n_nodes=n_nodes,
            n_layers=draw(st.integers(1, n_nodes)),
            edge_probability=0.4,
            max_work=5,
        )
    if kind == "series":
        return builders.series_compose(
            builders.chain([draw(works), draw(works)]),
            builders.fork_join(1, [draw(works), draw(works)], 1),
        )
    if kind == "parallel":
        return builders.parallel_compose(
            builders.chain(draw(st.lists(works, min_size=1, max_size=6))),
            builders.diamond(draw(works)),
        )
    if kind == "wide_then_narrow":
        return builders.wide_then_narrow(
            draw(st.integers(1, 6)), draw(works),
            draw(st.integers(1, 4)), draw(works),
        )
    return builders.staged_pipeline(
        draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)), draw(works)
    )


def permuted(dag: JobDag, rng: np.random.Generator) -> JobDag:
    """``dag`` with its node ids relabelled by a random permutation, so
    ids are (generally) no longer in topological order."""
    perm = rng.permutation(dag.n_nodes).tolist()
    node_works = [0] * dag.n_nodes
    successors = [()] * dag.n_nodes
    for v in range(dag.n_nodes):
        node_works[perm[v]] = dag.works[v]
        successors[perm[v]] = [perm[u] for u in dag.successors[v]]
    return JobDag(node_works, successors)


@st.composite
def builder_jobsets(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dags = []
    for _ in range(n):
        dag = draw(builder_dags())
        if draw(st.booleans()):
            dag = permuted(dag, rng)
        dags.append(dag)
    arrivals = np.cumsum([draw(GAPS) for _ in range(n)]).tolist()
    weights = [draw(WEIGHTS) for _ in range(n)]
    return jobs_from_dags(dags, arrivals, weights=weights)


@given(builder_jobsets())
@settings(max_examples=150, deadline=None)
def test_builder_families(jobset):
    assert_opt_agrees(flatten_jobset(jobset), jobset)


@given(st.integers(2, 200), st.sampled_from([None, 1, 2, 8]))
@settings(max_examples=30, deadline=None)
def test_lemma_5_1_instance(n_jobs, fanout):
    jobset, _ = adversarial_instance(n_jobs, fanout=fanout)
    assert_opt_agrees(flatten_jobset(jobset), jobset)


def test_one_permuted_dag_out_of_topological_order():
    dag = builders.random_layered_dag(
        np.random.default_rng(7), n_nodes=30, n_layers=6, max_work=9
    )
    shuffled = permuted(dag, np.random.default_rng(1))
    assert any(
        u < v for v in range(shuffled.n_nodes)
        for u in shuffled.successors[v]
    )
    assert shuffled.span == dag.span
    jobset = jobs_from_dags([shuffled], [0.0])
    assert_opt_agrees(flatten_jobset(jobset), jobset)


@given(builder_dags(), st.floats(0.0, 100.0))
@settings(max_examples=40, deadline=None)
def test_single_job(dag, arrival):
    jobset = jobs_from_dags([dag], [arrival])
    assert_opt_agrees(flatten_jobset(jobset), jobset)


def test_unsorted_flat_reads_its_ordered_view():
    jobset = jobs_from_dags(
        [builders.chain([3, 4]), builders.diamond(1), builders.single_node(5)],
        [0.0, 1.0, 2.0],
    )
    flat = flatten_jobset(jobset)
    reordered = FlatInstance(
        node_works=flat.node_works,
        edge_offsets=flat.edge_offsets,
        edge_targets=flat.edge_targets,
        job_node_offsets=flat.job_node_offsets,
        arrivals=flat.arrivals[::-1],
        weights=flat.weights,
    )
    # Only the arrivals moved: every job keeps its span, in flat order.
    assert reordered.job_spans.tolist() == [job.dag.span for job in jobset]
    ref = opt_lower_bound(to_jobset(reordered), 2)
    got = opt_lower_bound(reordered, 2)
    assert np.array_equal(ref.completions, got.completions)
    assert ref.max_flow == got.max_flow


def test_scheduler_takes_the_flat(monkeypatch):
    """The scheduler reads the view's flat and builds no job; a
    subclass overriding ``run`` gets the same view."""
    from repro.dag import flat as flat_mod

    spec = WorkloadSpec(BingDistribution(), qps=900.0, n_jobs=50, m=4)
    sched = OptLowerBound()
    ref = sched.run(JobSet(spec.build(3).jobs), m=4)

    def refuse(flat):
        raise AssertionError("OPT built the view's jobs")

    monkeypatch.setattr(flat_mod, "_materialize", refuse)
    view = spec.build(3)
    got = sched.run(view, m=4)
    assert np.array_equal(ref.completions, got.completions)

    class Custom(OptLowerBound):
        def run(self, jobset, m, speed=1.0, seed=None, trace=None):
            return super().run(jobset, m, speed, seed, trace)

    custom = Custom().run(view, m=4)
    assert np.array_equal(ref.completions, custom.completions)
    assert view._jobs is None
