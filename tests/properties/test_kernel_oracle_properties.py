"""Property test: the compiled kernel runs every work-stealing knob exactly.

The reference tick engine (:func:`repro.sim.engine._run_work_stealing`)
defines the semantics.  For an arbitrary drawn configuration -- victim
policy x ``steal_half`` x admission order x ``k`` x ``steals_per_tick``
x ``m`` x speed -- and an arbitrary drawn instance -- chains, wide forks
(odd and even deque lengths for steal-half), layered multi-root DAGs,
the Lemma 5.1 adversarial instance, and ties in weight and in arrival
tick -- :func:`repro.sim.batch_engine.run_batch` must take the kernel
and match the reference on completions, every
:class:`~repro.sim.result.SimulationStats` counter and the Generator's
post-state.  Round-robin and max-deque victims draw nothing, so their
post-state is a fresh Generator's.

Traced runs stay on the compiled code, so the same draws pin their
traces: the kernel's trace rows equal the reference engine's, in
recording order; the compiled centralized loop's equal
:func:`~repro.sim.events._run_centralized_reference`'s; and the
vectorized overhead counts of :mod:`repro.metrics.overheads` equal a
dict-of-lists count kept here as the oracle, on those traces and on
hand-built ones with equal start times.
"""

from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dag.builders import chain, fork_join, random_layered_dag
from repro.dag.flat import flatten_jobset
from repro.dag.job import jobs_from_dags
from repro.metrics.overheads import migration_count, preemption_count
from repro.sim.batch_engine import run_batch
from repro.sim.engine import _run_work_stealing
from repro.sim.events import (
    _fifo_key,
    _run_centralized_reference,
    run_centralized,
)
from repro.sim.trace import TraceInterval, TraceRecorder
from repro.workloads import adversarial_instance

#: Arrival gaps: 0 and sub-tick gaps make equal arrivals and equal
#: arrival ticks (at speed 1: 0.25 and 0.5 both release at tick 1).
GAPS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0, 12.0])

#: Weights from a small set, so weighted admission meets ties.
WEIGHTS = st.sampled_from([1.0, 1.0, 2.0, 3.5])

works = st.integers(1, 4)


@st.composite
def dags(draw, kind):
    if kind == "chain":
        return chain(draw(st.lists(works, min_size=1, max_size=6)))
    if kind == "fork":
        # Widths 1..24: odd and even victim deques for steal-half.
        width = draw(st.integers(1, 24))
        return fork_join(
            draw(works), draw(st.lists(works, min_size=width,
                                       max_size=width)), draw(works),
        )
    n_nodes = draw(st.integers(1, 12))
    return random_layered_dag(
        np.random.default_rng(draw(st.integers(0, 2**31 - 1))),
        n_nodes=n_nodes,
        n_layers=draw(st.integers(1, n_nodes)),
        edge_probability=0.4,
        max_work=4,
    )


@st.composite
def instances(draw):
    """A small JobSet: mixed shapes, or the Lemma 5.1 construction."""
    if draw(st.booleans()) and draw(st.booleans()):
        base, _ = adversarial_instance(draw(st.integers(2, 10)))
        shapes = [job.dag for job in base]
        arrivals = [job.arrival for job in base]
    else:
        n = draw(st.integers(1, 10))
        shapes = [
            draw(dags(draw(st.sampled_from(["chain", "fork", "layered"]))))
            for _ in range(n)
        ]
        arrivals = np.cumsum([draw(GAPS) for _ in range(n)]).tolist()
    weights = [draw(WEIGHTS) for _ in shapes]
    return jobs_from_dags(shapes, arrivals, weights=weights)


configs = st.fixed_dictionaries({
    "victim_policy": st.sampled_from(["uniform", "round-robin", "max-deque"]),
    "steal_half": st.booleans(),
    "admission": st.sampled_from(["fifo", "weight"]),
    "k": st.sampled_from([0, 1, 2, 16]),
    "steals_per_tick": st.sampled_from([1, 2, 64]),
    "m": st.sampled_from([1, 2, 3, 16, 64]),
    "speed": st.sampled_from([1.0, 1.5, 2.0]),
})


@given(instances(), configs, st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_on_every_knob(jobset, config, seed):
    g_ref = np.random.default_rng(seed)
    g_kernel = np.random.default_rng(seed)
    ref = _run_work_stealing(jobset, seed=g_ref, **config)
    (got,) = run_batch([flatten_jobset(jobset)], seeds=[g_kernel], **config)
    assert (got.path, got.reasons) == ("cext", ())
    assert np.array_equal(ref.completions, got.completions)
    assert ref.stats.as_dict() == got.stats.as_dict()
    assert ref.scheduler == got.scheduler
    assert g_ref.bit_generator.state == g_kernel.bit_generator.state
    if config["victim_policy"] != "uniform" or config["m"] == 1:
        fresh = np.random.default_rng(seed).bit_generator.state
        assert g_kernel.bit_generator.state == fresh


@given(instances(), configs, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_traced_kernel_matches_reference_on_every_knob(jobset, config, seed):
    g_ref = np.random.default_rng(seed)
    g_kernel = np.random.default_rng(seed)
    ref_trace, trace = TraceRecorder(), TraceRecorder()
    ref = _run_work_stealing(jobset, seed=g_ref, trace=ref_trace, **config)
    (got,) = run_batch(
        [flatten_jobset(jobset)], seeds=[g_kernel], trace=trace, **config
    )
    assert (got.path, got.reasons) == ("cext", ())
    assert trace.intervals == ref_trace.intervals
    assert np.array_equal(ref.completions, got.completions)
    assert ref.stats.as_dict() == got.stats.as_dict()
    assert g_ref.bit_generator.state == g_kernel.bit_generator.state
    assert preemption_count(trace) == 0
    assert_counts_match_oracle(trace)


def _weight_key(je):
    """BWF's order: heavier first, then earlier."""
    return (-je.weight, je.arrival, je.job_id)


@given(
    instances(),
    st.sampled_from([1, 2, 3, 16]),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.sampled_from([_fifo_key, _weight_key]),
)
@settings(max_examples=150, deadline=None)
def test_traced_centralized_loop_matches_reference(jobset, m, speed, key):
    ref_trace, trace = TraceRecorder(), TraceRecorder()
    ref = _run_centralized_reference(
        jobset, m, speed, key, "centralized", ref_trace
    )
    got = run_centralized(jobset, m, speed, key, trace=trace)
    assert got.path == "cext"
    assert trace.intervals == ref_trace.intervals
    assert np.array_equal(ref.completions, got.completions)
    assert_counts_match_oracle(trace)


def _segments_by_node(
    trace: TraceRecorder,
) -> Dict[Tuple[int, int], List[TraceInterval]]:
    """The dict-of-lists grouping the vectorized counts replaced."""
    by_node: Dict[Tuple[int, int], List[TraceInterval]] = {}
    for iv in trace.intervals:
        by_node.setdefault((iv.job_id, iv.node), []).append(iv)
    for segs in by_node.values():
        segs.sort(key=lambda iv: iv.start)
    return by_node


def assert_counts_match_oracle(trace: TraceRecorder) -> None:
    by_node = _segments_by_node(trace)
    assert preemption_count(trace) == sum(
        len(segs) - 1 for segs in by_node.values()
    )
    assert migration_count(trace) == sum(
        a.worker != b.worker
        for segs in by_node.values()
        for a, b in zip(segs, segs[1:])
    )


#: Hand-built segments: few workers, jobs, nodes and start times, so
#: equal start times within one node are common.
segments = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 2),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
    ),
    max_size=40,
)


@given(segments, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_overhead_counts_match_oracle_on_hand_built_traces(rows, split):
    """Rows recorded one by one and as blocks give the oracle's counts,
    ties in start time broken by recording order."""
    by_record, by_block = TraceRecorder(), TraceRecorder()
    for worker, job, node, start, length in rows:
        by_record.record(worker, job, node, start, start + length)
    cut = min(split * 10, len(rows))
    for part in (rows[:cut], rows[cut:]):
        if part:
            w, j, n, start, length = map(np.array, zip(*part))
            by_block.extend(w, j, n, start, start + length)
    assert by_block.intervals == by_record.intervals
    assert_counts_match_oracle(by_record)
