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
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dag.builders import chain, fork_join, random_layered_dag
from repro.dag.flat import flatten_jobset
from repro.dag.job import jobs_from_dags
from repro.sim.batch_engine import run_batch
from repro.sim.engine import _run_work_stealing
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
