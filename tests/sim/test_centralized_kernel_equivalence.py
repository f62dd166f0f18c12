"""The differential oracle for the compiled centralized loop.

Static-priority centralized runs (FIFO, BWF, LIFO, SJF, random
priority) and the dynamic LAS and SRW take the C loop
``repro_centralized_run``; the Python loop
(:func:`repro.sim.events._run_centralized_reference`) defines the
semantics.  The claim is bit-identity, not closeness: completions equal
under :func:`numpy.array_equal`, the same ``n_events`` and
``busy_steps``, and the same trace rows ``(slot, job, node, start,
end)`` in the same order -- ``ext-overheads`` counts migrations from
those slots.

Each comparison runs a scheduler's own ``run`` twice: as it is (the
compiled loop) and with the kernel resolved to ``None`` (the Python
loop, which a host without a compiler runs).  Instances: Bing and
finance draws, chains, the Lemma 5.1 single-fork jobs, and arrivals
that are equal or closer together than the loop's ``EPS``.  Machines
from 1 to 64 processors; speeds 1, 4/3 and the Theorem 3.1 and 7.1
speeds.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.bwf import BwfScheduler
from repro.core.dynamic import (
    LeastAttainedServiceScheduler,
    ShortestRemainingWorkScheduler,
)
from repro.core.fifo import FifoScheduler
from repro.core.greedy import (
    LifoScheduler,
    RandomPriorityScheduler,
    SjfScheduler,
)
from repro.dag import flat as flat_mod
from repro.dag.builders import chain, random_layered_dag, single_node
from repro.dag.flat import FlatInstance, flatten_jobset, to_jobset
from repro.dag.job import Job, jobs_from_dags
from repro.sim import batch_engine, events
from repro.sim._cext import CK_LAS, CK_SRW, resolve_centralized_kernel
from repro.sim.trace import TraceRecorder, audit_trace
from repro.theory import bounds
from repro.theory.validate import check_bwf_theorem, check_fifo_theorem
from repro.workloads import (
    BingDistribution,
    FinanceDistribution,
    WorkloadSpec,
    adversarial_instance,
)
from repro.workloads.weights import reweight

POLICIES = {
    "fifo": FifoScheduler,
    "bwf": BwfScheduler,
    "lifo": LifoScheduler,
    "sjf": SjfScheduler,
    "random-priority": RandomPriorityScheduler,
}

DYNAMIC = {
    "las": LeastAttainedServiceScheduler,
    "srw": ShortestRemainingWorkScheduler,
}

SPEEDS = (1.0, 4.0 / 3.0, bounds.fifo_speed(0.1), bounds.bwf_speed(0.1))
MACHINES = (1, 2, 3, 5, 8, 16, 31, 64)


def with_random_weights(jobset, seed):
    """Class weights (ties included) for BWF; other policies ignore them."""
    rng = np.random.default_rng(seed)
    return reweight(jobset, rng.choice([1.0, 2.0, 4.0, 8.0], len(jobset)))


def draw_instance(kind, seed):
    rng = np.random.default_rng(seed)
    if kind in ("bing", "finance"):
        dist = BingDistribution() if kind == "bing" else FinanceDistribution()
        jobset = WorkloadSpec(dist, qps=900.0, n_jobs=60, m=8)(seed=seed)
    elif kind == "chains":
        dags = [
            chain(rng.integers(1, 6, size=int(rng.integers(1, 9))).tolist())
            for _ in range(40)
        ]
        arrivals = np.cumsum(rng.exponential(3.0, size=40))
        jobset = jobs_from_dags(dags, arrivals.tolist())
    elif kind == "lemma51":
        jobset, _ = adversarial_instance(48, m=12, fanout=6)
    else:  # equal and EPS-close arrivals
        dags = []
        for _ in range(40):
            n_nodes = int(rng.integers(1, 10))
            dags.append(random_layered_dag(
                rng, n_nodes=n_nodes, n_layers=min(3, n_nodes),
                edge_probability=0.5, max_work=4,
            ))
        base = np.repeat(np.arange(10) * 6.0, 4)
        offsets = rng.choice(
            [0.0, 0.0, 1e-10, 5e-10, 1e-9, 1e-9 - 1e-12, 2e-9], size=40
        )
        jobset = jobs_from_dags(dags, (base + offsets).tolist())
    return with_random_weights(jobset, seed + 1)


KINDS = ("bing", "finance", "chains", "lemma51", "eps-close")


def run_both(monkeypatch, scheduler, jobset, m, speed, seed=None):
    """Traced runs on the compiled loop, then on the Python loop."""
    fast_trace, slow_trace = TraceRecorder(), TraceRecorder()
    fast = scheduler.run(jobset, m, speed, seed=seed, trace=fast_trace)
    with monkeypatch.context() as patch:
        patch.setattr(events, "resolve_centralized_kernel", lambda: None)
        patch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)  # quiet
        slow = scheduler.run(jobset, m, speed, seed=seed, trace=slow_trace)
    return fast, slow, fast_trace, slow_trace


def assert_identical(fast, slow, fast_trace, slow_trace):
    assert np.array_equal(fast.completions, slow.completions)
    assert fast.stats.n_events == slow.stats.n_events
    assert fast.stats.busy_steps == slow.stats.busy_steps
    assert fast.stats.as_dict() == slow.stats.as_dict()
    assert fast.scheduler == slow.scheduler
    assert fast_trace.intervals == slow_trace.intervals


def test_kernel_is_actually_loaded_here():
    """The oracle is vacuous if both runs take the Python loop."""
    assert resolve_centralized_kernel() is not None


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("kind", KINDS)
def test_policy_matches_the_python_loop(monkeypatch, kind, policy):
    seed = 100 + KINDS.index(kind)
    jobset = draw_instance(kind, seed)
    rng = np.random.default_rng(seed)
    scheduler = POLICIES[policy]()
    for speed in SPEEDS:
        m = int(rng.choice(MACHINES))
        fast, slow, ft, st = run_both(
            monkeypatch, scheduler, jobset, m, speed, seed=seed
        )
        assert_identical(fast, slow, ft, st)
        untraced = scheduler.run(jobset, m, speed, seed=seed)
        assert np.array_equal(untraced.completions, fast.completions)


@pytest.mark.parametrize("m", MACHINES)
def test_every_machine_size(monkeypatch, m):
    jobset = draw_instance("bing", 7)
    for scheduler in (FifoScheduler(), BwfScheduler()):
        assert_identical(*run_both(monkeypatch, scheduler, jobset, m, 4 / 3))


def test_trace_rows_survive_many_buffer_drains(monkeypatch):
    """A buffer of m rows fills at almost every event; the drained rows
    must still equal the Python loop's, in order."""
    monkeypatch.setattr(events, "TRACE_ROWS", 1)
    jobset = draw_instance("finance", 11)
    fast, slow, ft, st = run_both(monkeypatch, FifoScheduler(), jobset, 3, 1.1)
    assert_identical(fast, slow, ft, st)
    audit_trace(ft, jobset, 3, 1.1)


def test_static_runs_never_reach_the_python_loop(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("the Python loop ran a static policy")

    monkeypatch.setattr(events, "_run_centralized_reference", banned)
    jobset = draw_instance("chains", 3)
    for cls in (*POLICIES.values(), *DYNAMIC.values()):
        cls().run(jobset, 4, 1.0, seed=1)
    with pytest.raises(AssertionError, match="Python loop"):
        events.run_centralized(
            jobset, 4, priority_key=custom_dynamic_key, dynamic=True
        )


# ----------------------------------------------------------------------
# Dynamic keys: LAS and SRW
# ----------------------------------------------------------------------


def custom_dynamic_key(je):
    """A dynamic key the C loop does not know: most attained first."""
    return (-je.attained, je.job_id)


@pytest.mark.parametrize("policy", sorted(DYNAMIC))
@pytest.mark.parametrize("kind", KINDS)
def test_dynamic_policy_matches_the_python_loop(monkeypatch, kind, policy):
    jobset = draw_instance(kind, 200 + KINDS.index(kind))
    scheduler = DYNAMIC[policy]()
    for m in MACHINES:
        for speed in SPEEDS:
            fast, slow, ft, st = run_both(
                monkeypatch, scheduler, jobset, m, speed
            )
            assert (fast.path, slow.path) == ("cext", "reference")
            assert_identical(fast, slow, ft, st)
            untraced = scheduler.run(jobset, m, speed)
            assert np.array_equal(untraced.completions, slow.completions)
            assert untraced.stats.as_dict() == slow.stats.as_dict()


@pytest.mark.parametrize("speed", SPEEDS)
@pytest.mark.parametrize("policy", sorted(DYNAMIC))
def test_equal_long_jobs_cross_between_completions(monkeypatch, policy, speed):
    """Two equal jobs on one processor: LAS alternates them at every
    quantum (their keys cross with no completion in between); SRW keeps
    serving the one it started."""
    jobset = jobs_from_dags([single_node(10), single_node(10)], [0.0, 0.0])
    fast, slow, ft, st = run_both(
        monkeypatch, DYNAMIC[policy](), jobset, 1, speed
    )
    assert_identical(fast, slow, ft, st)
    assert fast.stats.n_events > 2  # the quantum cut the runs short
    if policy == "las":
        assert len({iv.job_id for iv in ft.intervals[:4]}) == 2


@pytest.mark.parametrize("m", (1, 2, 3))
def test_srw_ties_on_equal_total_work(monkeypatch, m):
    """Jobs of equal total work but different shapes, arriving together
    and apart: ties break by arrival, then id, in both loops."""
    dags = [
        chain([2, 2, 2]), single_node(6), chain([3, 3]), chain([1, 5]),
        single_node(6), chain([4, 1, 1]),
    ] * 3
    arrivals = [0.0] * 6 + [1.0, 1.0, 2.5, 2.5, 2.5, 4.0] + [9.0] * 6
    jobset = jobs_from_dags(dags, arrivals)
    scheduler = ShortestRemainingWorkScheduler()
    for speed in SPEEDS:
        assert_identical(*run_both(monkeypatch, scheduler, jobset, m, speed))


@pytest.mark.parametrize("policy", sorted(DYNAMIC))
def test_dynamic_policy_on_a_view_builds_no_job(monkeypatch, policy):
    flat = flatten_jobset(draw_instance("bing", 12))
    scheduler = DYNAMIC[policy]()
    expected_trace = TraceRecorder()
    expected = scheduler.run(to_jobset(flat), 8, 4 / 3, trace=expected_trace)

    def refuse(*args, **kwargs):
        raise AssertionError("built a Job")

    monkeypatch.setattr(Job, "__post_init__", refuse)
    monkeypatch.setattr(flat_mod, "_materialize", refuse)
    trace = TraceRecorder()
    traced = scheduler.run(to_jobset(flat), 8, 4 / 3, trace=trace)
    untraced = scheduler.run(to_jobset(flat), 8, 4 / 3)
    assert traced.path == untraced.path == "cext"
    assert np.array_equal(traced.completions, expected.completions)
    assert np.array_equal(untraced.completions, expected.completions)
    assert trace.intervals == expected_trace.intervals


def test_custom_dynamic_key_runs_the_python_loop():
    jobset = draw_instance("chains", 4)
    result = events.run_centralized(
        jobset, 3, priority_key=custom_dynamic_key, dynamic=True
    )
    assert result.path == "reference"
    assert result.reasons == ("dynamic=True",)
    # A dynamic LAS key written out again is not the module's function.
    lookalike = events.run_centralized(
        jobset, 3,
        priority_key=lambda je: (je.attained, je.arrival, je.job_id),
        dynamic=True,
    )
    assert lookalike.reasons == ("dynamic=True",)
    las = LeastAttainedServiceScheduler().run(jobset, 3)
    assert np.array_equal(lookalike.completions, las.completions)


@dataclasses.dataclass
class _UnhashableKey:
    """A callable dynamic key that cannot be hashed (``__hash__`` is
    ``None`` on a plain dataclass)."""

    sign: float = 1.0

    def __call__(self, je):
        return (self.sign * je.attained, je.arrival, je.job_id)


def test_unhashable_dynamic_key_runs_the_python_loop():
    jobset = draw_instance("chains", 4)
    key = _UnhashableKey()
    with pytest.raises(TypeError):
        hash(key)
    result = events.run_centralized(jobset, 3, priority_key=key, dynamic=True)
    assert result.path == "reference"
    assert result.reasons == ("dynamic=True",)
    las = LeastAttainedServiceScheduler().run(jobset, 3)
    assert np.array_equal(result.completions, las.completions)


def test_theorem_checks_run_on_the_compiled_loop(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("the Python loop ran a static policy")

    monkeypatch.setattr(events, "_run_centralized_reference", banned)
    eps = 0.25
    jobset = draw_instance("bing", 5)
    fifo = FifoScheduler().run(jobset, 8, bounds.fifo_speed(eps))
    assert check_fifo_theorem(fifo, jobset, eps).passed
    bwf = BwfScheduler().run(jobset, 8, bounds.bwf_speed(eps))
    assert check_bwf_theorem(bwf, jobset, eps).passed


def test_kernel_unavailable_warns_once_and_matches(monkeypatch):
    jobset = draw_instance("chains", 9)
    fast = FifoScheduler().run(jobset, 3, 1.0)
    monkeypatch.setattr(events, "resolve_centralized_kernel", lambda: None)
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
    with pytest.warns(RuntimeWarning, match="kernel=unavailable"):
        slow = FifoScheduler().run(jobset, 3, 1.0)
    assert np.array_equal(fast.completions, slow.completions)


# ----------------------------------------------------------------------
# Malformed instances are refused, never read out of bounds
# ----------------------------------------------------------------------


def _flat(works, offsets, targets, job_offsets, arrivals=None):
    n_jobs = len(job_offsets) - 1
    return FlatInstance(
        node_works=works,
        edge_offsets=offsets,
        edge_targets=targets,
        job_node_offsets=job_offsets,
        arrivals=[0.0] * n_jobs if arrivals is None else arrivals,
        weights=[1.0] * n_jobs,
    )


MALFORMED = {
    "target-out-of-range": _flat([1, 1], [0, 1, 1], [100000000], [0, 2]),
    "edge-crosses-jobs": _flat([1, 1], [0, 1, 1], [1], [0, 1, 2]),
    "job-without-root": _flat([1, 1], [0, 1, 2], [1, 0], [0, 2]),
    "empty-job": _flat([1], [0, 0], [], [0, 0, 1]),
    "cycle-below-a-root": _flat([1, 1, 1], [0, 1, 2, 3], [1, 2, 1], [0, 3]),
    "unsorted-arrivals": _flat([1, 1], [0, 0, 0], [], [0, 1, 2], [2.0, 1.0]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_instance_raises(case):
    flat = MALFORMED[case]
    rank = np.arange(flat.n_jobs, dtype=np.int64)
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        events._run_centralized_flat(
            resolve_centralized_kernel(), flat, 2, 1.0, rank
        )


@pytest.mark.parametrize("key_mode", (CK_LAS, CK_SRW), ids=("las", "srw"))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_instance_raises_in_dynamic_modes(case, key_mode):
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        events._run_centralized_flat(
            resolve_centralized_kernel(), MALFORMED[case], 2, 1.0, None,
            key_mode=key_mode,
        )


def test_rank_length_is_checked():
    flat = flatten_jobset(draw_instance("chains", 1))
    with pytest.raises(ValueError, match="one rank per job"):
        events._run_centralized_flat(
            resolve_centralized_kernel(), flat, 2, 1.0, np.arange(3)
        )
