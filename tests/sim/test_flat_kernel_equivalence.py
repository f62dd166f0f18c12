"""The differential oracle: the compiled kernel vs the reference engine.

The reference tick engine (:func:`repro.sim.engine._run_work_stealing`)
defines the semantics; the one fast kernel
(:func:`repro.sim.batch_engine.run_batch`, which is what
``engine="flat"`` runs at R=1) claims *bit-identity* with it: same
completion times, same :class:`SimulationStats` counters, same
victim-RNG draw sequence.  This suite pins that claim, for both input
forms (:class:`~repro.dag.job.JobSet` and
:class:`~repro.dag.flat.FlatInstance`), from every angle the reference
engine is exercised from elsewhere:

* randomized layered multi-DAG instances (the brute-force equivalence
  suite's generator) swept across the ``k`` / ``steals_per_tick`` /
  ``speed`` / ``m`` grid;
* all three paper work distributions (Bing, Finance, log-normal) via
  :class:`~repro.workloads.WorkloadSpec`;
* the Section 5 adversarial lower-bound instances;
* chain-heavy DAGs (the kernel's chain fast path) and single-node jobs;
* the non-uniform victim policies, ``steal_half`` and weighted
  admission on the kernel, traced (the kernel's trace rows must equal
  the reference's, in order) or with a sampler (which falls back to the
  reference and stays identical);
* an R>1 arm: ragged replicate batches with empty and unsorted
  replicates in one call, each compared with its own reference run
  (:func:`assert_batch_matches_reference`, also the comparison of
  ``tests/sim/test_batch_engine.py``);
* a routed arm: :meth:`WorkStealingScheduler.run`, which takes the
  kernel for every configuration, traced or not, and the reference
  engine (with no warning) for a run with a sampler, on randomized
  configurations.

Equality below always means *full* equality: completions array,
``stats.as_dict()``, scheduler label and recorded seed.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro
from repro.core.work_stealing import WorkStealingScheduler
from repro.dag.builders import chain, random_layered_dag, single_node
from repro.dag.flat import flatten_jobset, to_jobset
from repro.dag.job import JobSet, jobs_from_dags
from repro.sim import batch_engine
from repro.sim.batch_engine import run_batch
from repro.sim.engine import _run_work_stealing
from repro.sim.rng import derive_seed
from repro.sim.sampling import SystemSampler
from repro.sim.trace import TraceRecorder
from repro.workloads import (
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    WorkloadSpec,
    adversarial_instance,
)


def random_instance(seed, n_jobs=6, gap_scale=4.0):
    """Small multi-DAG jobset with bursty arrivals (cf. test_engine_reference)."""
    rng = np.random.default_rng(seed)
    dags = []
    for _ in range(n_jobs):
        n_nodes = int(rng.integers(1, 12))
        n_layers = int(rng.integers(1, n_nodes + 1))
        dags.append(
            random_layered_dag(
                rng,
                n_nodes=n_nodes,
                n_layers=n_layers,
                edge_probability=0.4,
                max_work=5,
            )
        )
    arrivals = np.cumsum(rng.exponential(gap_scale, size=n_jobs))
    arrivals[0] = 0.0
    weights = rng.uniform(0.5, 4.0, size=n_jobs)
    return jobs_from_dags(dags, arrivals.tolist(), weights=weights.tolist())


def assert_identical(ref, flat):
    """Full ScheduleResult equality, with a readable failure payload."""
    assert np.array_equal(ref.completions, flat.completions), (
        ref.completions,
        flat.completions,
    )
    assert ref.stats.as_dict() == flat.stats.as_dict()
    assert ref.scheduler == flat.scheduler
    assert ref.m == flat.m and ref.speed == flat.speed
    assert ref.seed == flat.seed
    assert np.array_equal(ref.arrivals, flat.arrivals)
    assert np.array_equal(ref.weights, flat.weights)


def run_kernel(instance, seed=None, **kwargs):
    """One run on the kernel: ``engine="flat"``'s dispatch target."""
    return run_batch([instance], seeds=[seed], **kwargs)[0]


def run_reference(instance, **kwargs):
    if not isinstance(instance, JobSet):
        instance = to_jobset(instance)
    return _run_work_stealing(instance, **kwargs)


def run_both(jobset, **kwargs):
    ref = _run_work_stealing(jobset, **kwargs)
    assert_identical(ref, run_kernel(jobset, **kwargs))
    # The FlatInstance input path (what sweep workers execute on) must
    # agree with the JobSet input path.
    assert_identical(ref, run_kernel(flatten_jobset(jobset), **kwargs))
    return ref


def assert_batch_matches_reference(instances, seeds=None, **kwargs):
    """run_batch vs R reference runs: full per-rep equality.

    A ``trace`` collects the batch's rows; the reference runs record
    into a recorder of their own, and the two must hold the same rows.
    """
    reps = len(instances)
    if seeds is None:
        seeds = [derive_seed(0, 77, r) for r in range(reps)]
    ref_kwargs = dict(kwargs)
    if kwargs.get("trace") is not None:
        ref_kwargs["trace"] = TraceRecorder()
    serial = [
        run_reference(instances[r], seed=seeds[r], **ref_kwargs)
        for r in range(reps)
    ]
    batched = run_batch(instances, seeds=seeds, **kwargs)
    assert len(batched) == reps
    for ref, got in zip(serial, batched):
        assert_identical(ref, got)
    if kwargs.get("trace") is not None:
        assert kwargs["trace"].intervals == ref_kwargs["trace"].intervals
    return batched


FUZZ_CASES = [
    # (instance seed, engine kwargs) -- admit-first, steal-first, the
    # theory configuration, sub-tick steal budgets, speeds, m=1.
    (0, dict(m=2, k=0, steals_per_tick=1, seed=10)),
    (1, dict(m=3, k=1, steals_per_tick=1, seed=11)),
    (2, dict(m=4, k=4, steals_per_tick=1, seed=12)),
    (3, dict(m=4, k=16, steals_per_tick=1, seed=13)),
    (4, dict(m=2, k=0, steals_per_tick=4, seed=14)),
    (5, dict(m=3, k=2, steals_per_tick=8, seed=15)),
    (6, dict(m=4, k=8, steals_per_tick=64, seed=16)),
    (7, dict(m=8, k=3, steals_per_tick=16, seed=17)),
    (8, dict(m=1, k=2, steals_per_tick=1, seed=18)),
    (9, dict(m=6, k=4, steals_per_tick=4, speed=2.0, seed=19)),
    (10, dict(m=2, k=7, steals_per_tick=2, speed=1.5, seed=20)),
    (11, dict(m=16, k=0, steals_per_tick=64, seed=21)),
    (12, dict(m=16, k=16, steals_per_tick=64, seed=22)),
]


@pytest.mark.parametrize("case_seed,kwargs", FUZZ_CASES)
def test_fuzz_random_instances(case_seed, kwargs):
    run_both(random_instance(case_seed), **kwargs)


@pytest.mark.parametrize("case_seed", range(8))
def test_fuzz_dense_arrivals(case_seed):
    """Bursty near-simultaneous arrivals stress admission ordering."""
    jobset = random_instance(100 + case_seed, n_jobs=10, gap_scale=0.5)
    run_both(jobset, m=4, k=2, steals_per_tick=8, seed=case_seed)
    run_both(jobset, m=4, k=0, steals_per_tick=64, seed=case_seed)


@pytest.mark.parametrize(
    "dist",
    [BingDistribution(), FinanceDistribution(), LogNormalDistribution()],
    ids=["bing", "finance", "lognormal"],
)
@pytest.mark.parametrize("kwargs", [
    dict(m=8, k=0, steals_per_tick=64, seed=0),
    dict(m=8, k=8, steals_per_tick=64, seed=1),
    dict(m=8, k=4, steals_per_tick=1, seed=2),
])
def test_paper_distributions(dist, kwargs):
    spec = WorkloadSpec(dist, qps=800.0, n_jobs=80, m=8)
    run_both(spec.build(seed=5), **kwargs)


@pytest.mark.parametrize("n_jobs", [8, 32])
def test_adversarial_instances(n_jobs):
    jobset, m = adversarial_instance(n_jobs)
    run_both(jobset, m=m, k=0, steals_per_tick=64, seed=3)
    run_both(jobset, m=m, k=2 * m, steals_per_tick=64, seed=3)


def test_chain_heavy_dags():
    """Long chains drive the kernel's chain_next fast path."""
    rng = np.random.default_rng(0)
    dags = [
        chain(rng.integers(1, 5, size=int(rng.integers(3, 20))).tolist())
        for _ in range(6)
    ]
    dags += [single_node(work=3), single_node(work=1)]
    arrivals = np.cumsum(rng.exponential(2.0, size=len(dags)))
    jobset = jobs_from_dags(dags, arrivals.tolist())
    run_both(jobset, m=3, k=1, steals_per_tick=2, seed=4)
    run_both(jobset, m=3, k=0, steals_per_tick=16, seed=4)


def test_empty_jobset():
    jobset = jobs_from_dags([], [])
    run_both(jobset, m=4, k=2, steals_per_tick=4, seed=0)


@pytest.mark.parametrize("kwargs", [
    dict(victim_policy="round-robin", k=2, steals_per_tick=4),
    dict(victim_policy="max-deque", k=2, steals_per_tick=4),
    dict(steal_half=True, k=1, steals_per_tick=8),
    dict(admission="weight", k=3, steals_per_tick=2),
])
def test_delegating_configurations(kwargs, monkeypatch):
    """Every scheduler knob runs on the kernel, traced or not, and stays
    identical to the reference; a traced run records the reference's
    segments, in its order."""
    # Armed: a kernel=unavailable fallback would set the flag.
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
    jobset = random_instance(7)
    ref = run_both(jobset, m=4, seed=8, **kwargs)
    assert run_kernel(jobset, m=4, seed=8, **kwargs).path == "cext"
    ref_trace, trace = TraceRecorder(), TraceRecorder()
    assert_identical(
        ref, _run_work_stealing(jobset, m=4, seed=8, trace=ref_trace, **kwargs)
    )
    traced = run_kernel(jobset, m=4, seed=8, trace=trace, **kwargs)
    assert_identical(ref, traced)
    assert (traced.path, traced.reasons) == ("cext", ())
    assert len(trace) == flatten_jobset(jobset).n_nodes  # one per node
    assert trace.intervals == ref_trace.intervals
    assert not batch_engine._SLOW_PATH_WARNED


def test_sampler_parity_and_observation_invariance(monkeypatch):
    """Telemetry on/off: identical schedules, identical sample series."""
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)
    jobset = random_instance(3, n_jobs=10)
    kwargs = dict(m=4, k=2, steals_per_tick=8, seed=9)

    ref_sampler = SystemSampler(every=16)
    flat_sampler = SystemSampler(every=16)
    ref = _run_work_stealing(jobset, sampler=ref_sampler, **kwargs)
    flat = run_kernel(jobset, sampler=flat_sampler, **kwargs)
    assert_identical(ref, flat)
    assert ref_sampler.samples == flat_sampler.samples
    assert len(flat_sampler.samples) > 0

    # Observation must not perturb the schedule.
    bare = run_kernel(jobset, **kwargs)
    assert_identical(bare, flat)


def test_determinism_and_generator_seed():
    """Same seed -> same bits; a Generator seed is consumed identically."""
    jobset = random_instance(5)
    kwargs = dict(m=4, k=3, steals_per_tick=8)
    a = run_kernel(jobset, seed=123, **kwargs)
    b = run_kernel(jobset, seed=123, **kwargs)
    assert_identical(a, b)

    # Passing a Generator: both engines must leave it in the same state.
    g_ref = np.random.default_rng(77)
    g_flat = np.random.default_rng(77)
    ref = _run_work_stealing(jobset, seed=g_ref, **kwargs)
    flat = run_kernel(jobset, seed=g_flat, **kwargs)
    assert_identical(ref, flat)
    assert g_ref.integers(0, 1 << 30) == g_flat.integers(0, 1 << 30)


def test_validation_errors_match_reference():
    jobset = random_instance(1)
    for bad in (
        dict(m=0),
        dict(m=2, speed=0.0),
        dict(m=2, k=-1),
        dict(m=2, steals_per_tick=0),
        dict(m=2, admission="lifo"),
    ):
        with pytest.raises(ValueError) as ref_exc:
            _run_work_stealing(jobset, **bad)
        with pytest.raises(ValueError) as flat_exc:
            run_kernel(jobset, **bad)
        assert str(ref_exc.value) == str(flat_exc.value)


def test_max_ticks_overload_error_matches():
    jobset = random_instance(2)
    with pytest.raises(RuntimeError, match="exceeded max_ticks=5"):
        run_kernel(jobset, m=2, k=0, steals_per_tick=1, seed=0, max_ticks=5)


# ----------------------------------------------------------------------
# R>1: ragged replicate batches in one call
# ----------------------------------------------------------------------


@pytest.mark.parametrize("reps", [1, 5, 32])
def test_ragged_batch_with_empty_and_unsorted_reps(reps):
    """Every replicate of a ragged batch matches its own reference run,
    including an empty replicate and a hand-built unsorted one."""
    instances = [
        flatten_jobset(random_instance(900 + r, n_jobs=2 + r % 7))
        for r in range(reps)
    ]
    if reps > 1:
        instances[1] = flatten_jobset(jobs_from_dags([], []))
    if reps > 2:
        unsorted = instances[2]
        instances[2] = dataclasses.replace(
            unsorted,
            arrivals=np.ascontiguousarray(unsorted.arrivals[::-1]),
        )
        assert not np.all(
            instances[2].arrivals[1:] >= instances[2].arrivals[:-1]
        )
    assert_batch_matches_reference(instances, m=4, k=2, steals_per_tick=8)


# ----------------------------------------------------------------------
# WorkStealingScheduler.run: routed to the kernel without a sampler
# ----------------------------------------------------------------------


def random_config(rng):
    """Random machine and step knobs: (m, speed, k, steals_per_tick)."""
    return (
        int(rng.integers(1, 10)),
        float(rng.choice([1.0, 1.5, 2.0])),
        int(rng.choice([0, 1, 2, 4, 16])),
        int(rng.choice([1, 2, 8, 64])),
    )


def random_policy_knobs(rng):
    """Random victim policy, steal amount and admission order."""
    return dict(
        victim_policy=str(rng.choice(["uniform", "round-robin", "max-deque"])),
        steal_half=bool(rng.integers(2)),
        admission=str(rng.choice(["fifo", "weight"])),
    )


def assert_routed_matches_reference(scheduler, jobset, m, speed, seed,
                                    observers=dict):
    """Scheduler.run vs the reference: schedule, stats, RNG post-state.

    ``observers()`` returns fresh ``trace``/``sampler`` keyword arguments
    for each of the two runs; the two traces must hold the same rows.
    """
    g_run = np.random.default_rng(seed)
    g_ref = np.random.default_rng(seed)
    got_obs, ref_obs = observers(), observers()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scheduler.run(jobset, m=m, speed=speed, seed=g_run, **got_obs)
    ref = _run_work_stealing(
        jobset, m=m, speed=speed, seed=g_ref,
        **scheduler._engine_kwargs(), **ref_obs,
    )
    assert_identical(ref, got)
    assert g_run.bit_generator.state == g_ref.bit_generator.state
    if "trace" in got_obs:
        assert got_obs["trace"].intervals == ref_obs["trace"].intervals
    return got


@pytest.mark.parametrize("case", range(16))
def test_routed_scheduler_matches_reference(case, monkeypatch):
    rng = np.random.default_rng(7000 + case)
    m, speed, k, sigma = random_config(rng)
    jobset = random_instance(
        7000 + case, n_jobs=int(rng.integers(1, 14)),
        gap_scale=float(rng.choice([0.5, 4.0])),
    )
    knobs = random_policy_knobs(rng)
    scheduler = WorkStealingScheduler(k=k, steals_per_tick=sigma, **knobs)
    assert scheduler.consumes_flat

    def no_reference(*args, **kwargs):
        raise AssertionError("an in-scope run took the reference engine")

    monkeypatch.setattr(batch_engine, "_run_work_stealing", no_reference)
    got = assert_routed_matches_reference(scheduler, jobset, m, speed, case)
    assert (got.path, got.reasons) == ("cext", ())
    # The flat form, as sweep workers hand it over, with an int seed.
    monkeypatch.undo()
    assert_identical(
        _run_work_stealing(jobset, m=m, speed=speed, seed=case, k=k,
                           steals_per_tick=sigma, **knobs),
        scheduler.run(flatten_jobset(jobset), m=m, speed=speed, seed=case),
    )


def _traced():
    return dict(trace=TraceRecorder())


def _sampled():
    return dict(sampler=SystemSampler(every=8))


@pytest.mark.parametrize("case,knobs,observers", [
    (0, dict(victim_policy="round-robin"), _traced),
    (1, dict(victim_policy="max-deque"), _sampled),
    (2, dict(steal_half=True), _traced),
    (3, dict(admission="weight"), _sampled),
    (4, {}, _sampled),
    (5, {}, _traced),
])
def test_routed_out_of_scope_runs_reference_without_warning(
    case, knobs, observers, monkeypatch
):
    """A sampler is the one observer outside the kernel's scope: the run
    takes the reference engine and names it.  A traced run stays on the
    kernel with the reference's trace rows.  Neither warns."""
    # Armed: a kernel=unavailable fallback would warn, and warnings are
    # errors.
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
    rng = np.random.default_rng(7100 + case)
    m, speed, k, sigma = random_config(rng)
    jobset = random_instance(7100 + case, n_jobs=8)
    scheduler = WorkStealingScheduler(k=k, steals_per_tick=sigma, **knobs)
    assert scheduler.consumes_flat
    got = assert_routed_matches_reference(
        scheduler, jobset, m, speed, case, observers
    )
    if observers is _traced:
        assert (got.path, got.reasons) == ("cext", ())
    else:
        assert (got.path, got.reasons) == (
            "reference", ("sampler=<SystemSampler>",)
        )
    assert not batch_engine._SLOW_PATH_WARNED


# ----------------------------------------------------------------------
# repro.run() / repro.sweep() facade integration
# ----------------------------------------------------------------------


def test_run_facade_flat_engine():
    spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=40, m=4)
    jobset = spec.build(seed=2)
    ref = repro.run("work-stealing", jobset, m=4, seed=1, k=2, steals_per_tick=8)
    flat = repro.run("flat", jobset, m=4, seed=1, k=2, steals_per_tick=8)
    assert_identical(ref, flat)
    # The facade also takes the CSR instance directly.
    flat2 = repro.run(
        "flat", flatten_jobset(jobset), m=4, seed=1, k=2, steals_per_tick=8
    )
    assert_identical(ref, flat2)


def test_run_facade_unknown_engine_lists_names():
    jobset = random_instance(0)
    with pytest.raises(ValueError) as exc:
        repro.run("flt", jobset, m=2)
    msg = str(exc.value)
    from repro.api import ENGINE_NAMES

    for name in ENGINE_NAMES:
        assert name in msg
    assert "flat" in msg


def test_sweep_facade_flat_matches_reference():
    spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=30, m=4)
    grid = {"k": [0, 4], "steals_per_tick": [1, 8]}
    ref = repro.sweep(
        "work-stealing", grid, spec, m=4, reps=2, seed=11, max_workers=1
    )
    flat = repro.sweep("flat", grid, spec, m=4, reps=2, seed=11, max_workers=1)
    assert [(c.params, c.metrics) for c in ref.cells] == [
        (c.params, c.metrics) for c in flat.cells
    ]
