"""Cross-engine fuzz: the replicate API on the kernel vs the reference.

:func:`repro.sim.batch_engine.run_batch` claims *bit-identity per
replicate* with running the reference engine
(:func:`repro.sim.engine._run_work_stealing`) R times -- same
completions, same :class:`SimulationStats`, same scheduler label, and
the same ``PCG64`` post-state when Generators are passed.  This suite
pins that claim across replicate batches (the single-replicate oracle
is ``tests/sim/test_flat_kernel_equivalence.py``):

* randomized layered multi-DAG replicate batches across the ``k`` /
  ``steals_per_tick`` / ``speed`` / ``m`` grid;
* all three paper work distributions (Bing, Finance, log-normal);
* the Section 5 adversarial instances and chain-heavy DAGs;
* ragged replicate counts (R=1, R=5, R=32) over *different* instances
  in one call;
* RNG post-state identity;
* the per-replicate fallbacks (empty instance, unsorted hand-built
  arrivals) and whole-batch fallbacks (a sampler, no compiler, a
  failing compiler, a corrupt cached kernel), and traced batches, which
  stay on the kernel;
* the import-time background build: awaited once, finished before a
  fork, and failing or skipped exactly like the synchronous build;
* the table cache's memory behaviour (no reference cycle, no copies of
  the instance's CSR arrays);
* the ``engine="flat"`` facade, the path and reasons each result
  reports, and the slow-path warnings.
"""

import dataclasses
import gc
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dag.builders import chain, single_node
from repro.dag.flat import FlatInstance, flatten_jobset
from repro.dag.job import jobs_from_dags
from repro.sim import _cext, batch_engine
from repro.sim.batch_engine import run_batch
from repro.sim.engine import _run_work_stealing
from repro.sim.rng import derive_seed
from repro.workloads import (
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    WorkloadSpec,
    adversarial_instance,
)

from tests.sim.test_flat_kernel_equivalence import (
    assert_batch_matches_reference,
    assert_identical,
    random_instance,
    run_reference,
)


def replicate_instances(base_seed, reps, **inst_kwargs):
    return [
        random_instance(base_seed + r, **inst_kwargs) for r in range(reps)
    ]


BATCH_FUZZ_CASES = [
    # (base instance seed, reps, engine kwargs) -- admit-first,
    # steal-first, sub-tick budgets, speeds, m=1, the theory config.
    (0, 3, dict(m=2, k=0, steals_per_tick=1)),
    (10, 4, dict(m=3, k=1, steals_per_tick=1)),
    (20, 5, dict(m=4, k=4, steals_per_tick=1)),
    (30, 4, dict(m=4, k=16, steals_per_tick=1)),
    (40, 3, dict(m=2, k=0, steals_per_tick=4)),
    (50, 6, dict(m=3, k=2, steals_per_tick=8)),
    (60, 4, dict(m=4, k=8, steals_per_tick=64)),
    (70, 3, dict(m=8, k=3, steals_per_tick=16)),
    (80, 4, dict(m=1, k=2, steals_per_tick=1)),
    (90, 3, dict(m=6, k=4, steals_per_tick=4, speed=2.0)),
    (100, 3, dict(m=2, k=7, steals_per_tick=2, speed=1.5)),
    (110, 4, dict(m=16, k=16, steals_per_tick=64)),
]


@pytest.mark.parametrize("base_seed,reps,kwargs", BATCH_FUZZ_CASES)
def test_fuzz_random_replicates(base_seed, reps, kwargs):
    assert_batch_matches_reference(replicate_instances(base_seed, reps), **kwargs)


@pytest.mark.parametrize(
    "dist",
    [BingDistribution(), FinanceDistribution(), LogNormalDistribution()],
    ids=["bing", "finance", "lognormal"],
)
@pytest.mark.parametrize("kwargs", [
    dict(m=8, k=0, steals_per_tick=64),
    dict(m=8, k=8, steals_per_tick=64),
    dict(m=8, k=4, steals_per_tick=1),
])
def test_paper_distributions(dist, kwargs):
    spec = WorkloadSpec(dist, qps=800.0, n_jobs=60, m=8)
    flats = [spec.build_flat(derive_seed(5, 9000, r)) for r in range(4)]
    assert_batch_matches_reference(flats, **kwargs)


@pytest.mark.parametrize("n_jobs", [8, 32])
def test_adversarial_instances(n_jobs):
    jobset, m = adversarial_instance(n_jobs)
    # The same adversarial instance replicated: per-rep streams must
    # stay independent even over identical structure.
    assert_batch_matches_reference([jobset] * 4, m=m, k=0, steals_per_tick=64)
    assert_batch_matches_reference(
        [jobset] * 3, m=m, k=2 * m, steals_per_tick=64
    )


def test_chain_heavy_dags():
    rng = np.random.default_rng(0)
    instances = []
    for rep in range(4):
        dags = [
            chain(rng.integers(1, 5, size=int(rng.integers(3, 20))).tolist())
            for _ in range(5)
        ]
        dags += [single_node(work=3), single_node(work=1)]
        arrivals = np.cumsum(rng.exponential(2.0, size=len(dags)))
        instances.append(jobs_from_dags(dags, arrivals.tolist()))
    assert_batch_matches_reference(instances, m=3, k=1, steals_per_tick=2)
    assert_batch_matches_reference(instances, m=3, k=0, steals_per_tick=16)


@pytest.mark.parametrize("reps", [1, 5, 32])
def test_ragged_rep_counts(reps):
    """R=1, R=5, R=32 over *different* instances in one call."""
    instances = replicate_instances(
        500 + reps, reps, n_jobs=4, gap_scale=2.0
    )
    assert_batch_matches_reference(instances, m=4, k=2, steals_per_tick=8)


def test_mixed_sizes_and_empty_rep():
    """Wildly different replicate shapes, including an empty one."""
    instances = [
        random_instance(1, n_jobs=10),
        jobs_from_dags([], []),  # n == 0: the per-rep early return
        random_instance(2, n_jobs=2),
        jobs_from_dags([single_node(work=5)], [0.0]),
    ]
    assert_batch_matches_reference(instances, m=4, k=2, steals_per_tick=4)


def test_rng_post_state_identity():
    """Passing Generators: each rep's PCG64 ends in the serial state."""
    instances = replicate_instances(300, 5)
    kwargs = dict(m=4, k=3, steals_per_tick=8)
    g_serial = [np.random.default_rng(1000 + r) for r in range(5)]
    g_batch = [np.random.default_rng(1000 + r) for r in range(5)]
    serial = [
        run_reference(instances[r], seed=g_serial[r], **kwargs)
        for r in range(5)
    ]
    batched = run_batch(instances, seeds=g_batch, **kwargs)
    for ref, got in zip(serial, batched):
        assert_identical(ref, got)
    for r in range(5):
        assert g_serial[r].integers(0, 1 << 30) == g_batch[r].integers(
            0, 1 << 30
        ), f"rep {r}: PCG64 post-state diverged"


def test_delegating_knobs_fall_back_identically(monkeypatch):
    """A sampler runs the reference engine per replicate, whatever the
    scheduler knobs; without one, traced or not, the knobs take the
    kernel (the traces are compared in assert_batch_matches_reference)."""
    from repro.sim.sampling import SystemSampler
    from repro.sim.trace import TraceRecorder

    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)
    instances = replicate_instances(600, 3)
    for knobs, observer in (
        (dict(m=4, victim_policy="round-robin", k=2, steals_per_tick=4),
         dict(trace=TraceRecorder())),
        (dict(m=4, steal_half=True, k=1, steals_per_tick=8),
         dict(sampler=SystemSampler())),
        (dict(m=4, admission="weight", k=3, steals_per_tick=2),
         dict(trace=TraceRecorder())),
    ):
        observed = assert_batch_matches_reference(
            instances, **knobs, **observer
        )
        assert {r.path for r in observed} == (
            {"cext"} if "trace" in observer else {"reference"}
        )
        bare = assert_batch_matches_reference(instances, **knobs)
        assert {r.path for r in bare} == {"cext"}


def test_unsorted_arrivals_rep_falls_back():
    """A hand-built unsorted-arrivals rep delegates, inside the batch."""
    sorted_flat = flatten_jobset(random_instance(7, n_jobs=5))
    unsorted = dataclasses.replace(
        sorted_flat, arrivals=np.ascontiguousarray(sorted_flat.arrivals[::-1])
    )
    assert not np.all(unsorted.arrivals[1:] >= unsorted.arrivals[:-1])
    instances = [sorted_flat, unsorted, flatten_jobset(random_instance(8))]
    assert_batch_matches_reference(instances, m=4, k=2, steals_per_tick=4)


def test_empty_batch_and_seed_validation():
    assert run_batch([], m=4) == []
    instances = replicate_instances(0, 2)
    with pytest.raises(ValueError, match="one seed per instance"):
        run_batch(instances, m=4, seeds=[1])


def test_max_ticks_overload_error_matches():
    instances = replicate_instances(2, 2)
    with pytest.raises(RuntimeError, match="exceeded max_ticks=5"):
        run_batch(
            instances, m=2, k=0, steals_per_tick=1,
            seeds=[0, 1], max_ticks=5,
        )


def _flat(node_works, edge_offsets, edge_targets, job_node_offsets):
    n_jobs = len(job_node_offsets) - 1
    return FlatInstance(
        node_works=node_works,
        edge_offsets=edge_offsets,
        edge_targets=edge_targets,
        job_node_offsets=job_node_offsets,
        arrivals=np.zeros(n_jobs),
        weights=np.ones(n_jobs),
    )


_MALFORMED = {
    "target-out-of-range": ([1, 1], [0, 1, 1], [100000000], [0, 2]),
    "negative-target": ([1, 1], [0, 1, 1], [-1], [0, 2]),
    "edge-crosses-jobs": ([1, 1], [0, 1, 1], [1], [0, 1, 2]),
    "edge-leaves-its-job": (
        [1, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1], [1], [0, 2, 5]
    ),
    "edge-offsets-start": ([1, 1], [1, 1, 1], [1], [0, 2]),
    "edge-offsets-decrease": ([1, 1, 1], [0, 2, 1, 2], [1, 2], [0, 3]),
    "edge-offsets-end": ([1, 1], [0, 1, 1], [1, 0], [0, 2]),
    "job-offsets-start": ([1, 1], [0, 0, 0], [], [1, 2]),
    "job-offsets-decrease": ([1, 1], [0, 0, 0], [], [0, 2, 1, 2]),
    "job-offsets-end": ([1, 1], [0, 0, 0], [], [0, 1]),
    "job-without-root": ([1, 1], [0, 1, 2], [1, 0], [0, 2]),
    "empty-job": ([1], [0, 0], [], [0, 0, 1]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_instance_is_refused_before_the_kernel(case):
    """Every entry point refuses a malformed flat with the kernel's
    error, before a view, a per-job array or the kernel reads it."""
    from repro.core.opt import opt_lower_bound
    from repro.dag.flat import to_jobset
    from repro.sim.stream_engine import _segment_tables

    flat = _flat(*_MALFORMED[case])
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        run_batch([flat], 2, seeds=[0])
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        _segment_tables(flat)  # the per-segment check of streaming runs
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        to_jobset(_flat(*_MALFORMED[case]))
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        opt_lower_bound(_flat(*_MALFORMED[case]), m=2)
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        repro.run(repro.FifoScheduler(), _flat(*_MALFORMED[case]), m=2)


@pytest.mark.parametrize("arrival,weight", [
    (0.0, np.nan), (0.0, np.inf), (0.0, 0.0), (0.0, -1.0),
    (np.inf, 1.0), (-1.0, 1.0),
])
def test_out_of_range_arrival_or_weight_is_refused(arrival, weight):
    """What the to_jobset view refuses, the kernel refuses too: a NaN
    weight would leave weighted admission order undefined."""
    from repro.dag.flat import to_jobset

    flat = dataclasses.replace(
        _flat([1, 1], [0, 1, 1], [1], [0, 2]),
        arrivals=np.array([arrival]), weights=np.array([weight]),
    )
    with pytest.raises(ValueError, match="malformed FlatInstance"):
        run_batch([flat], 2, seeds=[0], admission="weight")
    with pytest.raises(ValueError):
        to_jobset(flat)


@pytest.mark.parametrize("work", [0, -3])
def test_non_positive_node_work_is_refused(work):
    """A node without work never finishes: the kernel used to run such
    an instance to ``max_ticks``.  Both kernel entry points refuse it,
    the bound JobDag enforces; so does the flat's JobSet view."""
    from repro.dag.flat import to_jobset
    from repro.dag.graph import DagValidationError, JobDag
    from repro.dag.job import Job, JobSet
    from repro.sim.events import resolve_centralized_kernel, run_centralized

    flat = _flat([1, work], [0, 1, 1], [1], [0, 2])
    with pytest.raises(ValueError, match="node works must be positive"):
        repro.run("flat", flat, m=2, seed=0)
    with pytest.raises(DagValidationError, match="non-positive work"):
        to_jobset(flat)
    if resolve_centralized_kernel() is None:
        pytest.skip("the compiled centralized loop did not build")
    # The trusted constructor takes the works as given, and the compiled
    # loop reads the set's flattening.
    dag = JobDag.from_csr([1, work], [0, 1, 1], [1])
    with pytest.raises(ValueError, match="node works must be positive"):
        run_centralized(JobSet([Job(0, dag, 0.0, 1.0)]), 2)


def test_malformed_instance_does_not_crash_the_interpreter():
    """Out-of-range edge targets used to be read by the kernel as they
    are: a segfault.  In a subprocess, so a crash fails this test by
    exit code instead of killing the test session."""
    src = Path(_cext.__file__).resolve().parents[2]
    probe = (
        "import numpy as np\n"
        "from repro.dag.flat import FlatInstance\n"
        "from repro.sim.batch_engine import run_batch\n"
        "f = FlatInstance(node_works=[1, 1], edge_offsets=[0, 1, 1],\n"
        "    edge_targets=[100000000], job_node_offsets=[0, 2],\n"
        "    arrivals=[0.0], weights=[1.0])\n"
        "try:\n"
        "    run_batch([f], 2, seeds=[0])\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.startswith("refused: malformed FlatInstance")


def test_determinism():
    instances = replicate_instances(3, 3)
    seeds = [11, 22, 33]
    kwargs = dict(m=4, k=3, steals_per_tick=8)
    a = run_batch(instances, seeds=seeds, **kwargs)
    b = run_batch(instances, seeds=seeds, **kwargs)
    for x, y in zip(a, b):
        assert_identical(x, y)


# ----------------------------------------------------------------------
# Kernel build and load: every failure degrades to the reference
# ----------------------------------------------------------------------


def _reset_cext_resolution(monkeypatch, tmp_path=None):
    monkeypatch.setattr(_cext, "_cext_fn", None)
    monkeypatch.setattr(_cext, "_centralized_fn", None)
    monkeypatch.setattr(_cext, "_p2_fn", None)
    monkeypatch.setattr(_cext, "_cext_resolved", False)
    monkeypatch.setattr(_cext, "_pending", None)
    monkeypatch.setattr(_cext, "unavailable_reason", None)
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
    if tmp_path is not None:
        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))


def _reference_runs(instances, seeds, **kwargs):
    return [
        run_reference(inst, seed=seed, **kwargs)
        for inst, seed in zip(instances, seeds)
    ]


def test_cext_requested_but_unbuildable_warns_once(monkeypatch):
    """No compiler: the reference engine runs, one RuntimeWarning, same bits."""
    _reset_cext_resolution(monkeypatch)
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    instances = replicate_instances(800, 2)
    with pytest.warns(RuntimeWarning, match="kernel=unavailable"):
        first = run_batch(instances, m=3, k=1, steals_per_tick=4, seeds=[1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second = run_batch(
            instances, m=3, k=1, steals_per_tick=4, seeds=[1, 2]
        )
    reference = _reference_runs(
        instances, [1, 2], m=3, k=1, steals_per_tick=4
    )
    for a, b, ref in zip(first, second, reference):
        assert_identical(a, b)
        assert_identical(ref, a)
    assert "no C compiler" in _cext.unavailable_reason


def test_traced_run_without_kernel_records_the_kernels_rows(monkeypatch):
    """No compiler: a traced run takes the reference engine and records
    the rows the kernel records."""
    from repro.sim.trace import TraceRecorder

    flat = flatten_jobset(random_instance(7, n_jobs=8))
    on_kernel = TraceRecorder()
    (kernel,) = run_batch(
        [flat], m=4, k=2, steals_per_tick=8, seeds=[8], trace=on_kernel
    )
    assert (kernel.path, kernel.reasons) == ("cext", ())
    _reset_cext_resolution(monkeypatch)
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)  # quiet
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    fallback = TraceRecorder()
    (ref,) = run_batch(
        [flat], m=4, k=2, steals_per_tick=8, seeds=[8], trace=fallback
    )
    assert (ref.path, ref.reasons) == ("reference", ("kernel=unavailable",))
    assert_identical(kernel, ref)
    assert fallback.intervals == on_kernel.intervals


@pytest.mark.parametrize("entry", ["stream", "scheduler"])
def test_unavailable_kernel_warning_names_the_callers_file(
    entry, monkeypatch
):
    """The kernel=unavailable warning points at the user's call, not at
    the package frame that noticed the missing kernel."""
    from repro.core.work_stealing import WorkStealingScheduler

    _reset_cext_resolution(monkeypatch)
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=40, m=4)
    with pytest.warns(RuntimeWarning, match="kernel=unavailable") as record:
        if entry == "stream":
            repro.run("flat", stream=spec.stream(chunk_jobs=16), m=4, seed=1)
        else:
            WorkStealingScheduler().run(spec.build(seed=1), m=4, seed=1)
    (warned,) = [w for w in record if w.category is RuntimeWarning]
    assert warned.filename == __file__


def test_failing_compiler_warns_once_and_matches_reference(
    monkeypatch, tmp_path
):
    """A compiler that exists but fails: one RuntimeWarning, same bits."""
    _reset_cext_resolution(monkeypatch, tmp_path)
    monkeypatch.setattr(_cext, "_find_compiler", lambda: "false")
    instances = replicate_instances(810, 3)
    seeds = [derive_seed(4, 4, r) for r in range(3)]
    with pytest.warns(RuntimeWarning, match="could not be built") as record:
        first = run_batch(instances, m=4, k=2, steals_per_tick=8, seeds=seeds)
    assert len([w for w in record if w.category is RuntimeWarning]) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        repro.run("flat", instances[0], m=4, k=2, steals_per_tick=8, seed=1)
    reference = _reference_runs(
        instances, seeds, m=4, k=2, steals_per_tick=8
    )
    for ref, got in zip(reference, first):
        assert_identical(ref, got)
    assert not list(tmp_path.glob("*.so"))


def test_corrupt_cached_kernel_is_rebuilt(monkeypatch, tmp_path):
    """Garbage bytes at the cached path: unlinked, rebuilt, loaded."""
    _reset_cext_resolution(monkeypatch, tmp_path)
    so_path = _cext._so_path()
    assert so_path.parent == tmp_path
    so_path.write_bytes(b"this is not a shared object\n" * 64)
    assert _cext.resolve_batch_kernel() is not None
    assert so_path.stat().st_size > 64 * 28
    instances = replicate_instances(820, 3)
    seeds = [derive_seed(5, 5, r) for r in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_batch_matches_reference(
            instances, seeds=seeds, m=4, k=2, steals_per_tick=8
        )


def _count_compiles(monkeypatch):
    """Record every child process started; returns the list of argvs."""
    started = []
    real_popen = subprocess.Popen

    def popen(args, *a, **kw):
        started.append(list(args))
        return real_popen(args, *a, **kw)

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


def test_background_build_is_awaited_never_restarted(monkeypatch, tmp_path):
    _reset_cext_resolution(monkeypatch, tmp_path)
    started = _count_compiles(monkeypatch)
    _cext.start_background_build()
    _cext.start_background_build()  # already running: not started again
    assert _cext._pending is not None
    assert len(started) == 1
    assert _cext.resolve_batch_kernel() is not None
    assert _cext._pending is None
    assert len(started) == 1
    assert list(tmp_path.glob("*.so")) == [_cext._so_path()]
    _cext.start_background_build()  # resolved: nothing to start
    assert len(started) == 1


def test_build_pins_float_semantics(monkeypatch, tmp_path):
    """The centralized loop's floats must round like Python's: the
    compiler runs with -ffp-contract=off and never -ffast-math."""
    _reset_cext_resolution(monkeypatch, tmp_path)
    started = _count_compiles(monkeypatch)
    assert _cext.resolve_batch_kernel() is not None
    (argv,) = started
    assert "-ffp-contract=off" in argv
    assert not any("fast-math" in arg for arg in argv)
    assert argv[1 : 1 + len(_cext.CFLAGS)] == list(_cext.CFLAGS)


def test_compiler_flags_are_part_of_the_cache_key(monkeypatch, tmp_path):
    """Changing only the flags must not reuse an object built under the
    old ones."""
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    before = _cext._so_path()
    monkeypatch.setattr(_cext, "CFLAGS", _cext.CFLAGS + ("-g",))
    after = _cext._so_path()
    assert before != after and before.parent == after.parent


def test_child_forked_mid_build_loads_the_shared_object(
    monkeypatch, tmp_path
):
    _reset_cext_resolution(monkeypatch, tmp_path)
    started = _count_compiles(monkeypatch)
    instance = random_instance(830)
    expected = run_reference(instance, m=3, k=1, steals_per_tick=4, seed=5)
    _cext.start_background_build()
    assert _cext._pending is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: inherit the kernel, never compile
        code = 1
        try:
            got = run_batch(
                [instance], m=3, k=1, steals_per_tick=4, seeds=[5]
            )[0]
            if (
                _cext._pending is None
                and _cext._cext_fn is not None
                and len(started) == 1
                and np.array_equal(got.completions, expected.completions)
            ):
                code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _cext._pending is None and _cext._cext_fn is not None
    assert len(started) == 1


def test_fork_without_compiler_warns_once_for_all_workers(monkeypatch):
    """The parent warns before forking; forked workers fall back
    silently instead of each warning again."""
    _reset_cext_resolution(monkeypatch)
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    instance = random_instance(835)
    expected = run_reference(instance, m=3, k=1, steals_per_tick=4, seed=5)
    with pytest.warns(RuntimeWarning, match="kernel=unavailable"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run_batch(
                    [instance], m=3, k=1, steals_per_tick=4, seeds=[5]
                )[0]
            if np.array_equal(got.completions, expected.completions):
                code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_failing_background_build_warns_once_with_compiler_stderr(
    monkeypatch, tmp_path
):
    _reset_cext_resolution(monkeypatch, tmp_path)
    compiler = tmp_path / "broken-cc"
    compiler.write_text(
        "#!/bin/sh\necho 'kernel.c:1: error: toolchain is broken' >&2\n"
        "exit 1\n"
    )
    compiler.chmod(0o755)
    monkeypatch.setattr(_cext, "_find_compiler", lambda: str(compiler))
    _cext.start_background_build()
    assert _cext._pending is not None
    instances = replicate_instances(840, 2)
    with pytest.warns(RuntimeWarning, match="toolchain is broken") as record:
        first = run_batch(instances, m=4, k=2, steals_per_tick=8, seeds=[1, 2])
    assert len([w for w in record if w.category is RuntimeWarning]) == 1
    assert "toolchain is broken" in _cext.unavailable_reason
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second = run_batch(
            instances, m=4, k=2, steals_per_tick=8, seeds=[1, 2]
        )
    reference = _reference_runs(
        instances, [1, 2], m=4, k=2, steals_per_tick=8
    )
    for a, b, ref in zip(first, second, reference):
        assert_identical(ref, a)
        assert_identical(ref, b)
    assert not list(tmp_path.glob("*.so"))


def test_no_build_started_with_cached_object_or_without_compiler(
    monkeypatch, tmp_path
):
    _reset_cext_resolution(monkeypatch, tmp_path)
    assert _cext.resolve_batch_kernel() is not None  # caches the object
    started = _count_compiles(monkeypatch)
    _reset_cext_resolution(monkeypatch, tmp_path)
    _cext.start_background_build()
    assert _cext._pending is None
    assert _cext.resolve_batch_kernel() is not None

    _reset_cext_resolution(monkeypatch, tmp_path / "empty")
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    _cext.start_background_build()
    assert _cext._pending is None
    assert started == []


def test_unusable_cache_directory_fails_at_resolution(monkeypatch, tmp_path):
    """A build that cannot start is no import error; resolving says why."""
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    _reset_cext_resolution(monkeypatch, not_a_dir / "cache")
    _cext.start_background_build()
    assert _cext._pending is None
    assert _cext.resolve_batch_kernel() is None
    assert "NotADirectoryError" in _cext.unavailable_reason


def test_reset_forgets_an_in_flight_build(monkeypatch, tmp_path):
    _reset_cext_resolution(monkeypatch, tmp_path / "a")
    _cext.start_background_build()
    build = _cext._pending
    assert build is not None
    try:
        _reset_cext_resolution(monkeypatch, tmp_path / "b")
        assert _cext._pending is None
        monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
        assert _cext.resolve_batch_kernel() is None
        assert "no C compiler" in _cext.unavailable_reason
    finally:
        build.finish()  # reap the forgotten compiler


def test_import_starts_the_build_in_a_fresh_interpreter(tmp_path):
    """Importing repro starts the compile; a warm cache or a PATH with
    no compiler starts none (checked in fresh interpreters)."""
    src = Path(_cext.__file__).resolve().parents[2]
    probe = (
        "import repro.sim._cext as c; "
        "print(c._pending is not None, c.resolve_batch_kernel() is not None)"
    )

    def fresh(**overrides):
        env = dict(os.environ, PYTHONPATH=str(src))
        env["REPRO_CEXT_CACHE"] = str(tmp_path / "cache")
        env.update(overrides)
        return subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()

    assert fresh() == ["True", "True"]
    assert fresh() == ["False", "True"]  # cached shared object
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    assert fresh(
        PATH=str(empty), REPRO_CEXT_CACHE=str(tmp_path / "other")
    ) == ["False", "False"]


def test_kernel_is_actually_loaded_here():
    """This environment has a C compiler: the native path must engage
    (otherwise the whole suite silently pins reference==reference)."""
    assert _cext.resolve_batch_kernel() is not None


# ----------------------------------------------------------------------
# Arena cache memory
# ----------------------------------------------------------------------


def test_arena_dies_with_its_instances_without_cyclic_gc():
    """The cached tables make no reference cycle: with the collector
    off, every replicate dies on ``del``, at R=1 and R>1."""
    gc.disable()
    try:
        single = flatten_jobset(random_instance(850))
        pair = [flatten_jobset(random_instance(851 + r)) for r in range(2)]
        run_batch([single], m=3, k=1, steals_per_tick=4, seeds=[1])
        run_batch(pair, m=3, k=1, steals_per_tick=4, seeds=[1, 2])
        refs = [weakref.ref(f) for f in [single, *pair]]
        del single, pair
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_single_replicate_arena_aliases_read_only_instance_arrays():
    """At R=1 the kernel reads the instance's own CSR arrays, which are
    read-only."""
    flat = flatten_jobset(random_instance(860, n_jobs=8))
    frozen = {}
    for name in ("node_works", "edge_offsets", "edge_targets",
                 "job_node_offsets", "arrivals", "weights"):
        arr = np.array(getattr(flat, name))
        arr.setflags(write=False)
        frozen[name] = arr
    flat = dataclasses.replace(flat, **frozen)
    got = run_batch([flat], m=4, k=2, steals_per_tick=4, seeds=[3])[0]
    tables = batch_engine._batch_tables(flat)
    for name, alias in (("node_works", tables.works),
                        ("edge_offsets", tables.eo),
                        ("edge_targets", tables.et)):
        assert np.shares_memory(frozen[name], alias), name
    assert_identical(run_reference(flat, m=4, k=2, steals_per_tick=4,
                                   seed=3), got)


# ----------------------------------------------------------------------
# repro.run() facade integration
# ----------------------------------------------------------------------


def test_run_facade_batch_engine():
    """``engine="flat"`` is run_batch at R=1, for both input forms."""
    spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=40, m=4)
    jobset = spec.build(seed=2)
    kwargs = dict(m=4, k=2, steals_per_tick=8)
    batch = run_batch([jobset], seeds=[1], **kwargs)[0]
    assert_identical(batch, repro.run("flat", jobset, seed=1, **kwargs))
    assert_identical(
        batch, repro.run("flat", flatten_jobset(jobset), seed=1, **kwargs)
    )
    assert_identical(batch, _run_work_stealing(jobset, seed=1, **kwargs))


def test_batch_engine_name_is_gone():
    from repro.api import ENGINE_NAMES

    assert ENGINE_NAMES == (
        "work-stealing", "flat", "speedup-fifo", "speedup-equi"
    )
    with pytest.raises(ValueError, match="unknown engine name 'batch'"):
        repro.run("batch", random_instance(0), m=2)


# ----------------------------------------------------------------------
# Slow-path visibility
# ----------------------------------------------------------------------


def test_flat_out_of_scope_run_reports_without_warning(monkeypatch):
    """With the kernel built, only the result and telemetry name an
    out-of-scope argument (a sampler); nothing is warned.  A traced run
    is in scope: no reason, no event."""
    from repro.obs.telemetry import Telemetry
    from repro.sim.sampling import SystemSampler
    from repro.sim.trace import TraceRecorder

    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
    jobset = random_instance(7)
    for observer, reasons in (
        (dict(sampler=SystemSampler()), ("sampler=<SystemSampler>",)),
        (dict(trace=TraceRecorder()), ()),
    ):
        tel = Telemetry()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = repro.run(
                "flat", jobset, m=4, seed=8, victim_policy="round-robin",
                telemetry=tel, **observer,
            )
        assert result.reasons == reasons
        assert [e["reasons"] for e in tel.of_kind("dispatch.slow_path")] == (
            [list(reasons)] if reasons else []
        )
    assert not batch_engine._SLOW_PATH_WARNED


def test_flat_native_path_does_not_warn(monkeypatch):
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
    jobset = random_instance(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        repro.run("flat", jobset, m=4, seed=8, k=2, steals_per_tick=8)
    assert not batch_engine._SLOW_PATH_WARNED


def test_run_facade_emits_dispatch_slow_path(monkeypatch):
    from repro.obs.telemetry import Telemetry
    from repro.sim.sampling import SystemSampler

    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)  # quiet
    jobset = random_instance(7)
    tel = Telemetry()
    repro.run(
        "flat", jobset, m=4, seed=8, sampler=SystemSampler(), telemetry=tel,
    )
    slow = [e for e in tel.events if e["event"] == "dispatch.slow_path"]
    assert len(slow) == 1
    assert slow[0]["reasons"] == ["sampler=<SystemSampler>"]
    done = [e for e in tel.events if e["event"] == "run.done"]
    assert done[0]["path"] == "reference"

    tel2 = Telemetry()
    repro.run(
        "flat", jobset, m=4, seed=8, k=2, steals_per_tick=8,
        victim_policy="round-robin", telemetry=tel2,
    )
    assert not [
        e for e in tel2.events if e["event"] == "dispatch.slow_path"
    ]
    done = [e for e in tel2.events if e["event"] == "run.done"]
    assert done[0]["path"] == "cext"


def test_run_facade_tags_work_stealing_scheduler_path(monkeypatch):
    """Scheduler instances report the path they take, like ``"flat"``,
    and an out-of-scope configuration warns nothing."""
    from repro.core.work_stealing import WorkStealingScheduler
    from repro.obs.telemetry import Telemetry
    from repro.sim.sampling import SystemSampler
    from repro.sim.trace import TraceRecorder

    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", False)
    jobset = random_instance(7)

    def events(scheduler, **kwargs):
        tel = Telemetry()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.run(scheduler, jobset, m=4, seed=8, telemetry=tel, **kwargs)
        slow = [e for e in tel.events if e["event"] == "dispatch.slow_path"]
        done = [e for e in tel.events if e["event"] == "run.done"]
        return slow, done[0]

    slow, done = events(WorkStealingScheduler(k=2, steals_per_tick=8))
    assert slow == [] and done["path"] == "cext"

    slow, done = events(WorkStealingScheduler(victim_policy="round-robin"))
    assert slow == [] and done["path"] == "cext"

    slow, done = events(
        WorkStealingScheduler(steal_half=True), sampler=SystemSampler()
    )
    assert [e["reasons"] for e in slow] == [["sampler=<SystemSampler>"]]
    assert slow[0]["engine"] == "scheduler"
    assert done["path"] == "reference"

    slow, done = events(WorkStealingScheduler(k=2), trace=TraceRecorder())
    assert slow == [] and done["path"] == "cext"

    slow, done = events(repro.FifoScheduler())
    assert slow == [] and done["path"] == "cext"


def test_slow_path_reasons_vocabulary(monkeypatch):
    """Each result names the engine that ran it and why."""
    from repro.sim.sampling import SystemSampler
    from repro.sim.trace import TraceRecorder

    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)  # quiet
    flat = flatten_jobset(random_instance(7, n_jobs=5))

    def run(instance=flat, **kwargs):
        (result,) = run_batch([instance], m=4, seeds=[8], **kwargs)
        return result.path, result.reasons

    assert run(
        victim_policy="max-deque", steal_half=True, admission="weight",
        trace=TraceRecorder(), sampler=SystemSampler(),
    ) == ("reference", ("sampler=<SystemSampler>",))
    # A trace runs on the kernel: not a reason.
    assert run(
        victim_policy="max-deque", steal_half=True, admission="weight",
        trace=TraceRecorder(),
    ) == ("cext", ())
    # Every scheduler knob runs on the kernel: none is a reason.
    for victim_policy in ("uniform", "round-robin", "max-deque"):
        for steal_half in (False, True):
            for admission in ("fifo", "weight"):
                assert run(
                    victim_policy=victim_policy, steal_half=steal_half,
                    admission=admission, k=4, steals_per_tick=8,
                ) == ("cext", ())
    # A hand-built instance with unsorted arrivals: a data-shape reason.
    unsorted = dataclasses.replace(
        flat, arrivals=np.ascontiguousarray(flat.arrivals[::-1])
    )
    assert run(unsorted) == ("reference", ("arrivals=unsorted",))

    _reset_cext_resolution(monkeypatch)
    monkeypatch.setattr(batch_engine, "_SLOW_PATH_WARNED", True)  # quiet
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    assert run() == ("reference", ("kernel=unavailable",))