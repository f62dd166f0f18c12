"""Workload-generation micro-benchmarks: object graphs vs flat CSR.

The vectorized flat builder (:meth:`WorkloadSpec.build_flat`) samples
and lays out a whole instance with numpy array ops;
:meth:`WorkloadSpec.build` is its JobSet view, which builds one ``Job``
per job over DAG shapes shared process-wide the first time it is
iterated.  The throughput gap between them is the cost of the object
view, so the object benches time that first iteration.
"""

from repro.dag.flat import flatten_jobset, to_jobset
from repro.dag.job import JobSet
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec

SPEC = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=500, m=16)
SEED = 11


def test_generate_build_objects(benchmark):
    # The view and its jobs: what a scheduler that iterates them pays.
    js = benchmark(lambda: SPEC.build(seed=SEED).jobs)
    assert len(js) == SPEC.n_jobs


def test_generate_build_flat(benchmark):
    flat = benchmark(lambda: SPEC.build_flat(seed=SEED))
    assert flat.n_jobs == SPEC.n_jobs


def test_flatten_jobset(benchmark):
    # Cold path: a set built from jobs, its flat dropped each round so
    # the measured work is the walk, not the memo.
    js = JobSet(SPEC.build(seed=SEED).jobs)

    def cold_flatten():
        js._flat = None
        return flatten_jobset(js)

    flat = benchmark(cold_flatten)
    assert flat.n_jobs == len(js)


def test_flatten_jobset_cached(benchmark):
    # Warm path: the run->sweep pipelines flatten the same JobSet
    # repeatedly; the set keeps its flat, so that is an attribute read.
    js = JobSet(SPEC.build(seed=SEED).jobs)
    flatten_jobset(js)
    flat = benchmark(lambda: flatten_jobset(js))
    assert flat.n_jobs == len(js)


def test_rebuild_jobset_from_flat(benchmark):
    # Cold path: each round makes a new view and builds its jobs.
    flat = SPEC.build_flat(seed=SEED)
    jobs = benchmark(lambda: to_jobset(flat).jobs)
    assert len(jobs) == flat.n_jobs
