"""Workload-generation micro-benchmarks: object graphs vs flat CSR.

The vectorized flat builder (:meth:`WorkloadSpec.build_flat`) samples
and lays out a whole instance with numpy array ops; the object builder
constructs one ``JobDag``/``Job`` graph per job.  Both paths draw the
same random streams and describe bit-identical instances
(``tests/workloads/test_generator.py``), so the throughput gap here is
pure representation overhead.
"""

import pytest

from repro.dag.flat import flatten_jobset, to_jobset
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec

SPEC = WorkloadSpec(BingDistribution(), qps=1000.0, n_jobs=500, m=16)
SEED = 11


def test_generate_build_objects(benchmark):
    js = benchmark(lambda: SPEC.build(seed=SEED))
    assert len(js) == SPEC.n_jobs


def test_generate_build_flat(benchmark):
    flat = benchmark(lambda: SPEC.build_flat(seed=SEED))
    assert flat.n_jobs == SPEC.n_jobs


def test_flatten_jobset(benchmark):
    # Cold path: drop the memoized instance each round so the measured
    # work is the flatten itself, not the ISSUE-6 cache hit.
    js = SPEC.build(seed=SEED)

    def cold_flatten():
        js.__dict__.pop("_flat_cache", None)
        return flatten_jobset(js)

    flat = benchmark(cold_flatten)
    assert flat.n_jobs == len(js)


def test_flatten_jobset_cached(benchmark):
    # Warm path: the run->sweep pipelines flatten the same JobSet
    # repeatedly; the memoized view makes that a dict lookup.
    js = SPEC.build(seed=SEED)
    flatten_jobset(js)
    flat = benchmark(lambda: flatten_jobset(js))
    assert flat.n_jobs == len(js)


def test_rebuild_jobset_from_flat(benchmark):
    # Cold path: drop the memoized view each round so the measured work
    # is the rebuild itself, not the cache hit.
    flat = SPEC.build_flat(seed=SEED)

    def cold_rebuild():
        flat.__dict__.pop("_jobset_cache", None)
        return to_jobset(flat)

    js = benchmark(cold_rebuild)
    assert len(js) == flat.n_jobs
