"""Guard: a Figure 2 cell runs on flat arrays and builds no ``Job``.

:func:`repro.experiments.runner.run_figure2_cell` builds each rep as the
JobSet view of a :class:`~repro.dag.flat.FlatInstance`; OPT reads the
flat's per-job arrays, the work-stealing schedulers run it on the
kernel, and FIFO (``include_fifo=True``) ranks its jobs from the view's
arrival and weight columns.  With ``Job``, ``JobSet(jobs)`` and the
view's materializer made to raise, a cell and a whole panel must still
return exactly what the JobSet path returned.  SJF, whose key reads
``job.dag``, builds the view's jobs once.
"""

import numpy as np
import pytest

from repro.core.greedy import SjfScheduler
from repro.dag import flat as flat_mod
from repro.dag.job import Job, JobSet
from repro.experiments.config import ExperimentScale, FIG2A, FIG2C
from repro.experiments.figures import figure2
from repro.experiments.runner import (
    figure2_schedulers,
    run_figure2_cell,
    run_schedulers,
)
from repro.sim.rng import derive_seed
from repro.workloads.generator import WorkloadSpec

SCALE = ExperimentScale(n_jobs=200, reps=2)


def jobset_cell(cfg, qps, scale, seed, include_fifo=False):
    """A Figure 2 cell as it was computed on JobSets: a fresh
    distribution and spec per rep, every scheduler on ``spec.build``."""
    lineup = figure2_schedulers(cfg, include_fifo)
    sums = {}
    for rep in range(scale.reps):
        cell_seed = derive_seed(seed, int(qps), rep)
        spec = WorkloadSpec(
            distribution=cfg.distribution_factory(),
            qps=qps,
            n_jobs=scale.n_jobs,
            m=cfg.m,
            units_per_ms=cfg.units_per_ms,
            target_chunks=cfg.target_chunks,
        )
        jobset = spec.build(seed=cell_seed)
        for name, res in run_schedulers(
            jobset, lineup, m=cfg.m, seed=cell_seed
        ).items():
            sums[name] = sums.get(name, 0.0) + res.max_flow * cfg.time_unit_ms
    return {name: total / scale.reps for name, total in sums.items()}


@pytest.fixture
def no_jobs(monkeypatch):
    """Make every way of building a Job, or a JobSet of jobs, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the Figure 2 cell path built a Job/JobSet")

    monkeypatch.setattr(Job, "__post_init__", refuse)
    monkeypatch.setattr(JobSet, "__init__", refuse)
    monkeypatch.setattr(flat_mod, "_materialize", refuse)


@pytest.mark.parametrize("cfg", [FIG2A, FIG2C], ids=["bing", "lognormal"])
def test_cell_builds_no_job(cfg, request):
    qps = cfg.qps_values[-1]
    expected = jobset_cell(cfg, qps, SCALE, seed=4)
    request.getfixturevalue("no_jobs")
    assert run_figure2_cell(cfg, qps, SCALE, seed=4) == expected


def test_panel_builds_no_job(request):
    expected = {}
    for qps in FIG2A.qps_values:
        for name, value in jobset_cell(FIG2A, qps, SCALE, seed=0).items():
            expected.setdefault(name, []).append(value)
    request.getfixturevalue("no_jobs")
    result = figure2(FIG2A, SCALE, max_workers=1)
    assert result.series == expected


def test_fifo_cell_builds_no_job(request):
    qps = FIG2A.qps_values[0]
    expected = jobset_cell(FIG2A, qps, SCALE, seed=2, include_fifo=True)
    request.getfixturevalue("no_jobs")
    got = run_figure2_cell(FIG2A, qps, SCALE, seed=2, include_fifo=True)
    assert got == expected
    assert "fifo" in got


def test_sjf_builds_the_view_jobs_once(monkeypatch):
    """A clairvoyant key still reads ``job.dag``: the view builds its
    jobs once, and the result equals the run on a set built from jobs."""
    spec = WorkloadSpec(
        FIG2A.distribution_factory(), qps=FIG2A.qps_values[-1], n_jobs=200,
        m=FIG2A.m, units_per_ms=FIG2A.units_per_ms,
        target_chunks=FIG2A.target_chunks,
    )
    expected = SjfScheduler().run(JobSet(spec.build(5).jobs), m=FIG2A.m)
    built = []
    real = flat_mod._materialize

    def counting(flat):
        built.append(flat.n_jobs)
        return real(flat)

    monkeypatch.setattr(flat_mod, "_materialize", counting)
    view = spec.build(5)
    got = SjfScheduler().run(view, m=FIG2A.m)
    assert built == [200]
    assert got.path == expected.path == "cext"
    assert np.array_equal(got.completions, expected.completions)
    assert got.stats == expected.stats
