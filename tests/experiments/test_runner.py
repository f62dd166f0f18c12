"""Unit tests for the sweep runner (small scales)."""

import pytest

from repro.core.fifo import FifoScheduler
from repro.core.opt import OptLowerBound
from repro.experiments.config import ExperimentScale, FIG2A
from repro.core.work_stealing import WorkStealingScheduler
from repro.experiments.runner import (
    figure2_schedulers,
    run_figure2_cell,
    run_schedulers,
)
from repro.sim.engine import _run_work_stealing
from repro.sim.rng import derive_seed
from repro.workloads import WorkloadSpec

TINY = ExperimentScale(n_jobs=120, reps=1)


class TestRunSchedulers:
    def test_paired_results(self, medium_random_jobset):
        results = run_schedulers(
            medium_random_jobset,
            [OptLowerBound(), FifoScheduler()],
            m=8,
            seed=0,
        )
        assert set(results) == {"opt-lb", "fifo"}
        assert results["opt-lb"].max_flow <= results["fifo"].max_flow + 1e-9

    def test_adding_scheduler_keeps_others_stable(self, medium_random_jobset):
        from repro.core.work_stealing import WorkStealingScheduler

        a = run_schedulers(
            medium_random_jobset, [WorkStealingScheduler(k=2)], m=8, seed=0
        )
        b = run_schedulers(
            medium_random_jobset,
            [WorkStealingScheduler(k=2), FifoScheduler()],
            m=8,
            seed=0,
        )
        assert a["steal-2-first"].max_flow == b["steal-2-first"].max_flow


class TestFigure2Cell:
    def test_lineup(self):
        names = [s.name for s in figure2_schedulers(FIG2A)]
        assert names == ["opt-lb", "steal-16-first", "admit-first"]

    def test_lineup_with_fifo(self):
        names = [s.name for s in figure2_schedulers(FIG2A, include_fifo=True)]
        assert "fifo" in names

    def test_cell_values_in_ms_and_ordered(self):
        cell = run_figure2_cell(FIG2A, qps=800.0, scale=TINY, seed=0)
        assert set(cell) == {"opt-lb", "steal-16-first", "admit-first"}
        assert cell["opt-lb"] <= cell["steal-16-first"] + 1e-9
        # sanity on units: single-digit-to-tens of ms at this load
        assert 0.1 < cell["opt-lb"] < 1000.0

    def test_cell_deterministic(self):
        a = run_figure2_cell(FIG2A, qps=800.0, scale=TINY, seed=7)
        b = run_figure2_cell(FIG2A, qps=800.0, scale=TINY, seed=7)
        assert a == b


def test_figure_runner_matches_reference_recomputation():
    """Figure 2 cells (kernel, one rep at a time) equal the same cell
    recomputed on the reference engine."""
    scale = ExperimentScale(n_jobs=40, reps=3)
    got = run_figure2_cell(FIG2A, qps=500.0, scale=scale, seed=3)
    sums = {}
    for rep in range(scale.reps):
        cell_seed = derive_seed(3, 500, rep)
        jobset = WorkloadSpec(
            distribution=FIG2A.distribution_factory(), qps=500.0,
            n_jobs=scale.n_jobs, m=FIG2A.m, units_per_ms=FIG2A.units_per_ms,
            target_chunks=FIG2A.target_chunks,
        ).build(seed=cell_seed)
        for i, sched in enumerate(figure2_schedulers(FIG2A)):
            run_seed = derive_seed(cell_seed, 1000 + i)
            if isinstance(sched, WorkStealingScheduler):
                res = _run_work_stealing(
                    jobset, m=FIG2A.m, seed=run_seed,
                    **sched._engine_kwargs(),
                )
            else:
                res = sched.run(jobset, m=FIG2A.m, seed=run_seed)
            sums[sched.name] = (
                sums.get(sched.name, 0.0) + res.max_flow * FIG2A.time_unit_ms
            )
    assert got == {name: total / scale.reps for name, total in sums.items()}
