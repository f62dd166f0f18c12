"""Integration tests for the figure generators, at smoke scale.

These assert the *shape* conclusions of the paper, not absolute values:
OPT <= steal-k-first <= admit-first orderings, log-n growth on the
adversarial instance, and theorem envelopes holding.
"""

import pytest

from repro.experiments.config import ExperimentScale, FIG2A, FIG2B
from repro.experiments.figures import (
    SeriesResult,
    figure2,
    figure3,
    k_sweep_experiment,
    load_sweep_experiment,
    lower_bound_experiment,
    render_figure3,
    speed_augmentation_experiment,
    weighted_experiment,
)

SMOKE = ExperimentScale(n_jobs=250, reps=1)


class TestSeriesResult:
    def test_render_and_ratio(self):
        s = SeriesResult("t", "x", [1.0], {"a": [2.0], "b": [4.0]}, notes="n")
        assert "t" in s.render() and "n" in s.render()
        assert s.ratio("b", "a") == [2.0]


class TestFigure2:
    def test_fig2a_smoke_ordering(self):
        res = figure2(FIG2A, SMOKE, seed=3)
        assert res.x_values == [800.0, 1000.0, 1200.0]
        for i in range(3):
            assert res.series["opt-lb"][i] <= res.series["steal-16-first"][i] + 1e-9

    def test_fig2b_uses_finance_qps(self):
        res = figure2(FIG2B, SMOKE, seed=3)
        assert res.x_values == [800.0, 900.0, 1000.0]

    def test_include_fifo(self):
        res = figure2(FIG2A, ExperimentScale(100, 1), seed=1, include_fifo=True)
        assert "fifo" in res.series


class TestFigure3:
    def test_two_panels_with_valid_histograms(self):
        panels = figure3(size=20_000, seed=0)
        assert len(panels) == 2
        for title, edges, probs in panels:
            assert probs.sum() == pytest.approx(1.0)
            assert len(edges) == len(probs) + 1

    def test_render_contains_both_titles(self):
        text = render_figure3(size=5000)
        assert "fig3a" in text and "fig3b" in text

    def test_lognormal_panel_optional(self):
        assert len(figure3(size=1000, include_lognormal=True)) == 3


class TestLowerBoundExperiment:
    def test_growth_with_n(self):
        res = lower_bound_experiment(
            n_values=(256, 4096), seed=0, reps=2
        )
        ws = res.series["work-stealing"]
        opt = res.series["opt"]
        assert opt == [2.0, 2.0]
        assert ws[-1] > ws[0]  # grows with log n
        assert all(w >= o for w, o in zip(ws, opt))


class TestTheoremExperiments:
    def test_fifo_envelope_holds(self):
        res = speed_augmentation_experiment(
            eps_values=(0.25, 0.5), n_jobs=300, seed=0
        )
        for measured, env in zip(
            res.series["fifo-measured"], res.series["(3/eps)*opt-lb"]
        ):
            assert measured <= env

    def test_bwf_envelope_holds(self):
        res = weighted_experiment(eps_values=(0.2,), n_jobs=300, seed=0)
        assert res.series["bwf-measured"][0] <= res.series["(3/eps^2)*optw-lb"][0]


class TestAblations:
    def test_k_sweep_shape(self):
        res = k_sweep_experiment(
            k_values=(0, 16), n_jobs=400, seed=0, reps=1
        )
        assert set(res.series) == {"steal-k-first", "opt-lb"}
        # k=16 should not be (much) worse than k=0 at high load.
        assert res.series["steal-k-first"][1] <= res.series["steal-k-first"][0] * 1.5

    def test_load_sweep_ratio_grows(self):
        res = load_sweep_experiment(
            utilizations=(0.3, 0.75), n_jobs=500, seed=0
        )
        ratios = res.series["admit/steal ratio"]
        assert ratios[1] > ratios[0]


class TestNewAblations:
    def test_steal_policy_experiment_smoke(self):
        from repro.experiments.figures import steal_policy_experiment

        res = steal_policy_experiment(n_jobs=200, seed=0, reps=1)
        assert len(res.x_values) == 6
        assert set(res.series) == {"max_flow", "successful_steals"}

    def test_scheduler_comparison_smoke(self):
        from repro.experiments.figures import scheduler_comparison_experiment

        res = scheduler_comparison_experiment(n_jobs=200, seed=0)
        assert len(res.series["max_flow"]) == 7
        assert res.series["max_flow"][0] <= min(res.series["max_flow"][1:]) + 1e-9

    def test_burstiness_smoke(self):
        from repro.experiments.figures import burstiness_experiment

        res = burstiness_experiment(batch_sizes=(1, 8), n_jobs=200, seed=0)
        assert res.series["opt-lb"][1] > res.series["opt-lb"][0]

    def test_grain_smoke(self):
        from repro.experiments.figures import grain_experiment

        res = grain_experiment(target_chunks_values=(1, 16), n_jobs=200, seed=0)
        assert res.series["mean-span"][1] < res.series["mean-span"][0]


class TestExtensions:
    def test_speedup_contrast_smoke(self):
        from repro.experiments.figures import speedup_contrast_experiment

        res = speedup_contrast_experiment(m_values=(8, 64), n_jobs=100, seed=0)
        assert all(r >= 1.0 - 1e-6 for r in res.series["dag/speedup"])

    def test_weighted_ws_smoke(self):
        from repro.experiments.figures import weighted_work_stealing_experiment

        res = weighted_work_stealing_experiment(
            qps_values=(1000.0,), n_jobs=300, seed=0
        )
        assert res.series["bwf (centralized)"][0] <= (
            res.series["ws/fifo-admission"][0] * 1.1
        )

    def test_norm_profile_smoke(self):
        from repro.experiments.figures import norm_profile_experiment

        res = norm_profile_experiment(n_jobs=200, seed=0)
        for series in res.series.values():
            assert all(a <= b + 1e-6 for a, b in zip(series, series[1:]))


class TestMakespanBatch:
    def test_equals_per_job_construction(self):
        """The batch goes through the vectorized generator; its numbers
        equal a rerun on the per-job ``parallel_for`` construction."""
        from repro.core.fifo import FifoScheduler
        from repro.core.work_stealing import WorkStealingScheduler
        from repro.dag.builders import parallel_for
        from repro.dag.job import Job, JobSet
        from repro.experiments.figures import makespan_experiment
        from repro.sim.rng import derive_seed
        from repro.theory.bounds import graham_makespan_bound
        from repro.workloads.distributions import BingDistribution

        n_jobs, seed, m_values = 60, 3, (4, 8)
        works = BingDistribution().sample_units(
            derive_seed(seed, 17), n_jobs, units_per_ms=4.0
        )
        jobset = JobSet(
            Job(job_id=i, dag=parallel_for(int(w), max(1, int(w) // 32)),
                arrival=0.0)
            for i, w in enumerate(works)
        )
        result = makespan_experiment(m_values, n_jobs=n_jobs, seed=seed)
        for i, m in enumerate(m_values):
            total_w, max_p = jobset.total_work, jobset.max_span
            assert result.series["lower-bound"][i] == max(
                total_w / m, float(max_p)
            )
            assert result.series["graham-bound"][i] == (
                graham_makespan_bound(total_w, max_p, m)
            )
            assert result.series["fifo"][i] == (
                FifoScheduler().run(jobset, m=m).makespan
            )
            ws = WorkStealingScheduler(k=16, steals_per_tick=64).run(
                jobset, m=m, seed=derive_seed(seed, 18, m)
            )
            assert result.series["steal-16-first"][i] == ws.makespan
