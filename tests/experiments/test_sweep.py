"""Unit tests for the generic grid-sweep API."""

import pytest

import repro
import repro.sim.engine
from repro.core.greedy import SjfScheduler
from repro.core.opt import OptLowerBound
from repro.core.work_stealing import WorkStealingScheduler
from repro.dag import flat as flat_mod
from repro.dag.builders import single_node
from repro.dag.job import JobSet, jobs_from_dags
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import METRICS, SweepResult
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.obs.telemetry import Telemetry
from repro.sim import _cext
from repro.sim.rng import make_rng
from repro.workloads import BingDistribution, WorkloadSpec


def tiny_jobset_factory(rep_seed):
    rng = make_rng(rep_seed)
    works = rng.integers(2, 10, size=20)
    arrivals = rng.uniform(0, 40, size=20)
    return jobs_from_dags(
        [single_node(int(w)) for w in works], sorted(arrivals.tolist())
    )


class TestGridSweep:
    def test_cross_product_shape(self):
        sweep = grid_sweep(
            lambda k, steals_per_tick: WorkStealingScheduler(
                k=k, steals_per_tick=steals_per_tick
            ),
            {"k": [0, 2], "steals_per_tick": [1, 8]},
            tiny_jobset_factory,
            m=2,
            seed=0,
        )
        assert len(sweep.cells) == 4
        assert sweep.param_names == ["k", "steals_per_tick"]
        combos = [(c.params["k"], c.params["steals_per_tick"]) for c in sweep.cells]
        assert combos == [(0, 1), (0, 8), (2, 1), (2, 8)]

    def test_paired_workloads_across_cells(self):
        """All cells see identical instances per repetition, so a cell
        identical in behaviour gives identical metrics."""
        a = grid_sweep(
            lambda k: WorkStealingScheduler(k=k),
            {"k": [0]},
            tiny_jobset_factory,
            m=1,
            seed=5,
        )
        b = grid_sweep(
            lambda k: WorkStealingScheduler(k=k),
            {"k": [0]},
            tiny_jobset_factory,
            m=1,
            seed=5,
        )
        assert a.cells[0].metrics == b.cells[0].metrics

    def test_reps_average(self):
        sweep = grid_sweep(
            lambda k: WorkStealingScheduler(k=k),
            {"k": [1]},
            tiny_jobset_factory,
            m=2,
            reps=3,
            seed=1,
        )
        assert sweep.cells[0].metrics["max_flow"] > 0

    def test_best_and_column(self):
        sweep = grid_sweep(
            lambda k: WorkStealingScheduler(k=k),
            {"k": [0, 50]},
            tiny_jobset_factory,
            m=1,
            seed=2,
        )
        # On one worker, k=50 burns 50 ticks per admission: k=0 wins.
        assert sweep.best("max_flow").params["k"] == 0
        assert len(sweep.column("mean_flow")) == 2

    def test_render(self):
        sweep = grid_sweep(
            lambda k: WorkStealingScheduler(k=k),
            {"k": [0, 1]},
            tiny_jobset_factory,
            m=1,
            seed=3,
            metrics=("max_flow",),
        )
        text = sweep.render()
        assert "k" in text and "max_flow" in text
        assert len(text.splitlines()) == 4

    def test_validation(self):
        factory = lambda k: WorkStealingScheduler(k=k)  # noqa: E731
        with pytest.raises(ValueError, match="m >= 1"):
            grid_sweep(factory, {"k": [0]}, tiny_jobset_factory, m=0)
        with pytest.raises(ValueError, match="reps"):
            grid_sweep(factory, {"k": [0]}, tiny_jobset_factory, m=1, reps=0)
        with pytest.raises(ValueError, match="dimension"):
            grid_sweep(factory, {}, tiny_jobset_factory, m=1)
        with pytest.raises(ValueError, match="unknown metrics"):
            grid_sweep(
                factory,
                {"k": [0]},
                tiny_jobset_factory,
                m=1,
                metrics=("latency",),
            )

    def test_metric_registry_complete(self):
        assert {"max_flow", "mean_flow", "p99_flow", "max_weighted_flow",
                "makespan"} <= set(METRICS)


class TestResultSerialization:
    def test_round_trip(self, medium_random_jobset, tmp_path):
        from repro.sim.result import load_result, save_result

        r = WorkStealingScheduler(k=2).run(medium_random_jobset, m=4, seed=7)
        path = tmp_path / "run.json"
        save_result(r, path)
        back = load_result(path)
        assert back.scheduler == r.scheduler
        assert back.max_flow == r.max_flow
        assert back.stats.busy_steps == r.stats.busy_steps
        assert back.seed == 7


def small_spec():
    return WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=20, m=4)


def test_work_stealing_rep_tasks_receive_flat_instances(monkeypatch):
    """WorkStealingScheduler cells get the shared flat's JobSet view,
    for every victim policy: the kernel runs them all, and none builds
    the view's jobs."""
    seen = []
    routed_run = WorkStealingScheduler.run

    def spy(self, jobset, *args, **kwargs):
        result = routed_run(self, jobset, *args, **kwargs)
        seen.append((self.victim_policy, type(jobset).__name__,
                     jobset._jobs is None))
        return result

    monkeypatch.setattr(WorkStealingScheduler, "run", spy)
    for policy in ("uniform", "round-robin"):
        repro.sweep(
            WorkStealingScheduler(steals_per_tick=8, victim_policy=policy),
            {"k": [0, 2]}, small_spec(), m=4, reps=2, seed=5, max_workers=1,
        )
    assert sorted(set(seen)) == [
        ("round-robin", "JobSet", True), ("uniform", "JobSet", True)
    ]


def test_reference_engine_sweep_runs_the_reference_for_every_rep(
    monkeypatch,
):
    """A ``"work-stealing"`` sweep is a sweep over the oracle: every
    (cell, rep) runs the reference engine, however many reps a cell has,
    and the numbers equal the kernel's."""
    calls = []
    reference = repro.sim.engine._run_work_stealing

    def counting(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return reference(*args, **kwargs)

    monkeypatch.setattr(repro.sim.engine, "_run_work_stealing", counting)
    oracle = repro.sweep(
        "work-stealing", {"k": [0, 4]}, small_spec(), m=4, reps=4,
        max_workers=1,
    )
    assert sorted(calls) == [0] * 4 + [4] * 4
    kernel = repro.sweep(
        "flat", {"k": [0, 4]}, small_spec(), m=4, reps=4, max_workers=1
    )
    assert len(calls) == 8
    assert [(c.params, c.metrics) for c in oracle.cells] == [
        (c.params, c.metrics) for c in kernel.cells
    ]


def test_every_rep_reports_its_own_cell_run(monkeypatch):
    """Each cold (cell, rep) is one task and one ``cell.run`` event that
    carries that task's worker-measured wall time; nothing is fused."""
    walls = []
    rep_task = sweep_mod._sweep_rep_task

    def recording(task):
        payload = rep_task(task)
        walls.append(payload["wall_s"])
        return payload

    monkeypatch.setattr(sweep_mod, "_sweep_rep_task", recording)
    tel = Telemetry()
    repro.sweep(
        "flat", {"k": [0, 4]}, small_spec(), m=4, reps=6, max_workers=1,
        telemetry=tel,
    )
    runs = [e for e in tel.events if e["event"] == "cell.run"]
    assert [(e["params"]["k"], e["rep"]) for e in runs] == [
        (k, rep) for k in (0, 4) for rep in range(6)
    ]
    assert [e["wall_s"] for e in runs] == walls
    assert not [e for e in tel.events if e["event"].startswith("batch.")]


def _count_jobsets(monkeypatch):
    """Record every set of jobs built in this process from now on: a
    JobSet built from jobs, or the jobs of a flat's view."""
    built = []
    init = JobSet.__init__
    materialize = flat_mod._materialize

    def counting(self, jobs):
        built.append(1)
        init(self, jobs)

    def counting_view(flat):
        built.append(1)
        return materialize(flat)

    monkeypatch.setattr(JobSet, "__init__", counting)
    monkeypatch.setattr(flat_mod, "_materialize", counting_view)
    return built


def _sjf(k):  # top-level, so pool workers can unpickle it
    del k
    return SjfScheduler()


@pytest.mark.parametrize("max_workers", [1, 2])
def test_flat_sweep_builds_no_jobset_in_the_parent(
    monkeypatch, tmp_path, max_workers
):
    """The sweep ships FlatInstances only: with a scheduler that reads
    the flat, the parent never builds a job -- cold, pooled, or served
    from a warm cache."""
    if _cext.resolve_batch_kernel() is None:  # pragma: no cover
        pytest.skip("the reference fallback builds the view by design")
    built = _count_jobsets(monkeypatch)
    kwargs = dict(m=4, reps=2, seed=5, max_workers=max_workers,
                  cache=tmp_path)
    cold = repro.sweep(
        WorkStealingScheduler(steals_per_tick=8), {"k": [0, 2]},
        small_spec(), **kwargs,
    )
    assert built == []
    warm = repro.sweep(
        WorkStealingScheduler(steals_per_tick=8), {"k": [0, 2]},
        small_spec(), resume=True, **kwargs,
    )
    assert (warm.n_cold, warm.n_cached) == (0, 4)
    assert built == []
    assert warm.cells == cold.cells


def test_opt_sweep_on_a_warm_instance_cache_builds_no_job(
    monkeypatch, tmp_path
):
    """A cache-loaded flat carries no closed-form spans: OPT reads them
    from the arrays' span pass, so neither run builds a job."""
    built = _count_jobsets(monkeypatch)
    kwargs = dict(m=4, reps=2, seed=5, max_workers=1, cache=tmp_path)
    cold = repro.sweep(
        OptLowerBound, {"use_span_bound": [True]}, small_spec(), **kwargs
    )
    warm = repro.sweep(
        OptLowerBound, {"use_span_bound": [True]}, small_spec(), **kwargs
    )
    assert warm.n_cold == 2
    assert warm.cells == cold.cells
    assert built == []


@pytest.mark.parametrize(
    "workload", [small_spec(), tiny_jobset_factory], ids=["flat", "jobset"]
)
def test_jobset_scheduler_sweep_builds_one_view_per_rep(
    monkeypatch, workload
):
    """A scheduler that reads the jobs (SJF's key reads ``job.dag``)
    gets one set per repetition instance, not one per (cell, rep) task:
    built once by the view of a flat build, or the factory's own
    JobSet, never rebuilt."""
    built = _count_jobsets(monkeypatch)
    repro.sweep(
        _sjf, {"k": [0, 1, 2]}, workload, m=4, reps=2, seed=5,
        max_workers=1,
    )
    assert len(built) == 2
