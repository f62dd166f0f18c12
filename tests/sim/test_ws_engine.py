"""Exactness and semantics tests for the work-stealing tick engine.

Timelines here are hand-computed under the engine's documented tick
model: phase A (busy workers execute one unit, completions cascade
freely), phase B (workers idle at tick start perform one acquisition),
admissions gated by k consecutive failed steals, completion at the end
of the finishing tick.
"""

import numpy as np
import pytest

from repro.dag.builders import adversarial_fork, chain, fork_join, single_node
from repro.dag.job import Job, JobSet, jobs_from_dags
from repro.sim.engine import _run_work_stealing as run_work_stealing
from repro.sim.trace import TraceRecorder, audit_trace


class TestSingleWorkerTimelines:
    def test_admission_costs_one_tick(self):
        # tick 0: admit; ticks 1..3: work; completion at end of tick 3.
        js = jobs_from_dags([single_node(3)], [0.0])
        r = run_work_stealing(js, m=1, k=0, seed=0)
        assert r.completions[0] == pytest.approx(4.0)

    def test_chain_continues_without_extra_cost(self):
        # Finishing a node and continuing with its enabled child is free.
        js = jobs_from_dags([chain([2, 2])], [0.0])
        r = run_work_stealing(js, m=1, k=0, seed=0)
        assert r.completions[0] == pytest.approx(5.0)

    def test_fork_join_serializes_on_one_worker(self):
        # admit(1) + root(1) + child(1) + pop child(free) + child(1) +
        # join(1): completion 5.
        js = jobs_from_dags([fork_join(1, [1, 1], 1)], [0.0])
        r = run_work_stealing(js, m=1, k=0, seed=0)
        assert r.completions[0] == pytest.approx(5.0)

    def test_fractional_arrival_rounds_to_next_tick(self):
        # arrival 2.5 -> present from tick 3; admit tick 3; work tick 4.
        js = jobs_from_dags([single_node(1)], [2.5])
        r = run_work_stealing(js, m=1, k=0, seed=0)
        assert r.completions[0] == pytest.approx(5.0)
        assert r.max_flow == pytest.approx(2.5)

    def test_speed_shrinks_ticks(self):
        # speed 2: tick = 0.5 time units; admit tick 0, work ticks 1..4,
        # completion at (4+1)/2 = 2.5.
        js = jobs_from_dags([single_node(4)], [0.0])
        r = run_work_stealing(js, m=1, k=0, speed=2.0, seed=0)
        assert r.completions[0] == pytest.approx(2.5)

    def test_k_failed_steals_gate_admission(self):
        # k=2: failed steals on ticks 0-1, admit tick 2, work tick 3.
        js = jobs_from_dags([single_node(1)], [0.0])
        r = run_work_stealing(js, m=1, k=2, seed=0)
        assert r.completions[0] == pytest.approx(4.0)

    def test_sequential_jobs_queue_in_fifo_order(self):
        js = jobs_from_dags([single_node(2), single_node(2)], [0.0, 0.0])
        r = run_work_stealing(js, m=1, k=0, seed=0)
        # admit(0) work(1-2) -> done t=3; admit(3) work(4-5) -> done t=6.
        assert r.completions.tolist() == pytest.approx([3.0, 6.0])


class TestPracticalCostModel:
    def test_same_tick_admission_and_work(self):
        # sigma > 1: admission plus the first unit fit in tick 0.
        js = jobs_from_dags([single_node(1)], [0.0])
        r = run_work_stealing(js, m=1, k=0, steals_per_tick=4, seed=0)
        assert r.completions[0] == pytest.approx(1.0)

    def test_k_burned_within_one_tick(self):
        # k=2 with sigma=4: two failed attempts + admission + first unit
        # all within tick 0.
        js = jobs_from_dags([single_node(1)], [0.0])
        r = run_work_stealing(js, m=1, k=2, steals_per_tick=4, seed=0)
        assert r.completions[0] == pytest.approx(1.0)

    def test_k_larger_than_sigma_spans_ticks(self):
        # k=6, sigma=4: 4 failures tick 0, 2 failures + admit + work tick 1.
        js = jobs_from_dags([single_node(1)], [0.0])
        r = run_work_stealing(js, m=1, k=6, steals_per_tick=4, seed=0)
        assert r.completions[0] == pytest.approx(2.0)


class TestTwoWorkerStealing:
    def test_child_is_stolen_deterministically(self):
        # m=2: the only possible victim is worker 0, so the steal always
        # succeeds the tick after the fork's children appear.
        # tick0: w0 admits.  tick1: w0 runs root, pushes child2; w1
        # steals it (starts tick2).  tick2: both children run.  tick3:
        # join runs.  completion 4.
        js = jobs_from_dags([fork_join(1, [1, 1], 1)], [0.0])
        r = run_work_stealing(js, m=2, k=0, seed=0)
        assert r.completions[0] == pytest.approx(4.0)

    def test_two_jobs_two_workers_parallel(self):
        js = jobs_from_dags([single_node(3), single_node(3)], [0.0, 0.0])
        r = run_work_stealing(js, m=2, k=0, seed=0)
        # Both admitted at tick 0 by different workers.
        assert r.completions.tolist() == pytest.approx([4.0, 4.0])

    def test_steal_k_first_prefers_stealing(self):
        # One wide job plus one short job: with a huge k the second job
        # waits until steals dry up, so its flow exceeds its k=0 flow.
        wide = fork_join(1, [4] * 4, 1)
        js = jobs_from_dags([wide, single_node(1)], [0.0, 0.0])
        r_admit = run_work_stealing(js, m=2, k=0, seed=3)
        r_steal = run_work_stealing(js, m=2, k=50, seed=3)
        assert r_steal.completions[1] >= r_admit.completions[1]


class TestAccounting:
    def test_busy_steps_equal_total_work(self, medium_random_jobset):
        r = run_work_stealing(medium_random_jobset, m=8, k=4, seed=5)
        assert r.stats.busy_steps == medium_random_jobset.total_work

    def test_admissions_equal_job_count(self, medium_random_jobset):
        r = run_work_stealing(medium_random_jobset, m=8, k=4, seed=5)
        assert r.stats.admissions == len(medium_random_jobset)

    def test_elapsed_ticks_at_least_serial_bound(self, medium_random_jobset):
        r = run_work_stealing(medium_random_jobset, m=8, k=0, seed=5)
        assert r.stats.elapsed_ticks >= medium_random_jobset.total_work / 8

    def test_steal_attempts_accumulate(self):
        js = jobs_from_dags([single_node(1)], [0.0])
        r = run_work_stealing(js, m=1, k=3, seed=0)
        assert r.stats.steal_attempts >= 3
        assert r.stats.failed_steals >= 3

    def test_seed_reproducibility(self, medium_random_jobset):
        r1 = run_work_stealing(medium_random_jobset, m=8, k=4, seed=42)
        r2 = run_work_stealing(medium_random_jobset, m=8, k=4, seed=42)
        assert np.array_equal(r1.completions, r2.completions)

    def test_different_seeds_may_differ(self, medium_random_jobset):
        r1 = run_work_stealing(medium_random_jobset, m=8, k=4, seed=1)
        r2 = run_work_stealing(medium_random_jobset, m=8, k=4, seed=2)
        # Not guaranteed in theory, but overwhelmingly likely here; if it
        # ever fails the fixture changed, not the engine.
        assert not np.array_equal(r1.completions, r2.completions)


class TestGuards:
    def test_overload_hits_max_ticks_guard(self):
        # Work arrives far faster than one worker can serve it.
        js = jobs_from_dags(
            [single_node(100) for _ in range(50)],
            [0.01 * i for i in range(50)],
        )
        with pytest.raises(RuntimeError, match="max_ticks"):
            run_work_stealing(js, m=1, k=0, seed=0, max_ticks=500)

    def test_empty_jobset_returns_empty_result(self):
        # Regression: this used to crash with IndexError on
        # arrival_ticks[-1] (max_ticks default) / arrival_ticks[0].
        r = run_work_stealing(JobSet([]), m=4, k=2, seed=0)
        assert r.n_jobs == 0
        assert r.completions.shape == (0,)
        assert r.max_flow == 0.0
        assert r.stats.elapsed_ticks == 0
        assert r.stats.busy_steps == 0
        assert r.scheduler == "steal-2-first"

    def test_empty_jobset_all_variants(self):
        for kwargs in (
            dict(k=0),
            dict(k=3, steals_per_tick=16, steal_half=True),
            dict(admission="weight"),
        ):
            r = run_work_stealing(JobSet([]), m=2, seed=1, **kwargs)
            assert r.n_jobs == 0 and r.stats.admissions == 0


class TestFastForwardEquivalence:
    """The fast-forward paths must not change observable results."""

    def test_all_busy_fast_forward_exactness(self):
        # One huge node on one worker exercises the all-busy skip; the
        # completion time is exact.
        js = jobs_from_dags([single_node(10_000)], [0.0])
        r = run_work_stealing(js, m=1, k=0, seed=0)
        assert r.completions[0] == pytest.approx(10_001.0)

    def test_nothing_stealable_fast_forward_exactness(self):
        # m=2, a single chain: worker 1 can never steal (chains enable
        # one node at a time), so the idle worker's ticks are skipped in
        # bulk; completion must still be admission + total work.
        js = jobs_from_dags([chain([500, 500])], [0.0])
        r = run_work_stealing(js, m=2, k=0, seed=0)
        assert r.completions[0] == pytest.approx(1001.0)

    def test_empty_system_jump_exactness(self):
        js = jobs_from_dags([single_node(1), single_node(1)], [0.0, 1000.0])
        r = run_work_stealing(js, m=2, k=0, seed=0)
        assert r.completions[0] == pytest.approx(2.0)
        assert r.completions[1] == pytest.approx(1002.0)

    def test_empty_system_jump_saturates_steal_counters(self):
        # After a long idle gap, a steal-k-first worker admits immediately
        # at the arrival tick (its failure budget is saturated).
        js = jobs_from_dags([single_node(1), single_node(1)], [0.0, 1000.0])
        r = run_work_stealing(js, m=1, k=3, seed=0)
        # Job 0: 3 failed steals (t0-2), admit t3, work t4 -> 5.0.
        assert r.completions[0] == pytest.approx(5.0)
        # Job 1: arrives t=1000 with saturated counter: admit t1000,
        # work t1001 -> completes at 1002.
        assert r.completions[1] == pytest.approx(1002.0)


class TestTraceAudits:
    @pytest.mark.parametrize("k,sigma", [(0, 1), (4, 1), (0, 16), (16, 16)])
    def test_audit_passes(self, medium_random_jobset, k, sigma):
        tr = TraceRecorder()
        run_work_stealing(
            medium_random_jobset, m=8, k=k, steals_per_tick=sigma, seed=9,
            trace=tr,
        )
        audit_trace(tr, medium_random_jobset, m=8, speed=1.0)

    def test_audit_passes_with_speed(self, medium_random_jobset):
        tr = TraceRecorder()
        run_work_stealing(
            medium_random_jobset, m=8, k=2, speed=1.5, seed=9, trace=tr
        )
        audit_trace(tr, medium_random_jobset, m=8, speed=1.5)


class TestAdversarialInstanceBehaviour:
    def test_single_fork_job_completes(self):
        dag = adversarial_fork(20)  # root + 2 children
        js = JobSet([Job(job_id=0, dag=dag, arrival=0.0)])
        r = run_work_stealing(js, m=20, k=0, seed=0)
        # Sequential ceiling: admit(1) + root(1) + 2 children serial (2);
        # any successful steal only helps.
        assert 3.0 <= r.completions[0] <= 5.0


class TestMultiRootJobs:
    """Jobs whose DAGs have several roots exercise the admission path
    that pushes surplus roots onto the admitting worker's deque."""

    def make_multi_root_job(self):
        from repro.dag.graph import DagBuilder

        b = DagBuilder()
        r1, r2, r3 = b.add_node(2), b.add_node(2), b.add_node(2)
        sink = b.add_node(1)
        for r in (r1, r2, r3):
            b.add_edge(r, sink)
        return b.build()

    def test_single_worker_serializes_roots(self):
        js = jobs_from_dags([self.make_multi_root_job()], [0.0])
        r = run_work_stealing(js, m=1, k=0, seed=0)
        # admit(1) + 3 roots x 2 + sink(1) = 8 ticks.
        assert r.completions[0] == pytest.approx(8.0)

    def test_surplus_roots_are_stealable(self):
        js = jobs_from_dags([self.make_multi_root_job()], [0.0])
        r = run_work_stealing(js, m=3, k=0, seed=0)
        # With 3 workers the two queued roots are stolen: admit(1) +
        # roots in parallel (2, but thieves start a tick late: 3) +
        # sink(1) -> at most 6 ticks; strictly faster than serial.
        assert r.completions[0] < 8.0

    def test_audit_passes(self):
        js = jobs_from_dags(
            [self.make_multi_root_job(), self.make_multi_root_job()],
            [0.0, 1.0],
        )
        tr = TraceRecorder()
        run_work_stealing(js, m=3, k=1, seed=4, trace=tr)
        audit_trace(tr, js, m=3, speed=1.0)


class TestVariantCombinationAudits:
    """Every policy-knob combination must still produce feasible schedules."""

    @pytest.mark.parametrize("victim", ["uniform", "round-robin", "max-deque"])
    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("admission", ["fifo", "weight"])
    def test_full_matrix_feasible(self, medium_random_jobset, victim, half, admission):
        tr = TraceRecorder()
        r = run_work_stealing(
            medium_random_jobset,
            m=8,
            k=4,
            seed=11,
            steals_per_tick=16,
            victim_policy=victim,
            steal_half=half,
            admission=admission,
            trace=tr,
        )
        audit_trace(tr, medium_random_jobset, m=8, speed=1.0)
        assert r.stats.busy_steps == medium_random_jobset.total_work
        assert r.stats.admissions == len(medium_random_jobset)
