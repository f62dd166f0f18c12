"""Exactness tests for the centralized event-driven engine.

Every case here has a hand-computed schedule; the engine must reproduce
it to float precision.  FIFO priority is used unless the case is about
priorities.
"""

import numpy as np
import pytest

from repro.dag.builders import chain, fork_join, single_node
from repro.dag.job import jobs_from_dags
from repro.sim.events import run_centralized
from repro.sim.trace import TraceRecorder, audit_trace


def fifo_key(je):
    return (je.arrival, je.job_id)


class TestSingleJob:
    def test_single_node_on_one_processor(self):
        js = jobs_from_dags([single_node(10)], [0.0])
        r = run_centralized(js, m=1)
        assert r.completions[0] == pytest.approx(10.0)
        assert r.max_flow == pytest.approx(10.0)

    def test_speed_scales_completion(self):
        js = jobs_from_dags([single_node(10)], [0.0])
        r = run_centralized(js, m=1, speed=2.0)
        assert r.completions[0] == pytest.approx(5.0)

    def test_chain_ignores_extra_processors(self):
        js = jobs_from_dags([chain([2, 3])], [0.0])
        r = run_centralized(js, m=4)
        assert r.completions[0] == pytest.approx(5.0)

    def test_fork_join_with_enough_processors(self):
        js = jobs_from_dags([fork_join(1, [1, 1], 1)], [0.0])
        r = run_centralized(js, m=2)
        assert r.completions[0] == pytest.approx(3.0)

    def test_fork_join_on_one_processor_serializes(self):
        js = jobs_from_dags([fork_join(1, [1, 1], 1)], [0.0])
        r = run_centralized(js, m=1)
        assert r.completions[0] == pytest.approx(4.0)

    def test_wide_fork_with_limited_processors(self):
        # root 1; five unit children on 3 procs take ceil(5/3) = 2 rounds;
        # join 1: total 4.
        js = jobs_from_dags([fork_join(1, [1] * 5, 1)], [0.0])
        r = run_centralized(js, m=3)
        assert r.completions[0] == pytest.approx(4.0)

    def test_late_arrival_starts_at_arrival(self):
        js = jobs_from_dags([single_node(2)], [5.0])
        r = run_centralized(js, m=1)
        assert r.completions[0] == pytest.approx(7.0)
        assert r.max_flow == pytest.approx(2.0)


class TestMultipleJobsFifo:
    def test_two_sequential_jobs_one_processor(self):
        js = jobs_from_dags([single_node(4), single_node(6)], [0.0, 1.0])
        r = run_centralized(js, m=1)
        assert r.completions.tolist() == pytest.approx([4.0, 10.0])
        assert r.flows.tolist() == pytest.approx([4.0, 9.0])

    def test_fifo_never_preempts_earlier_job(self):
        # A long job arrives first; a short one second: FIFO finishes the
        # long job first on m=1.
        js = jobs_from_dags([single_node(10), single_node(2)], [0.0, 1.0])
        r = run_centralized(js, m=1)
        assert r.completions.tolist() == pytest.approx([10.0, 12.0])

    def test_first_job_gets_processors_first(self):
        # Job 0 forks to 2 children at t=1 and takes both processors,
        # preempting job 1's single node.
        js = jobs_from_dags(
            [fork_join(1, [1, 1], 1), single_node(2)], [0.0, 0.0]
        )
        r = run_centralized(js, m=2)
        assert r.completions[0] == pytest.approx(3.0)
        assert r.completions[1] == pytest.approx(3.0)  # 1 unit at [0,1), 1 at [2,3)

    def test_simultaneous_arrivals_tie_break_by_id(self):
        js = jobs_from_dags([single_node(3), single_node(3)], [0.0, 0.0])
        r = run_centralized(js, m=1)
        assert r.completions.tolist() == pytest.approx([3.0, 6.0])

    def test_idle_gap_between_jobs(self):
        js = jobs_from_dags([single_node(1), single_node(1)], [0.0, 100.0])
        r = run_centralized(js, m=1)
        assert r.completions.tolist() == pytest.approx([1.0, 101.0])


class TestPriorityKeys:
    def test_weight_priority_preempts(self):
        # BWF-style key: heavy job arriving later preempts on m=1.
        js = jobs_from_dags(
            [single_node(10), single_node(2)], [0.0, 2.0], weights=[1.0, 5.0]
        )
        r = run_centralized(
            js, m=1, priority_key=lambda je: (-je.weight, je.arrival, je.job_id)
        )
        assert r.completions[1] == pytest.approx(4.0)  # ran [2, 4)
        assert r.completions[0] == pytest.approx(12.0)  # [0,2) then [4,12)

    def test_lifo_key_starves_older_job(self):
        js = jobs_from_dags([single_node(10), single_node(2)], [0.0, 2.0])
        r = run_centralized(
            js, m=1, priority_key=lambda je: (-je.arrival, -je.job_id)
        )
        assert r.completions[1] == pytest.approx(4.0)
        assert r.completions[0] == pytest.approx(12.0)


class TestAccountingAndValidation:
    def test_busy_steps_equal_total_work(self):
        js = jobs_from_dags(
            [fork_join(1, [3, 4], 2), chain([2, 2]), single_node(7)],
            [0.0, 1.0, 2.5],
        )
        r = run_centralized(js, m=2)
        assert r.stats.busy_steps == js.total_work

    def test_event_count_positive_and_bounded(self):
        js = jobs_from_dags([fork_join(1, [1, 1], 1)], [0.0])
        r = run_centralized(js, m=2)
        assert 0 < r.stats.n_events <= 3 * js[0].dag.n_nodes + len(js)

    def test_scheduler_name_recorded(self):
        js = jobs_from_dags([single_node(1)], [0.0])
        r = run_centralized(js, m=1, scheduler_name="my-sched")
        assert r.scheduler == "my-sched"


class TestTraceIntegration:
    def test_trace_audit_passes_fifo(self, small_forkjoin_set):
        tr = TraceRecorder()
        run_centralized(small_forkjoin_set, m=2, trace=tr)
        audit_trace(tr, small_forkjoin_set, m=2, speed=1.0)

    def test_trace_audit_passes_with_speed(self, small_forkjoin_set):
        tr = TraceRecorder()
        run_centralized(small_forkjoin_set, m=2, speed=1.5, trace=tr)
        audit_trace(tr, small_forkjoin_set, m=2, speed=1.5)

    def test_trace_busy_time_matches_work(self, small_forkjoin_set):
        tr = TraceRecorder()
        run_centralized(small_forkjoin_set, m=2, trace=tr)
        assert tr.busy_time() == pytest.approx(small_forkjoin_set.total_work)


class TestFractionalTimes:
    def test_non_integer_speed_exact(self):
        js = jobs_from_dags([single_node(3)], [0.0])
        r = run_centralized(js, m=1, speed=1.5)
        assert r.completions[0] == pytest.approx(2.0)

    def test_fractional_arrivals(self):
        js = jobs_from_dags([single_node(2), single_node(2)], [0.25, 0.75])
        r = run_centralized(js, m=1)
        assert r.completions.tolist() == pytest.approx([2.25, 4.25])
