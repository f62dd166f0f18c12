"""Unit tests for the trace recorder and the feasibility audits.

The audits are the repository's independent check on engine correctness,
so these tests verify they actually *catch* each class of violation, not
just that they pass on good schedules.
"""

import numpy as np
import pytest

from repro.dag.builders import chain, single_node
from repro.dag.job import jobs_from_dags
from repro.sim.trace import TraceInterval, TraceRecorder, audit_trace


@pytest.fixture
def one_chain_jobset():
    """A single two-node chain job (works 2 and 3) arriving at t=1."""
    return jobs_from_dags([chain([2, 3])], [1.0])


def record_valid_schedule(tr: TraceRecorder) -> None:
    """A correct m=1 schedule for `one_chain_jobset` at speed 1."""
    tr.record(0, 0, 0, 1.0, 3.0)
    tr.record(0, 0, 1, 3.0, 6.0)


class TestRecorder:
    def test_zero_length_segments_dropped(self):
        tr = TraceRecorder()
        tr.record(0, 0, 0, 5.0, 5.0)
        assert tr.intervals == []

    def test_intervals_of_sorted(self):
        tr = TraceRecorder()
        tr.record(0, 0, 0, 4.0, 5.0)
        tr.record(1, 0, 0, 1.0, 2.0)
        ivs = tr.intervals_of(0, 0)
        assert [iv.start for iv in ivs] == [1.0, 4.0]

    def test_extend_appends_rows_in_order_like_record(self):
        tr = TraceRecorder()
        tr.record(2, 0, 1, 0.0, 1.0)
        tr.extend(
            np.array([0, 1, 3]), np.array([1, 1, 2]), np.array([0, 2, 0]),
            np.array([1.0, 2.0, 2.0]), np.array([2.0, 2.0, 4.5]),
        )
        assert len(tr) == 3  # the zero-length middle row is dropped
        assert tr.intervals == [
            TraceInterval(2, 0, 1, 0.0, 1.0),
            TraceInterval(0, 1, 0, 1.0, 2.0),
            TraceInterval(3, 2, 0, 2.0, 4.5),
        ]
        worker, job, node, start, end = tr.columns()
        assert worker.dtype == np.int64 and start.dtype == np.float64
        assert end.tolist() == [1.0, 2.0, 4.5]

    def test_busy_time(self):
        tr = TraceRecorder()
        tr.record(0, 0, 0, 0.0, 2.0)
        tr.record(1, 0, 1, 1.0, 2.5)
        assert tr.busy_time() == pytest.approx(3.5)


class TestAuditPasses:
    def test_valid_schedule_passes(self, one_chain_jobset):
        tr = TraceRecorder()
        record_valid_schedule(tr)
        audit_trace(tr, one_chain_jobset, m=1, speed=1.0)

    def test_valid_preemptive_split_passes(self, one_chain_jobset):
        # Node 1 split into two segments on different workers.
        tr = TraceRecorder()
        tr.record(0, 0, 0, 1.0, 3.0)
        tr.record(0, 0, 1, 3.0, 4.0)
        tr.record(1, 0, 1, 4.0, 6.0)
        audit_trace(tr, one_chain_jobset, m=2, speed=1.0)


class TestAuditCatchesViolations:
    def test_catches_worker_overlap(self, one_chain_jobset):
        tr = TraceRecorder()
        tr.record(0, 0, 0, 1.0, 3.0)
        tr.record(0, 0, 1, 2.0, 5.0)  # same worker, overlapping
        with pytest.raises(AssertionError, match="worker 0"):
            audit_trace(tr, one_chain_jobset, m=2, speed=1.0)

    def test_catches_too_many_processors(self):
        js = jobs_from_dags([single_node(2), single_node(2)], [0.0, 0.0])
        tr = TraceRecorder()
        tr.record(0, 0, 0, 0.0, 2.0)
        tr.record(1, 1, 0, 0.0, 2.0)
        with pytest.raises(AssertionError, match="more than m=1"):
            audit_trace(tr, js, m=1, speed=1.0)

    def test_catches_node_on_two_processors(self):
        js = jobs_from_dags([single_node(4)], [0.0])
        tr = TraceRecorder()
        tr.record(0, 0, 0, 0.0, 2.0)
        tr.record(1, 0, 0, 1.0, 3.0)  # same node concurrently elsewhere
        with pytest.raises(AssertionError):
            audit_trace(tr, js, m=2, speed=1.0)

    def test_catches_wrong_service_amount(self, one_chain_jobset):
        tr = TraceRecorder()
        tr.record(0, 0, 0, 1.0, 3.0)
        tr.record(0, 0, 1, 3.0, 5.0)  # node 1 needs 3 units, got 2
        with pytest.raises(AssertionError, match="service"):
            audit_trace(tr, one_chain_jobset, m=1, speed=1.0)

    def test_catches_missing_node(self, one_chain_jobset):
        tr = TraceRecorder()
        tr.record(0, 0, 0, 1.0, 3.0)  # node 1 never runs
        with pytest.raises(AssertionError, match="never executed"):
            audit_trace(tr, one_chain_jobset, m=1, speed=1.0)

    def test_catches_precedence_violation(self, one_chain_jobset):
        tr = TraceRecorder()
        tr.record(0, 0, 1, 1.0, 4.0)  # child before parent
        tr.record(0, 0, 0, 4.0, 6.0)
        with pytest.raises(AssertionError, match="before predecessor"):
            audit_trace(tr, one_chain_jobset, m=1, speed=1.0)

    def test_catches_start_before_arrival(self, one_chain_jobset):
        tr = TraceRecorder()
        tr.record(0, 0, 0, 0.0, 2.0)  # job arrives at t=1
        tr.record(0, 0, 1, 2.0, 5.0)
        with pytest.raises(AssertionError, match="before"):
            audit_trace(tr, one_chain_jobset, m=1, speed=1.0)

    def test_catches_speed_mismatch(self, one_chain_jobset):
        # Correct at speed 1 but audited at speed 2: service too long.
        tr = TraceRecorder()
        record_valid_schedule(tr)
        with pytest.raises(AssertionError, match="service"):
            audit_trace(tr, one_chain_jobset, m=1, speed=2.0)
