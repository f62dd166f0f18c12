"""Unit tests for Job / JobSet semantics."""

import math

import pytest

from repro.dag.builders import chain, single_node
from repro.dag.job import Job, JobSet, jobs_from_dags


class TestJob:
    def test_basic_properties(self):
        j = Job(job_id=0, dag=chain([2, 3]), arrival=1.5, weight=2.0)
        assert j.work == 5
        assert j.span == 5
        assert j.arrival == 1.5
        assert j.weight == 2.0

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="negative arrival"):
            Job(job_id=0, dag=single_node(1), arrival=-1.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            Job(job_id=0, dag=single_node(1), arrival=0.0, weight=0.0)

    @pytest.mark.parametrize(
        "arrival,weight,match",
        [
            (math.nan, 1.0, "negative arrival"),
            (math.inf, 1.0, "negative arrival"),
            (0.0, math.nan, "non-positive weight"),
            (0.0, math.inf, "non-positive weight"),
        ],
    )
    def test_non_finite_arrival_and_weight_rejected(self, arrival, weight, match):
        with pytest.raises(ValueError, match=match):
            Job(job_id=0, dag=chain([1, 2]), arrival=arrival, weight=weight)

    def test_default_weight_is_one(self):
        assert Job(job_id=0, dag=single_node(1), arrival=0.0).weight == 1.0

    def test_frozen(self):
        j = Job(job_id=0, dag=single_node(1), arrival=0.0)
        with pytest.raises(AttributeError):
            j.arrival = 5.0


class TestJobSet:
    def test_sorts_by_arrival_and_reassigns_ids(self):
        jobs = [
            Job(job_id=10, dag=single_node(1), arrival=5.0),
            Job(job_id=20, dag=single_node(2), arrival=1.0),
        ]
        js = JobSet(jobs)
        assert js[0].arrival == 1.0
        assert js[0].job_id == 0
        assert js[1].job_id == 1
        assert js[0].work == 2

    def test_tie_break_by_original_id(self):
        jobs = [
            Job(job_id=2, dag=single_node(1), arrival=0.0),
            Job(job_id=1, dag=single_node(2), arrival=0.0),
        ]
        js = JobSet(jobs)
        assert js[0].work == 2  # original id 1 comes first

    def test_empty_allowed(self):
        js = JobSet([])
        assert len(js) == 0
        assert js.arrivals == []
        assert js.total_work == 0
        assert js.max_span == 0
        assert js.time_horizon == 0.0
        assert js.utilization(4) == 0.0

    def test_aggregate_views(self):
        js = jobs_from_dags(
            [single_node(4), chain([1, 1])], [0.0, 2.0], weights=[1.0, 3.0]
        )
        assert js.arrivals == [0.0, 2.0]
        assert js.works == [4, 2]
        assert js.spans == [4, 2]
        assert js.weights == [1.0, 3.0]
        assert js.total_work == 6
        assert js.max_span == 4
        assert js.time_horizon == 2.0
        assert len(js) == 2
        assert [j.job_id for j in js] == [0, 1]

    def test_utilization(self):
        js = jobs_from_dags([single_node(10), single_node(10)], [0.0, 10.0])
        # total work 20 over horizon 10 on 2 processors -> 1.0
        assert js.utilization(2) == pytest.approx(1.0)

    def test_utilization_zero_horizon_is_inf(self):
        js = jobs_from_dags([single_node(1), single_node(1)], [0.0, 0.0])
        assert js.utilization(4) == float("inf")


class TestJobsFromDags:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths must match"):
            jobs_from_dags([single_node(1)], [0.0, 1.0])

    def test_weights_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths must match"):
            jobs_from_dags([single_node(1)], [0.0], weights=[1.0, 2.0])

    def test_default_weights(self):
        js = jobs_from_dags([single_node(1)], [0.0])
        assert js.weights == [1.0]
