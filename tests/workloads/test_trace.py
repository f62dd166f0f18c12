"""Unit tests for trace replay (CSV and in-memory)."""

import numpy as np
import pytest

from repro.core.fifo import FifoScheduler
from repro.dag.builders import parallel_for
from repro.dag.job import Job, JobSet
from repro.workloads.trace import (
    jobset_from_trace,
    load_trace_csv,
    save_trace_csv,
)
from tests.dag.test_flat import assert_jobsets_identical


def _per_job_trace(arrivals_s, works_ms, weights, units_per_ms=4.0,
                   target_chunks=32, setup_units=1, finalize_units=1):
    """The per-job construction trace replay used before it went through
    the vectorized generator: one ``parallel_for`` DAG per request."""
    overhead = setup_units + finalize_units
    jobs = []
    for i, (a, w, wt) in enumerate(zip(arrivals_s, works_ms, weights)):
        body = max(overhead + 1, int(np.rint(w * units_per_ms))) - overhead
        dag = parallel_for(
            body, max(1, body // target_chunks),
            setup_work=setup_units, finalize_work=finalize_units,
        )
        jobs.append(
            Job(job_id=i, dag=dag, arrival=a * 1000.0 * units_per_ms,
                weight=float(wt))
        )
    return JobSet(jobs)


class TestJobsetFromTrace:
    def test_basic_construction(self):
        js = jobset_from_trace(
            arrivals_s=[0.0, 0.010, 0.020],
            works_ms=[10.0, 5.0, 2.5],
            units_per_ms=4.0,
        )
        assert len(js) == 3
        # 10 ms at 4 units/ms -> 40 total units (setup/finalize carved
        # out of the recorded total, not added on top).
        assert js[0].work == 40
        # 10 ms arrival -> 10 * 4 = 40 time units.
        assert js[1].arrival == pytest.approx(40.0)

    def test_weights_applied(self):
        js = jobset_from_trace([0.0, 0.1], [1.0, 1.0], weights=[2.0, 8.0])
        assert js.weights == [2.0, 8.0]

    def test_unordered_arrivals_sorted(self):
        js = jobset_from_trace([0.5, 0.1], [1.0, 2.0])
        assert js.arrivals[0] < js.arrivals[1]
        assert js[0].work > js[1].work  # the 2ms job arrived first

    def test_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            jobset_from_trace([0.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least one"):
            jobset_from_trace([], [])
        with pytest.raises(ValueError, match="non-negative"):
            jobset_from_trace([-1.0], [1.0])
        with pytest.raises(ValueError, match="positive"):
            jobset_from_trace([0.0], [0.0])
        with pytest.raises(ValueError, match="units_per_ms"):
            jobset_from_trace([0.0], [1.0], units_per_ms=0)
        with pytest.raises(ValueError, match="weights"):
            jobset_from_trace([0.0], [1.0], weights=[1.0, 2.0])

    @pytest.mark.parametrize("column,arrival,work", [
        ("arrival_s", np.nan, 1.0),
        ("arrival_s", np.inf, 1.0),
        ("work_ms", 0.0, np.nan),
        ("work_ms", 0.0, np.inf),
        ("work_ms", 0.0, 1e30),
    ])
    def test_non_finite_or_oversized_input_names_its_column(
        self, column, arrival, work
    ):
        with pytest.raises(ValueError, match=column):
            jobset_from_trace([0.0, arrival], [1.0, work])

    @pytest.mark.parametrize("field", ["setup_units", "finalize_units"])
    def test_setup_and_finalize_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            jobset_from_trace([0.0], [1.0], **{field: 0})

    def test_equals_per_job_construction(self):
        # Unsorted arrivals (with a tie), weights, and works at or below
        # setup + finalize, which are clamped to one body unit.
        arrivals = [0.3, 0.1, 0.3, 0.0, 0.2, 0.1]
        works = [12.5, 0.1, 0.5, 40.0, 7.3, 0.25]
        weights = [1.0, 3.0, 0.5, 2.0, 1.5, 4.0]
        kw = dict(units_per_ms=4.0, target_chunks=4, setup_units=2,
                  finalize_units=1)
        assert_jobsets_identical(
            jobset_from_trace(arrivals, works, weights, **kw),
            _per_job_trace(arrivals, works, weights, **kw),
        )

    def test_replayed_trace_is_schedulable(self):
        rng = np.random.default_rng(3)
        js = jobset_from_trace(
            np.sort(rng.uniform(0, 1.0, size=50)),
            rng.uniform(1.0, 20.0, size=50),
        )
        r = FifoScheduler().run(js, m=4)
        assert r.n_jobs == 50


class TestCsvRoundTrip:
    def test_load_with_header(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("arrival_s,work_ms,weight\n0.0,10.0,1.0\n0.5,4.0,2.0\n")
        js = load_trace_csv(p)
        assert len(js) == 2
        assert js.weights == [1.0, 2.0]

    def test_load_without_header_or_weights(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("0.0,10.0\n0.5,4.0\n")
        js = load_trace_csv(p)
        assert len(js) == 2
        assert js.weights == [1.0, 1.0]

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("0.0,10.0\n\n0.5,4.0\n")
        assert len(load_trace_csv(p)) == 2

    def test_bad_mid_file_line_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("0.0,10.0\noops,not,numbers\n")
        with pytest.raises(ValueError, match="line 2"):
            load_trace_csv(p)

    def test_short_line_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("0.5\n")
        with pytest.raises(ValueError, match="at least"):
            load_trace_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("arrival_s,work_ms\n")
        with pytest.raises(ValueError, match="no requests"):
            load_trace_csv(p)

    def test_save_load_round_trip_preserves_sizes(self, tmp_path):
        js = jobset_from_trace([0.0, 0.25], [10.0, 4.0], weights=[1.0, 3.0])
        p = tmp_path / "out.csv"
        save_trace_csv(js, p)
        back = load_trace_csv(p)
        assert back.works == js.works
        assert back.weights == js.weights
        assert back.arrivals == pytest.approx(js.arrivals)
