"""summarize_events / audit_events over synthetic event logs."""

from repro.obs import Telemetry, audit_events, summarize_events


def _stats(**overrides):
    """A consistent work-stealing SimulationStats dict."""
    stats = {
        "busy_steps": 100,
        "idle_steps": 20,
        "elapsed_ticks": 40,
        "n_events": 0,
        "steal_attempts": 10,
        "failed_steals": 4,
        "admissions": 5,
        "admission_wait_ticks": 15,
        "ff_skipped_ticks": 8,
        "max_queue_depth": 3,
    }
    stats.update(overrides)
    return stats


def _sweep_log(n_run=2, n_cached=1):
    """A small internally consistent sweep log."""
    tel = Telemetry(label="synthetic")
    tel.emit(
        "sweep.start", kind="grid_sweep", n_cells=n_run + n_cached,
        n_tasks=n_run + n_cached, n_cold=n_run,
    )
    for i in range(n_cached):
        tel.emit("cache.cell_hit", key=f"k{i}")
        tel.emit("cell.cached", params={"k": i}, metrics={"max_flow": 1.0})
    for i in range(n_run):
        tel.emit("cache.cell_miss", key=f"m{i}")
        tel.emit(
            "cell.run", params={"k": i}, wall_s=0.5 + i, pid=1000 + i,
            stats=_stats(), metrics={"max_flow": 2.0},
        )
    tel.emit("sweep.done", kind="grid_sweep", wall_s=2.0)
    tel.close()
    return tel.events


class TestSummarize:
    def test_header_and_counts(self):
        text = summarize_events(_sweep_log())
        assert "repro-obs/1" in text
        assert "synthetic" in text
        assert "sweep.start" in text
        assert "cell.run" in text

    def test_cache_table(self):
        text = summarize_events(_sweep_log(n_run=2, n_cached=2))
        assert "cache" in text
        assert "hit_ratio" in text
        # 2 hits, 2 misses -> 0.500
        assert "0.500" in text

    def test_cell_wall_stats(self):
        text = summarize_events(_sweep_log(n_run=2))
        assert "wall_total_s" in text
        assert "workers (pids)" in text

    def test_cell_wall_times_are_reported_per_kind(self):
        """A grid task and a Figure 2 task time different things: a
        mixed log reports each kind's wall times on its own."""
        tel = Telemetry(label="mixed")
        tel.emit("sweep.start", kind="grid_sweep", n_cells=2, n_tasks=2,
                 n_cold=2)
        for i, wall in enumerate((0.25, 0.75)):
            tel.emit(
                "cell.run", kind="grid_sweep", params={"k": i}, rep=0,
                wall_s=wall, pid=1, stats=_stats(), metrics={"max_flow": 1.0},
            )
        tel.emit("sweep.done", kind="grid_sweep", wall_s=1.0)
        tel.emit("sweep.start", kind="run_figure2_cells", n_cells=1,
                 n_tasks=1, n_cold=1)
        tel.emit(
            "cell.run", kind="run_figure2_cells", params={"qps": 100.0},
            wall_s=8.0, pid=2, metrics={"max_flow": 2.0},
        )
        tel.emit("sweep.done", kind="run_figure2_cells", wall_s=8.0)
        tel.close()
        assert audit_events(tel.events) == []

        blocks = {}
        for block in summarize_events(tel.events).split("\n\n"):
            head, *rows = block.splitlines()
            if head.startswith("cell wall time: "):
                blocks[head[len("cell wall time: "):]] = {
                    row.split()[0]: row.split()[-1] for row in rows[1:]
                }
        assert blocks == {
            "grid_sweep": {
                "run": "2", "wall_total_s": "1.000",
                "wall_mean_s": "0.5000", "wall_min_s": "0.2500",
                "wall_max_s": "0.7500",
            },
            "run_figure2_cells": {
                "run": "1", "wall_total_s": "8.000",
                "wall_mean_s": "8.0000", "wall_min_s": "8.0000",
                "wall_max_s": "8.0000",
            },
        }

    def test_engine_section_aggregates_stats(self):
        text = summarize_events(_sweep_log(n_run=3, n_cached=0))
        assert "steal_attempts" in text
        assert f"{30:>10}" in text  # 3 runs x 10 attempts
        assert "steal_success_ratio" in text

    def test_speedup_only_log_renders_dashes(self):
        tel = Telemetry()
        tel.emit(
            "run.done", scheduler="speedup-fifo",
            stats=_stats(
                steal_attempts=None, failed_steals=None, admissions=None,
                admission_wait_ticks=None, ff_skipped_ticks=None,
                max_queue_depth=None,
            ),
        )
        text = summarize_events(tel.events)
        lines = {
            line.split()[0]: line for line in text.splitlines() if line.strip()
        }
        assert lines["steal_attempts"].rstrip().endswith("-")
        assert lines["busy_steps"].rstrip().endswith("100")

    def test_empty_log(self):
        assert "events" in summarize_events([])


class TestAudit:
    def test_consistent_log_is_clean(self):
        assert audit_events(_sweep_log()) == []

    def test_failed_steals_exceeding_attempts(self):
        events = [{"event": "run.done", "t": 0.0,
                   "stats": _stats(failed_steals=99)}]
        problems = audit_events(events)
        assert any("failed_steals" in p for p in problems)

    def test_presence_mismatch(self):
        events = [{"event": "run.done", "t": 0.0,
                   "stats": _stats(failed_steals=None)}]
        problems = audit_events(events)
        assert any("presence mismatch" in p for p in problems)

    def test_negative_counter(self):
        events = [{"event": "run.done", "t": 0.0,
                   "stats": _stats(admissions=-1)}]
        problems = audit_events(events)
        assert any("negative" in p for p in problems)

    def test_ff_exceeding_elapsed(self):
        events = [{"event": "run.done", "t": 0.0,
                   "stats": _stats(ff_skipped_ticks=1000)}]
        problems = audit_events(events)
        assert any("ff_skipped_ticks" in p for p in problems)

    def test_task_count_mismatch(self):
        events = _sweep_log(n_run=2, n_cached=0)
        events = [e for e in events if e["event"] != "cell.run"][:-1] + [
            e for e in events if e["event"] == "cell.run"
        ][:1]
        events.sort(key=lambda e: e["t"])
        problems = audit_events(events)
        assert any("announced" in p for p in problems)

    def test_cached_cell_without_cache_hit(self):
        events = [
            {"event": "cell.cached", "t": 0.0, "metrics": {}},
        ]
        problems = audit_events(events)
        assert any("cell.cached" in p for p in problems)

    def test_rejected_cache_hit_is_legal(self):
        # More hits than served cells: a hit lacking a requested metric
        # gets rejected and recomputed.  Not a violation.
        events = [
            {"event": "cache.cell_hit", "t": 0.0, "key": "a"},
            {"event": "cache.cell_hit", "t": 0.1, "key": "b"},
            {"event": "cell.cached", "t": 0.2, "metrics": {}},
        ]
        assert audit_events(events) == []

    def test_close_without_open(self):
        events = [{"event": "telemetry.close", "t": 0.0}]
        problems = audit_events(events)
        assert any("telemetry.close" in p for p in problems)

    def test_non_monotone_timestamps(self):
        events = [
            {"event": "a", "t": 1.0},
            {"event": "b", "t": 0.5},
        ]
        problems = audit_events(events)
        assert any("timestamp" in p for p in problems)

    def test_second_session_clock_reset_is_legal(self):
        events = [
            {"event": "telemetry.open", "t": 0.0},
            {"event": "a", "t": 5.0},
            {"event": "telemetry.open", "t": 0.0},
            {"event": "b", "t": 1.0},
        ]
        assert audit_events(events) == []
