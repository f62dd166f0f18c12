"""Exactness tests for the speedup-curves engine."""

import numpy as np
import pytest

from repro.speedup.engine import (
    _run_speedup_equi as run_speedup_equi,
    _run_speedup_fifo as run_speedup_fifo,
)
from repro.speedup.model import (
    LinearCapped,
    Phase,
    PowerLaw,
    Sequential,
    SpeedupJob,
    SpeedupJobSet,
)


def job(job_id, arrival, *phases):
    return SpeedupJob(job_id=job_id, phases=tuple(phases), arrival=arrival)


class TestSingleJob:
    def test_linear_capped_saturates_cap(self):
        js = SpeedupJobSet([job(0, 0.0, Phase(12.0, LinearCapped(4)))])
        r = run_speedup_fifo(js, m=8)
        assert r.completions[0] == pytest.approx(3.0)

    def test_machine_smaller_than_cap(self):
        js = SpeedupJobSet([job(0, 0.0, Phase(12.0, LinearCapped(4)))])
        r = run_speedup_fifo(js, m=2)
        assert r.completions[0] == pytest.approx(6.0)

    def test_phases_run_sequentially(self):
        js = SpeedupJobSet(
            [job(0, 0.0, Phase(4.0, LinearCapped(4)), Phase(3.0, Sequential()))]
        )
        r = run_speedup_fifo(js, m=4)
        assert r.completions[0] == pytest.approx(1.0 + 3.0)

    def test_power_law_rate(self):
        # sqrt curve on 16 processors: rate 4, work 8 -> 2 time units.
        js = SpeedupJobSet([job(0, 0.0, Phase(8.0, PowerLaw(0.5)))])
        r = run_speedup_fifo(js, m=16)
        assert r.completions[0] == pytest.approx(2.0)

    def test_speed_scales(self):
        js = SpeedupJobSet([job(0, 0.0, Phase(12.0, LinearCapped(4)))])
        r = run_speedup_fifo(js, m=4, speed=2.0)
        assert r.completions[0] == pytest.approx(1.5)

    def test_late_arrival(self):
        js = SpeedupJobSet([job(0, 5.0, Phase(2.0, Sequential()))])
        r = run_speedup_fifo(js, m=1)
        assert r.completions[0] == pytest.approx(7.0)


class TestFifoAllocation:
    def test_head_of_line_gets_its_cap(self):
        # Job 0 uses 3 of 4 processors; job 1 gets the leftover 1.
        js = SpeedupJobSet(
            [
                job(0, 0.0, Phase(6.0, LinearCapped(3))),
                job(1, 0.0, Phase(4.0, LinearCapped(2))),
            ]
        )
        r = run_speedup_fifo(js, m=4)
        # Job 0: rate 3 -> done at 2.  Job 1: rate 1 until t=2 (2 work
        # done), then rate 2 for the last 2 -> done at 3.
        assert r.completions[0] == pytest.approx(2.0)
        assert r.completions[1] == pytest.approx(3.0)

    def test_power_law_head_hogs_machine(self):
        # The Section 8 caveat: a strictly increasing curve absorbs all
        # of m under FIFO-greedy, leaving nothing for the second job.
        js = SpeedupJobSet(
            [
                job(0, 0.0, Phase(8.0, PowerLaw(0.5))),
                job(1, 0.0, Phase(1.0, Sequential())),
            ]
        )
        r = run_speedup_fifo(js, m=16)
        assert r.completions[0] == pytest.approx(2.0)
        assert r.completions[1] == pytest.approx(3.0)  # waits for job 0


class TestEquiAllocation:
    def test_equal_split(self):
        # Two cap-4 jobs on m=4: each gets 2, rate 2, work 8 -> t=4.
        js = SpeedupJobSet(
            [
                job(0, 0.0, Phase(8.0, LinearCapped(4))),
                job(1, 0.0, Phase(8.0, LinearCapped(4))),
            ]
        )
        r = run_speedup_equi(js, m=4)
        assert r.completions.tolist() == pytest.approx([4.0, 4.0])

    def test_remainder_to_earlier_arrival(self):
        # m=3 split over two jobs: 2 and 1.
        js = SpeedupJobSet(
            [
                job(0, 0.0, Phase(4.0, LinearCapped(3))),
                job(1, 0.0, Phase(4.0, LinearCapped(3))),
            ]
        )
        r = run_speedup_equi(js, m=3)
        assert r.completions[0] == pytest.approx(2.0)
        # Job 1: rate 1 until t=2 (2 done), then rate 3 -> 2/3 more.
        assert r.completions[1] == pytest.approx(2.0 + 2.0 / 3.0)

    def test_more_jobs_than_processors(self):
        jobs = [job(i, 0.0, Phase(1.0, Sequential())) for i in range(5)]
        r = run_speedup_equi(SpeedupJobSet(jobs), m=2)
        assert r.makespan == pytest.approx(3.0)  # 2+2+1 jobs in waves


class TestAccounting:
    def test_work_conservation(self):
        jobs = [
            job(i, float(i), Phase(5.0, LinearCapped(2)), Phase(3.0, Sequential()))
            for i in range(6)
        ]
        js = SpeedupJobSet(jobs)
        for runner in (run_speedup_fifo, run_speedup_equi):
            r = runner(js, m=3)
            assert r.stats.busy_steps == int(js.total_work)


class TestConcavityRewardsSharing:
    def test_equi_beats_fifo_on_sqrt_curves(self):
        """Under concave (sqrt) speedup, equal sharing dominates greedy
        head-of-line allocation on both max and mean flow -- behaviour
        with no DAG-model counterpart (Section 8)."""
        js = SpeedupJobSet(
            [job(i, 0.0, Phase(16.0, PowerLaw(0.5))) for i in range(4)]
        )
        f = run_speedup_fifo(js, m=16)
        e = run_speedup_equi(js, m=16)
        assert e.max_flow < f.max_flow
        assert e.mean_flow < f.mean_flow

    def test_linear_capped_indifferent_to_policy(self):
        """With caps summing to exactly m, both policies saturate every
        job and coincide."""
        js = SpeedupJobSet(
            [job(i, 0.0, Phase(16.0, LinearCapped(4))) for i in range(4)]
        )
        f = run_speedup_fifo(js, m=16)
        e = run_speedup_equi(js, m=16)
        assert np.allclose(f.completions, e.completions)


class TestServedPrefix:
    """The engine walks only the jobs that hold processors.

    The oracle below is the loop before that change: every active job
    gets an allocation and a rate at every event.
    """

    @staticmethod
    def full_walk(jobset, m, allocate):
        from repro.speedup.engine import EPS, _JobState

        n = len(jobset)
        completions = np.zeros(n)
        pending = list(jobset)
        nxt, active, left, t = 0, [], n, pending[0].arrival
        n_events, processed = 0, 0.0
        while left > 0:
            while nxt < n and pending[nxt].arrival <= t + EPS:
                active.append(_JobState(pending[nxt]))
                nxt += 1
            if not active:
                t = pending[nxt].arrival
                continue
            allocs = allocate(active, m)
            rates = [js.current_speedup.rate(a) for js, a in zip(active, allocs)]
            dt = min(
                (js.remaining / r for js, r in zip(active, rates) if r > 0),
                default=float("inf"),
            )
            if nxt < n:
                dt = min(dt, pending[nxt].arrival - t)
            t += dt
            done = []
            for i, (js, r) in enumerate(zip(active, rates)):
                if r <= 0:
                    continue
                js.remaining -= r * dt
                processed += r * dt
                if js.remaining <= EPS and js.advance_phase():
                    completions[js.job.job_id] = t
                    done.append(i)
            for i in reversed(done):
                del active[i]
            left -= len(done)
            n_events += 1
        return completions, n_events, int(round(processed))

    @staticmethod
    def fifo_full(active, m):
        allocs, avail = [], m
        for js in active:
            give = min(avail, js.current_speedup.useful_processors)
            allocs.append(give)
            avail -= give
        return allocs

    @staticmethod
    def equi_full(active, m):
        base, rem = divmod(m, len(active))
        return [base + (1 if i < rem else 0) for i in range(len(active))]

    @pytest.mark.parametrize("seed", range(4))
    def test_overloaded_runs_match_the_full_walk(self, seed):
        """An instance sized for m=16 on m=2: long active lists, most
        jobs unserved at every event."""
        from repro.speedup.convert import jobset_to_speedup
        from repro.workloads import BingDistribution, WorkloadSpec

        spec = WorkloadSpec(
            BingDistribution(), qps=700.0, n_jobs=120, m=16, target_chunks=16
        )
        js = jobset_to_speedup(spec.build(seed=seed))
        rng = np.random.default_rng(seed)
        curved = SpeedupJobSet(
            SpeedupJob(
                job_id=j.job_id, arrival=j.arrival, weight=j.weight,
                phases=tuple(
                    Phase(p.work, PowerLaw(float(rng.choice([0.5, 1.0]))))
                    if rng.random() < 0.3 else p
                    for p in j.phases
                ),
            )
            for j in js
        )
        for jobset in (js, curved):
            for m in (2, 3):
                for runner, allocate in (
                    (run_speedup_fifo, self.fifo_full),
                    (run_speedup_equi, self.equi_full),
                ):
                    got = runner(jobset, m=m)
                    want, n_events, busy = self.full_walk(jobset, m, allocate)
                    assert np.array_equal(got.completions, want)
                    assert got.stats.n_events == n_events
                    assert got.stats.busy_steps == busy

    def test_every_shipped_curve_has_zero_rate_on_zero_processors(self):
        for curve in (
            LinearCapped(1), LinearCapped(7), Sequential(),
            PowerLaw(0.01), PowerLaw(0.5), PowerLaw(1.0),
        ):
            assert curve.rate(0) == 0
            assert curve.useful_processors >= 1
