"""Event-driven simulator for the speedup-curves model.

Between job arrivals and phase completions, processor allocations -- and
therefore processing rates -- are constant, so the engine jumps between
events exactly like the centralized DAG engine.  Two allocation
policies:

* **FIFO-greedy** (``repro.run("speedup-fifo", ...)``): serve jobs in
  arrival order, giving each the processors it can still use
  (``useful_processors`` of its current phase) until the machine is
  exhausted -- the speedup-curves analogue of the paper's FIFO.
* **EQUI** (``repro.run("speedup-equi", ...)``): split the machine
  evenly among active jobs (earlier arrivals get the remainder), the
  classic Edmonds-Pruhs policy that is scalable for *average* flow in
  this model.

Results come back as :class:`~repro.sim.result.ScheduleResult`, so every
metric in :mod:`repro.metrics` applies unchanged.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.sim.result import ScheduleResult, SimulationStats
from repro.speedup.model import SpeedupJob, SpeedupJobSet

#: Comparison tolerance in work units / time units.
EPS = 1e-9


class _JobState:
    """Mutable execution state of one speedup-curves job."""

    __slots__ = ("job", "phase_idx", "remaining")

    def __init__(self, job: SpeedupJob) -> None:
        self.job = job
        self.phase_idx = 0
        self.remaining = job.phases[0].work

    @property
    def current_speedup(self):
        return self.job.phases[self.phase_idx].speedup

    def advance_phase(self) -> bool:
        """Move to the next phase; returns True when the job is done."""
        self.phase_idx += 1
        if self.phase_idx >= len(self.job.phases):
            return True
        self.remaining = self.job.phases[self.phase_idx].work
        return False


#: Maps the active jobs (in arrival order) and ``m`` to processor
#: counts for a prefix of them, the served jobs: every job from the
#: first zero entry on, and every job past the end of the list, holds no
#: processor.
AllocationPolicy = Callable[[List[_JobState], int], List[int]]


def _fifo_greedy_allocation(active: List[_JobState], m: int) -> List[int]:
    """Arrival order; each job takes what its current phase can use.

    The walk stops when the machine is exhausted: the jobs after that
    get nothing, and are left out of the list.
    """
    allocs = []
    avail = m
    for js in active:
        if avail == 0:
            break
        give = min(avail, js.current_speedup.useful_processors)
        allocs.append(give)
        avail -= give
    return allocs


def _equi_allocation(active: List[_JobState], m: int) -> List[int]:
    """Equal split; earlier arrivals receive the remainder first."""
    n = len(active)
    base, rem = divmod(m, n)
    return [base + (1 if i < rem else 0) for i in range(n)]


def _run_speedup(
    jobset: SpeedupJobSet,
    m: int,
    speed: float,
    policy: AllocationPolicy,
    scheduler_name: str,
) -> ScheduleResult:
    """Shared event loop for all allocation policies."""
    if m < 1:
        raise ValueError(f"need at least one processor, got m={m}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")

    n = len(jobset)
    arrivals = np.asarray(jobset.arrivals, dtype=np.float64)
    weights = np.asarray(jobset.weights, dtype=np.float64)
    completions = np.zeros(n, dtype=np.float64)
    stats = SimulationStats()

    pending = list(jobset)
    next_arrival = 0
    active: List[_JobState] = []  # kept in arrival order (FIFO semantics)
    remaining_jobs = n
    t = pending[0].arrival
    processed = 0.0

    while remaining_jobs > 0:
        while next_arrival < n and pending[next_arrival].arrival <= t + EPS:
            active.append(_JobState(pending[next_arrival]))
            next_arrival += 1

        if not active:
            t = pending[next_arrival].arrival
            continue

        allocs = policy(active, m)
        if (
            len(allocs) > len(active)
            or sum(allocs) > m
            or min(allocs, default=0) < 0
        ):
            raise RuntimeError(
                f"allocation policy returned invalid allocation {allocs} "
                f"for {len(active)} jobs on m={m}"
            )
        # Only the served prefix progresses (rate(0) == 0), so the
        # rates, the next event and the advance walk that prefix only.
        rates: List[float] = []
        for js, a in zip(active, allocs):
            if a == 0:
                break
            rates.append(js.current_speedup.rate(a) * speed)

        # Next event: earliest phase completion or next arrival.  (zip
        # stops at the end of the served prefix.)
        dt = min(
            (js.remaining / r for js, r in zip(active, rates) if r > 0),
            default=float("inf"),
        )
        if next_arrival < n:
            dt = min(dt, pending[next_arrival].arrival - t)
        if dt == float("inf"):
            raise RuntimeError(
                "no job is processing and no arrival is pending -- "
                "allocation policy starved every active job"
            )

        t += dt
        done_indices: List[int] = []
        for i, (js, r) in enumerate(zip(active, rates)):
            if r <= 0:
                continue
            delta = r * dt
            js.remaining -= delta
            processed += delta
            if js.remaining <= EPS:
                if js.advance_phase():
                    completions[js.job.job_id] = t
                    done_indices.append(i)
        for i in reversed(done_indices):
            del active[i]
        remaining_jobs -= len(done_indices)
        stats.n_events += 1

    stats.busy_steps = int(round(processed))
    return ScheduleResult(
        scheduler=scheduler_name,
        m=m,
        speed=speed,
        arrivals=arrivals,
        completions=completions,
        weights=weights,
        stats=stats,
    )


def _run_speedup_fifo(
    jobset: SpeedupJobSet, m: int, speed: float = 1.0
) -> ScheduleResult:
    """FIFO-greedy allocation -- the analogue of the paper's FIFO.

    Note the Section 8 caveat this engine makes concrete: for strictly
    increasing curves (power laws) the head-of-line job absorbs the
    whole machine, which no DAG job can express.
    """
    return _run_speedup(jobset, m, speed, _fifo_greedy_allocation, "speedup-fifo")


def _run_speedup_equi(
    jobset: SpeedupJobSet, m: int, speed: float = 1.0
) -> ScheduleResult:
    """EQUI (equal-split) allocation -- the classic average-flow policy."""
    return _run_speedup(jobset, m, speed, _equi_allocation, "speedup-equi")
