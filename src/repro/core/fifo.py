"""The idealized FIFO scheduler (Section 3 of the paper).

At every instant FIFO orders live jobs by arrival time and hands
processors to ready nodes job-by-job in that order until processors or
ready nodes run out.  Theorem 3.1: FIFO with ``(1+eps)``-speed is
``O(1/eps)``-competitive (the proof gives ``3/eps``) for maximum
unweighted flow time.

The paper calls this scheduler *idealized* because a real implementation
would pay heavy preemption and centralization costs -- the motivation for
the work-stealing schedulers of Section 4, which approximate FIFO
distributively.  In simulation those costs vanish, so FIFO doubles as the
strongest practical comparator next to the OPT lower bound.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import Scheduler
from repro.dag.job import JobSet
from repro.sim.events import run_centralized
from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike
from repro.sim.trace import TraceRecorder


class FifoScheduler(Scheduler):
    """First-In-First-Out over jobs, greedy over each job's ready nodes.

    Non-clairvoyant and deterministic: priority is ``(arrival, job_id)``
    -- exactly the information available at job release.  Ties in arrival
    time are broken by job id, a concrete instance of the paper's
    "breaking ties arbitrarily".
    """

    @property
    def name(self) -> str:
        return "fifo"

    def run(
        self,
        jobset: JobSet,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[TraceRecorder] = None,
    ) -> ScheduleResult:
        del seed  # deterministic policy
        return run_centralized(
            jobset,
            m=m,
            speed=speed,
            priority_key=lambda je: (je.arrival, je.job_id),
            scheduler_name=self.name,
            trace=trace,
        )
