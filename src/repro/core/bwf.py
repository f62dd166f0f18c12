"""Biggest-Weight-First for maximum weighted flow time (Section 7).

BWF is FIFO's sibling for the weighted objective ``max_i w_i F_i``: at
every instant it orders live jobs by *decreasing weight* (ties broken by
arrival, then id) and hands processors to ready nodes job-by-job in that
order.  Theorem 7.1: BWF with ``(1+eps)``-speed is
``O(1/eps^2)``-competitive for maximum weighted flow time -- essentially
the best possible online, since without resource augmentation every
algorithm is ``Omega(W^0.4)``-competitive in the max weight ratio
(Chekuri, Im & Moseley), even for sequential unit jobs.

BWF is non-clairvoyant: the weight is declared at arrival (Section 2) and
is the only job property the priority reads.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import Scheduler
from repro.dag.job import JobSet
from repro.sim.events import run_centralized
from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike
from repro.sim.trace import TraceRecorder


class BwfScheduler(Scheduler):
    """Biggest-Weight-First: strict priority to the heaviest live jobs.

    With unit weights BWF's ordering collapses to arrival order, i.e. it
    degenerates to FIFO exactly -- a property the test suite checks.
    """

    dynamic_priority = False

    @property
    def name(self) -> str:
        return "bwf"

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
            priority_key=lambda je: (-je.weight, je.arrival, je.job_id),
            scheduler_name=self.name,
            trace=trace,
        )
