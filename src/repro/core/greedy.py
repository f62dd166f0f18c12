"""Centralized list-scheduling baselines for the comparison benches.

None of these carry guarantees for maximum flow time -- that is what
makes them useful contrast: the ablation benches show how FIFO-ordering
(the paper's Theorem 3.1) is what controls the max-flow objective, not
centralization or greediness per se.

* :class:`LifoScheduler` -- newest job first.  Pathological for max flow
  (early jobs starve under sustained load); the anti-FIFO control.
* :class:`SjfScheduler` -- smallest *total work* first.  Clairvoyant (it
  reads ``W_i``, which an online scheduler cannot know); good for mean
  flow, unbounded for max flow.
* :class:`RandomPriorityScheduler` -- a uniform random static priority
  per job; the "no policy at all" control.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import Scheduler
from repro.dag.job import JobSet
from repro.sim.events import run_centralized
from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike, make_rng
from repro.sim.trace import TraceRecorder


class LifoScheduler(Scheduler):
    """Last-In-First-Out: strict priority to the most recently arrived job.

    Non-clairvoyant and deterministic.  Under sustained load LIFO starves
    the oldest jobs, so its max flow can exceed FIFO's by the full length
    of a busy period -- the benches use it to show how much the FIFO
    ordering matters.
    """

    dynamic_priority = False

    @property
    def name(self) -> str:
        return "lifo"

    def run(
        self,
        jobset: JobSet,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[TraceRecorder] = None,
    ) -> ScheduleResult:
        del seed
        return run_centralized(
            jobset,
            m=m,
            speed=speed,
            priority_key=lambda je: (-je.arrival, -je.job_id),
            scheduler_name=self.name,
            trace=trace,
        )


class SjfScheduler(Scheduler):
    """Smallest-Job-First by total work ``W_i`` (clairvoyant baseline).

    Reads ``job.dag.total_work`` up front, which the paper's online model
    forbids; included purely as a mean-flow-oriented comparator.
    """

    clairvoyant = True
    dynamic_priority = False

    @property
    def name(self) -> str:
        return "sjf"

    def run(
        self,
        jobset: JobSet,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[TraceRecorder] = None,
    ) -> ScheduleResult:
        del seed
        return run_centralized(
            jobset,
            m=m,
            speed=speed,
            priority_key=lambda je: (je.job.dag.total_work, je.arrival, je.job_id),
            scheduler_name=self.name,
            trace=trace,
        )


class RandomPriorityScheduler(Scheduler):
    """A uniform random static priority per job (seeded).

    Serves as the null-policy control in the scheduler-comparison bench:
    any structured policy should beat it on max flow under load.
    """

    dynamic_priority = False

    @property
    def name(self) -> str:
        return "random-priority"

    def run(
        self,
        jobset: JobSet,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[TraceRecorder] = None,
    ) -> ScheduleResult:
        rng = make_rng(seed)
        priorities = rng.random(len(jobset))
        return run_centralized(
            jobset,
            m=m,
            speed=speed,
            priority_key=lambda je: (priorities[je.job_id], je.job_id),
            scheduler_name=self.name,
            trace=trace,
        )
