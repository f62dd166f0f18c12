"""Dynamic-priority baselines: LAS and SRPT.

Neither appears in the paper; both are classic single-machine policies
that the scheduling literature constantly contrasts with FIFO, so the
ablation benches include them to show *why* the paper builds on FIFO
ordering for the max-flow objective:

* :class:`LeastAttainedServiceScheduler` (LAS / foreground-background):
  strict priority to the job that has received the least service so
  far.  Non-clairvoyant and excellent for mean flow under heavy tails --
  and terrible for max flow, because large jobs starve behind every
  newcomer.
* :class:`SrptScheduler2` is intentionally *not* provided under that
  name -- see :class:`ShortestRemainingWorkScheduler`, the DAG-model
  analogue of SRPT: strict priority to the smallest remaining total
  work.  Clairvoyant (it reads remaining work, which an online
  scheduler cannot know); optimal-ish for mean flow, unbounded for max.

Both run on the event engine in ``dynamic`` mode, which re-sorts
priorities every event and applies a one-work-unit scheduling quantum
(see :func:`repro.sim.events.run_centralized`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import Scheduler
from repro.dag.job import JobSet
from repro.sim.events import run_centralized
from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike
from repro.sim.trace import TraceRecorder


class LeastAttainedServiceScheduler(Scheduler):
    """LAS: the job with the least executed work so far runs first.

    Non-clairvoyant (attained service is observable by definition) and
    dynamic.  Ties (e.g. a fresh arrival vs. another fresh arrival)
    break by arrival then id, so brand-new jobs preempt everything --
    the foreground-background behaviour.
    """

    dynamic_priority = True

    @property
    def name(self) -> str:
        return "las"

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
            priority_key=lambda je: (je.attained, je.arrival, je.job_id),
            scheduler_name=self.name,
            trace=trace,
            dynamic=True,
        )


class ShortestRemainingWorkScheduler(Scheduler):
    """SRPT analogue for DAG jobs: least remaining *total work* first.

    Clairvoyant: remaining work presumes knowing each job's full size up
    front, which the paper's model forbids -- labeled accordingly and
    used only as a mean-flow-oriented contrast in ablations.
    """

    clairvoyant = True
    dynamic_priority = True

    @property
    def name(self) -> str:
        return "srw"

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
            priority_key=lambda je: (
                je.job.dag.total_work - je.attained,
                je.arrival,
                je.job_id,
            ),
            scheduler_name=self.name,
            trace=trace,
            dynamic=True,
        )
