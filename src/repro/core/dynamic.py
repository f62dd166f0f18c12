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
(see :func:`repro.sim.events.run_centralized`).  Their keys are the
engine's :func:`~repro.sim.events.attained_key` and
:func:`~repro.sim.events.remaining_work_key`, which the compiled
centralized loop computes itself, so both take the C loop wherever the
kernel builds and build no :class:`~repro.dag.job.Job` on a
:func:`~repro.dag.flat.to_jobset` view.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import Scheduler
from repro.dag.job import JobSet
from repro.sim.events import (
    attained_key,
    remaining_work_key,
    run_centralized,
)
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
            priority_key=attained_key,
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
            priority_key=remaining_work_key,
            scheduler_name=self.name,
            trace=trace,
            dynamic=True,
        )
