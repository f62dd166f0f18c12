"""The scheduler interface shared by every policy in :mod:`repro.core`.

A :class:`Scheduler` is a stateless description of a policy; calling
:meth:`Scheduler.run` simulates it on an instance and returns a
:class:`~repro.sim.result.ScheduleResult`.  Statelessness means one
scheduler object can be reused across sweeps and repetitions -- all
per-run state lives inside the engines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.dag.job import JobSet
from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike
from repro.sim.trace import TraceRecorder


class Scheduler(ABC):
    """Abstract scheduling policy.

    Subclasses document two contract points:

    * **clairvoyance** -- the paper's algorithms are non-clairvoyant
      (no access to job structure, work or span before nodes become
      ready); baselines that peek must say so in their docstring and set
      :attr:`clairvoyant`;
    * **randomness** -- deterministic policies ignore ``seed``.
    """

    #: True if the policy inspects job internals unavailable to an
    #: online non-clairvoyant scheduler.  Purely informational; used by
    #: reports to label baselines.
    clairvoyant: bool = False

    @property
    @abstractmethod
    def name(self) -> str:
        """Short, stable identifier used in reports and result labels."""

    @abstractmethod
    def run(
        self,
        jobset: JobSet,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[TraceRecorder] = None,
    ) -> ScheduleResult:
        """Simulate the policy on ``jobset`` with ``m`` speed-``speed`` workers.

        Parameters
        ----------
        jobset:
            The instance to schedule.
        m:
            Number of identical processors.
        speed:
            Resource augmentation factor ``s >= 1`` (1.0 = no
            augmentation).
        seed:
            Seed or generator for randomized policies; ignored by
            deterministic ones.
        trace:
            Optional recorder capturing execution intervals for
            feasibility audits.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
