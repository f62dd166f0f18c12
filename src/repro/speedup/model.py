"""The arbitrary speedup-curves job model.

Following the paper's Section 8 description: "each job J_j consists of
mu_j phases and the i-th phase is associated with a tuple
(p_{i,j}, Gamma_{i,j}(m'))... the phases of the job must be processed
sequentially and Gamma specifies the parallelizability.  It is generally
assumed that Gamma is a non-decreasing sublinear function."

Speedup functions are classes (not bare callables) so they can declare
their *useful processor count* -- the allocation beyond which the rate
stops improving -- which greedy allocators need.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple


class SpeedupFunction(ABC):
    """A non-decreasing, sublinear speedup curve ``Gamma(p)``.

    ``rate(p)`` is the processing rate (work units per time unit at
    speed 1) when the job's current phase holds ``p`` processors;
    ``rate(0) == 0`` always.
    """

    @abstractmethod
    def rate(self, p: int) -> float:
        """Processing rate on ``p >= 0`` processors.

        Contract: ``rate(0) == 0``.  The engine relies on it: a job
        without processors makes no progress, so it skips such jobs
        without asking for their rate.
        """

    @property
    @abstractmethod
    def useful_processors(self) -> int:
        """Smallest allocation achieving the maximum rate (at least 1).

        ``math.inf``-like behaviour (strictly increasing curves such as
        power laws) is represented by a large sentinel; allocators cap
        at ``m`` anyway.
        """

    def _check_p(self, p: int) -> None:
        if p < 0:
            raise ValueError(f"processor count must be >= 0, got {p}")


class LinearCapped(SpeedupFunction):
    """``Gamma(p) = min(p, cap)`` -- linear speedup up to a parallelism cap.

    The workhorse curve: a job that scales perfectly to ``cap``
    processors and not at all beyond.  ``cap = 1`` is a sequential job
    (see :class:`Sequential`).
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.cap = int(cap)

    def rate(self, p: int) -> float:
        self._check_p(p)
        return float(min(p, self.cap))

    @property
    def useful_processors(self) -> int:
        return self.cap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearCapped({self.cap})"


class Sequential(LinearCapped):
    """``Gamma(p) = min(p, 1)`` -- a phase that cannot parallelize."""

    def __init__(self) -> None:
        super().__init__(1)


class PowerLaw(SpeedupFunction):
    """``Gamma(p) = p^beta`` with ``0 < beta <= 1`` -- diminishing returns.

    The paper's Section 8 example is ``Gamma(p) = sqrt(p)`` (beta = 1/2),
    which it uses to argue DAGs cannot express such curves: a DAG's
    parallelism is "essentially linear up to the number of ready nodes".
    """

    #: Allocation sentinel for strictly increasing curves.
    _UNBOUNDED = 1 << 30

    def __init__(self, beta: float) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        self.beta = float(beta)

    def rate(self, p: int) -> float:
        self._check_p(p)
        return float(p) ** self.beta

    @property
    def useful_processors(self) -> int:
        return self._UNBOUNDED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PowerLaw({self.beta})"


class Sqrt(PowerLaw):
    """``Gamma(p) = sqrt(p)`` -- the paper's Section 8 example curve."""

    def __init__(self) -> None:
        super().__init__(0.5)


@dataclass(frozen=True)
class Phase:
    """One sequential phase: ``work`` units processed at ``speedup``'s rate."""

    work: float
    speedup: SpeedupFunction

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise ValueError(f"phase work must be positive, got {self.work}")


@dataclass(frozen=True)
class SpeedupJob:
    """A job in the speedup-curves model: sequential phases + metadata."""

    job_id: int
    phases: Tuple[Phase, ...]
    arrival: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"job {self.job_id} has no phases")
        if self.arrival < 0:
            raise ValueError(f"job {self.job_id} has negative arrival")
        if self.weight <= 0:
            raise ValueError(f"job {self.job_id} has non-positive weight")

    @property
    def total_work(self) -> float:
        """Sum of phase works."""
        return sum(ph.work for ph in self.phases)

    @property
    def span(self) -> float:
        """Execution time on unbounded processors at speed 1.

        Each phase runs at its maximum rate; for strictly increasing
        curves this is 0-approaching-time in the limit, so the span uses
        the rate at the ``useful_processors`` sentinel -- callers
        comparing against DAG spans use linear-capped curves, where this
        is exact.
        """
        return sum(
            ph.work / ph.speedup.rate(ph.speedup.useful_processors)
            for ph in self.phases
        )


class SpeedupJobSet:
    """An ordered instance of speedup-curve jobs (arrival order, dense ids)."""

    def __init__(self, jobs: Iterable[SpeedupJob]) -> None:
        ordered = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
        self._jobs: Tuple[SpeedupJob, ...] = tuple(
            SpeedupJob(
                job_id=i, phases=j.phases, arrival=j.arrival, weight=j.weight
            )
            for i, j in enumerate(ordered)
        )
        if not self._jobs:
            raise ValueError("a SpeedupJobSet must contain at least one job")

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[SpeedupJob]:
        return iter(self._jobs)

    def __getitem__(self, idx: int) -> SpeedupJob:
        return self._jobs[idx]

    @property
    def arrivals(self) -> List[float]:
        """Arrival times in arrival order."""
        return [j.arrival for j in self._jobs]

    @property
    def weights(self) -> List[float]:
        """Weights in arrival order."""
        return [j.weight for j in self._jobs]

    @property
    def total_work(self) -> float:
        """Sum of all jobs' phase works."""
        return sum(j.total_work for j in self._jobs)
