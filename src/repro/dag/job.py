"""Jobs and job sets: DAGs annotated with arrival times and weights.

A :class:`Job` couples an immutable :class:`~repro.dag.graph.JobDag` with
the online-arrival metadata of Section 2 of the paper: an arrival (release)
time ``r_i`` and a weight ``w_i`` (1.0 in the unweighted setting).  A
:class:`JobSet` is the instance every scheduler in :mod:`repro.core`
receives.  The set of a :class:`~repro.dag.flat.FlatInstance`
(:func:`~repro.dag.flat.to_jobset`) is a view that holds the flat: its
aggregate views read the flat's arrays, and its :class:`Job` objects are
built the first time a caller iterates or indexes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dag.graph import JobDag


@dataclass(frozen=True)
class Job:
    """One online job: a DAG, an arrival time, a weight and an id.

    Attributes
    ----------
    job_id:
        Dense integer identifier; schedulers index result arrays by it.
    dag:
        The job's computation DAG (structure is hidden from
        non-clairvoyant schedulers until nodes become ready).
    arrival:
        Release time ``r_i`` in time units.  The scheduler first learns of
        the job at this instant.
    weight:
        Priority weight ``w_i`` for the weighted max-flow objective;
        ``1.0`` in the unweighted setting.  Known at arrival, not
        necessarily correlated with the job's work.
    """

    job_id: int
    dag: JobDag
    arrival: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too: a NaN weight leaves admission
        # order undefined.
        if not 0 <= self.arrival < math.inf:
            raise ValueError(f"job {self.job_id} has negative arrival {self.arrival}")
        if not 0 < self.weight < math.inf:
            raise ValueError(f"job {self.job_id} has non-positive weight {self.weight}")

    @property
    def work(self) -> int:
        """Total work ``W_i`` of the job's DAG."""
        return self.dag.total_work

    @property
    def span(self) -> int:
        """Critical-path length ``P_i`` of the job's DAG."""
        return self.dag.span


class JobSet:
    """An ordered collection of jobs forming one scheduling instance.

    Jobs are stored sorted by arrival time (ties broken by ``job_id``),
    the order in which an online scheduler encounters them.  Construction
    re-identifies jobs so that ``jobset[i].job_id == i``, which lets every
    engine use dense arrays indexed by job id.

    An empty JobSet is legal -- generators and filters can legitimately
    produce zero jobs -- and every aggregate view degrades to its vacuous
    value (zero work, zero horizon, zero utilization).

    A set holds at most one :class:`~repro.dag.flat.FlatInstance`: the
    flat a :func:`~repro.dag.flat.to_jobset` view reads, or the one
    :func:`~repro.dag.flat.flatten_jobset` made of a set built from jobs.
    While that flat lists the jobs in the set's order (its arrivals are
    sorted) the aggregate views read its arrays, and a view builds its
    :class:`Job` objects only when a caller iterates or indexes it.
    Nothing points back from the flat, so refcounting frees both.
    """

    __slots__ = ("_jobs", "_flat", "__weakref__")

    def __init__(self, jobs: Iterable[Job]) -> None:
        ordered = sorted(jobs, key=attrgetter("arrival", "job_id"))
        # Jobs are immutable: one already carrying its index is kept.
        self._jobs: Optional[Tuple[Job, ...]] = tuple(
            j if j.job_id == i
            else Job(job_id=i, dag=j.dag, arrival=j.arrival, weight=j.weight)
            for i, j in enumerate(ordered)
        )
        self._flat = None

    @classmethod
    def _view(cls, flat) -> "JobSet":
        """The lazy set of ``flat``, whose arrivals are sorted."""
        view = cls.__new__(cls)
        view._jobs = None
        view._flat = flat
        return view

    def __reduce__(self):
        # A set travels as its flat: six arrays, not one object per job.
        from repro.dag.flat import flatten_jobset, to_jobset

        return to_jobset, (flatten_jobset(self),)

    def _column(self, array: str, field: str) -> list:
        """One value per job: the array of the flat whose job ``i`` is
        ``self[i]`` when there is one, else the jobs' ``field``."""
        flat = self._flat
        if flat is not None and flat.arrivals_sorted:
            return getattr(flat, array).tolist()
        return [getattr(j, field) for j in self.jobs]

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        if self._jobs is None:
            return self._flat.n_jobs
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, idx: int) -> Job:
        return self.jobs[idx]

    # -- aggregate views ----------------------------------------------------

    @property
    def jobs(self) -> Tuple[Job, ...]:
        """The jobs in arrival order (a view builds them on first use)."""
        if self._jobs is None:
            from repro.dag import flat  # flat.py imports this module

            self._jobs = flat._materialize(self._flat)
        return self._jobs

    @property
    def arrivals(self) -> List[float]:
        """Arrival times in arrival order."""
        return self._column("arrivals", "arrival")

    @property
    def works(self) -> List[int]:
        """Total works ``W_i`` in arrival order."""
        return self._column("job_works", "work")

    @property
    def spans(self) -> List[int]:
        """Critical-path lengths ``P_i`` in arrival order."""
        return self._column("job_spans", "span")

    @property
    def weights(self) -> List[float]:
        """Weights ``w_i`` in arrival order."""
        return self._column("weights", "weight")

    @property
    def total_work(self) -> int:
        """Sum of all job works."""
        return sum(self.works)

    @property
    def max_span(self) -> int:
        """The largest critical-path length over all jobs (0 if empty)."""
        return max(self.spans, default=0)

    @property
    def time_horizon(self) -> float:
        """Last arrival time -- the end of the online input (0.0 if empty)."""
        arrivals = self.arrivals
        return arrivals[-1] if arrivals else 0.0

    def utilization(self, m: int) -> float:
        """Offered load: total work divided by ``m`` times the arrival span.

        A value near 1.0 means the instance keeps ``m`` speed-1 processors
        saturated over the arrival window.  Values above 1.0 indicate an
        overloaded (eventually unbounded-backlog) instance.  A zero-horizon
        batch (all jobs arrive at once) is ``inf``; an empty instance
        offers no load at all, hence 0.0.
        """
        if not len(self):
            return 0.0
        horizon = self.time_horizon
        if horizon <= 0:
            return float("inf")
        return self.total_work / (m * horizon)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobSet(n={len(self)}, total_work={self.total_work}, "
            f"horizon={self.time_horizon:.3f})"
        )


def jobs_from_dags(
    dags: Sequence[JobDag],
    arrivals: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> JobSet:
    """Zip parallel sequences of DAGs, arrivals and weights into a JobSet."""
    if len(dags) != len(arrivals):
        raise ValueError(
            f"{len(dags)} DAGs but {len(arrivals)} arrivals; lengths must match"
        )
    if weights is not None and len(weights) != len(dags):
        raise ValueError(
            f"{len(dags)} DAGs but {len(weights)} weights; lengths must match"
        )
    ws = weights if weights is not None else [1.0] * len(dags)
    return JobSet(
        Job(job_id=i, dag=d, arrival=float(a), weight=float(w))
        for i, (d, a, w) in enumerate(zip(dags, arrivals, ws))
    )
