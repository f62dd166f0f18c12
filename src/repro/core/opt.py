"""The simulated-OPT lower bound (Section 6 of the paper).

The true optimal max-flow schedule is unknown, so the paper bounds it
from below: assume every job is *fully parallelizable* with no preemption
overhead, i.e. it can run at rate ``m`` using all processors.  Then the
``m``-processor problem collapses to scheduling sequential jobs of size
``W_i / m`` on a single speed-1 machine, where FIFO is known to be optimal
for maximum flow time (Bender et al.; Ambuehl & Mastrolilli).  The
resulting max flow is therefore **at most** that of any feasible schedule
of the real DAG jobs on ``m`` unit-speed processors.

Two refinements preserved from the theory:

* a job can never finish faster than its critical path, so each job's
  completion is additionally lower-bounded by ``r_i + P_i / speed``;
* the bound is evaluated at the *comparison* speed (1 by default): when a
  competitor runs with resource augmentation ``s``, the theorems compare
  it against OPT at speed 1, which is how the benches use this class.

The computation is a single O(n) pass (jobs are already in arrival
order), so OPT curves are essentially free next to the simulations.  It
reads the per-job arrays of the set's flat
(:func:`~repro.dag.flat.flatten_jobset`:
:attr:`~repro.dag.flat.FlatInstance.job_works`,
:attr:`~repro.dag.flat.FlatInstance.job_spans`), so a generated
parallel-for instance, whose spans come in closed form, builds no
:class:`~repro.dag.job.Job` here.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.base import Scheduler
from repro.dag.flat import FlatInstance, flatten_jobset, to_jobset
from repro.dag.job import JobSet
from repro.sim.engine import _check_machine
from repro.sim.result import ScheduleResult, SimulationStats
from repro.sim.rng import SeedLike
from repro.sim.trace import TraceRecorder


def opt_lower_bound(
    jobset: Union[JobSet, FlatInstance],
    m: int,
    speed: float = 1.0,
    use_span_bound: bool = True,
) -> ScheduleResult:
    """Compute the Section 6 lower bound as a :class:`ScheduleResult`.

    Parameters
    ----------
    jobset:
        The instance: a :class:`JobSet`, or a :class:`FlatInstance`,
        which is read as its :func:`~repro.dag.flat.to_jobset` view.
    m:
        Number of processors of the hypothetical optimal schedule.
    speed:
        Speed of the hypothetical optimal schedule (1.0 in every paper
        comparison; exposed for sensitivity studies).  ``m`` and
        ``speed`` follow the run contract of
        :func:`repro.sim.engine._run_work_stealing`.
    use_span_bound:
        Also apply the per-job critical-path lower bound
        ``c_i >= r_i + P_i / speed``.  The aggregate-machine relaxation
        alone can undercut the span of highly sequential jobs; adding the
        span bound tightens the result while remaining a valid lower
        bound (both relaxations hold for every feasible schedule).
        Note the span refinement is per-job only -- it does not force the
        FIFO queue behind a long job to wait, keeping the whole
        computation a lower bound.

    Returns
    -------
    ScheduleResult
        ``completions`` of the relaxed schedule; its ``max_flow`` is the
        number the paper plots as "OPT".
    """
    _check_machine(m, speed, "processor")

    if isinstance(jobset, FlatInstance):
        jobset = to_jobset(jobset)
    flat = flatten_jobset(jobset)
    if not flat.arrivals_sorted:
        # The set of a flat with unsorted arrivals re-sorted its jobs.
        flat = flatten_jobset(JobSet(jobset.jobs))
    arrivals = flat.arrivals
    works = flat.job_works.astype(np.float64)
    weights = flat.weights

    # Single-machine FIFO on sequential jobs of size W_i / m at the given
    # speed: c_i = max(r_i, c_{i-1}) + W_i / (m * speed), in arrival order.
    # Python floats round exactly like float64 scalars, and are cheaper
    # to step through.
    service = works / (m * speed)
    finished = []
    clock = 0.0
    for a, s in zip(arrivals.tolist(), service.tolist()):
        if a > clock:
            clock = a
        clock += s
        finished.append(clock)
    completions = np.array(finished, dtype=np.float64)

    if use_span_bound:
        spans = flat.job_spans.astype(np.float64)
        np.maximum(completions, arrivals + spans / speed, out=completions)

    stats = SimulationStats(busy_steps=int(round(float(works.sum()))))
    return ScheduleResult(
        scheduler="opt-lb",
        m=m,
        speed=speed,
        arrivals=arrivals,
        completions=completions,
        weights=weights,
        stats=stats,
    )


class OptLowerBound(Scheduler):
    """Scheduler-shaped wrapper around :func:`opt_lower_bound`.

    *Not a feasible scheduler*: its "completions" can be unachievable by
    any real execution -- that is the point of a lower bound.  It is
    clairvoyant by construction (reads each job's total work), exactly as
    the paper's simulated OPT is.
    """

    clairvoyant = True

    def __init__(self, use_span_bound: bool = True) -> None:
        self.use_span_bound = use_span_bound

    @property
    def name(self) -> str:
        return "opt-lb"

    def run(
        self,
        jobset: JobSet,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[TraceRecorder] = None,
    ) -> ScheduleResult:
        del seed, trace  # deterministic, and no real execution to trace
        return opt_lower_bound(
            jobset, m=m, speed=speed, use_span_bound=self.use_span_bound
        )
