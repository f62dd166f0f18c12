"""The steal-k-first and admit-first work-stealing schedulers (Section 4).

These are the practical schedulers the paper proposes: distributed
randomized work stealing (one deque per worker) extended to online
multi-job arrival with a global FIFO admission queue.  The single policy
knob is ``k``:

* ``k = 0`` -- **admit-first**: a free worker admits the head-of-line job
  whenever the queue is non-empty, and steals only when it is empty.
  Theoretically strongest: ``(1+eps)``-speed with max flow
  ``O((1/eps^2) max{OPT, ln n})`` w.h.p. (Corollary 4.3).
* ``k > 0`` -- **steal-k-first**: a free worker tries random steals first
  and admits only after ``k`` consecutive failures.  Theorem 4.1 gives
  ``(k+1+(k+2)eps)``-speed with the same flow bound; in *practice* larger
  ``k`` tracks FIFO more closely (admitted jobs get parallelism before new
  jobs are opened) and beats admit-first at high load -- the paper's
  experiments use ``k = 16`` and Section 6 shows admit-first up to 2x
  worse at high utilization, which our benches reproduce.

Both variants are non-clairvoyant and randomized (victim selection only).

:meth:`WorkStealingScheduler.run` is :func:`repro.sim.run_batch` at one
replicate: every configuration (any victim policy, ``steal_half``,
either admission order), traced or not, runs on the compiled tick
kernel, and a run with a ``sampler`` on the reference engine
(:func:`repro.sim.engine._run_work_stealing`).  The two are pinned
bit-identical, so the choice only changes speed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.base import Scheduler
from repro.dag.job import JobSet
from repro.sim.batch_engine import run_batch
from repro.sim.engine import _check_work_stealing, _scheduler_label
from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike
from repro.sim.sampling import SystemSampler
from repro.sim.trace import TraceRecorder


class WorkStealingScheduler(Scheduler):
    """steal-k-first work stealing with a global FIFO admission queue.

    Parameters
    ----------
    k:
        Consecutive failed steal attempts required before a free worker
        admits a new job from the global queue.  ``0`` yields admit-first.
        The paper's experiments use ``k = 16`` (one per core on their
        16-core testbed); the Section 4 discussion recommends ``k >= m``
        so that, in expectation, stealable work is found if any exists.

    Notes
    -----
    Randomness is confined to victim selection; pass ``seed`` to
    :meth:`run` for reproducible runs.  Each steal attempt costs one time
    step, exactly as in the paper's analysis.

    :meth:`run` takes the compiled kernel for every configuration,
    traced or not, and the reference engine, silently, for a run with a
    ``sampler``: results and trace rows are identical either way.  The
    kernel reads the set's flat (:func:`~repro.dag.flat.flatten_jobset`),
    so a :func:`~repro.dag.flat.to_jobset` view runs without building a
    :class:`~repro.dag.job.Job`.  A host without a working C compiler
    runs the reference engine with a one-time :class:`RuntimeWarning`.
    """

    def __init__(
        self,
        k: int = 0,
        steals_per_tick: int = 1,
        victim_policy: str = "uniform",
        steal_half: bool = False,
        admission: str = "fifo",
    ) -> None:
        _check_work_stealing(k, steals_per_tick, victim_policy, admission)
        self.k = int(k)
        #: Acquisition cost model: 1 = the paper's theoretical unit-time
        #: steal; larger values model cheap (sub-unit-time) steals as in
        #: the paper's TBB experiments.  See
        #: :func:`repro.sim.engine._run_work_stealing`.
        self.steals_per_tick = int(steals_per_tick)
        #: Victim selection (see :mod:`repro.sim.policies`).
        self.victim_policy = victim_policy
        #: Steal half the victim's deque per successful steal (ablation
        #: knob; the paper's analyzed policy steals one node).
        self.steal_half = bool(steal_half)
        #: Admission order: "fifo" (the paper) or "weight" (BWF-style,
        #: this repository's weighted-objective extension).
        self.admission = admission

    @property
    def name(self) -> str:
        return _scheduler_label(
            self.k, self.victim_policy, self.steal_half, self.admission
        )

    def _engine_kwargs(self) -> Dict[str, Any]:
        """This scheduler's configuration as engine keyword arguments."""
        return {
            "k": self.k,
            "steals_per_tick": self.steals_per_tick,
            "victim_policy": self.victim_policy,
            "steal_half": self.steal_half,
            "admission": self.admission,
        }

    def run(
        self,
        jobset: JobSet,
        m: int,
        speed: float = 1.0,
        seed: SeedLike = None,
        trace: Optional[TraceRecorder] = None,
        sampler: Optional[SystemSampler] = None,
    ) -> ScheduleResult:
        return run_batch(
            [jobset], m, speed=speed, seeds=[seed], trace=trace,
            sampler=sampler, **self._engine_kwargs(),
        )[0]


class AdmitFirstScheduler(WorkStealingScheduler):
    """Admit-first work stealing -- steal-k-first with ``k = 0``.

    Provided as a named class because the paper treats admit-first as a
    distinct algorithm (Corollary 4.3) and the experiments compare it
    against steal-16-first by name.
    """

    def __init__(self) -> None:
        super().__init__(k=0)


class WeightedWorkStealingScheduler(WorkStealingScheduler):
    """Work stealing with biggest-weight-first admission (extension).

    The paper analyzes the weighted objective only for the centralized
    BWF (Section 7) and work stealing only with FIFO admission
    (Section 4).  This class combines them: the global queue admits the
    heaviest waiting job, so steal-k-first approximates BWF the way
    FIFO-admission approximates FIFO.  No competitive bound is claimed;
    the ``ext-wws`` bench measures the empirical gap to centralized BWF
    on weighted workloads.
    """

    def __init__(
        self,
        k: int = 16,
        steals_per_tick: int = 64,
        victim_policy: str = "uniform",
        steal_half: bool = False,
    ) -> None:
        super().__init__(
            k=k,
            steals_per_tick=steals_per_tick,
            victim_policy=victim_policy,
            steal_half=steal_half,
            admission="weight",
        )
