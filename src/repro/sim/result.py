"""Schedule results: the common output type of every engine and scheduler.

A :class:`ScheduleResult` holds per-job arrival/completion/weight arrays
plus aggregate execution statistics, and derives every flow-time metric
the paper reports (Section 2: ``F_i = c_i - r_i``, objective
``max_i w_i F_i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass
class SimulationStats:
    """Aggregate execution accounting for one simulated run.

    All step counts are in the engine's native step unit: work units for
    the event engine (where a "step" is one unit of one processor's work)
    and ticks for the work-stealing engine.

    Fields that only one engine family can measure default to ``None``
    ("not applicable"), never to a sentinel zero: a centralized run did
    not perform *zero* steal attempts, it performed none at all, and
    reports render the distinction as ``-``.  The work-stealing engine
    always sets every field (to real zeros where nothing happened).

    Attributes
    ----------
    busy_steps:
        Processor-steps spent executing job nodes.  Exactly equals the
        instance's total work for any complete run -- an invariant the
        test suite checks.
    steal_attempts:
        Work-stealing only: total steal attempts (successful + failed).
    failed_steals:
        Work-stealing only: steal attempts that found an empty deque.
    admissions:
        Work-stealing only: jobs admitted from the global FIFO queue
        (equals the number of jobs for any complete run).
    idle_steps:
        Processor-steps spent neither working nor stealing (system empty).
    n_events:
        Event engine only: number of scheduling events processed.
    elapsed_ticks:
        Work-stealing only: total ticks simulated.
    admission_wait_ticks:
        Work-stealing only: summed ticks jobs spent in the global queue
        between release and admission -- the empirical counterpart of the
        admission-latency terms in Theorem 4.1's flow-time bound.
        ``admission_wait_ticks / admissions`` is the mean admission
        latency.
    ff_skipped_ticks:
        Work-stealing only: ticks the lossless fast-forward modes skipped
        instead of simulating (0 under ``_fast_forward=False``).  The
        ratio to ``elapsed_ticks`` is the fast-forward saving.
    max_queue_depth:
        Work-stealing only: peak length of the global admission queue.
    """

    busy_steps: int = 0
    steal_attempts: Optional[int] = None
    failed_steals: Optional[int] = None
    admissions: Optional[int] = None
    idle_steps: int = 0
    n_events: int = 0
    elapsed_ticks: int = 0
    admission_wait_ticks: Optional[int] = None
    ff_skipped_ticks: Optional[int] = None
    max_queue_depth: Optional[int] = None

    @property
    def steal_success_ratio(self) -> Optional[float]:
        """Fraction of steal attempts that found work, or None if N/A.

        The quantity Theorem 4.1's analysis tracks per admission window;
        ``None`` when the engine measured no attempts (not work-stealing,
        or a run where no worker ever went idle).
        """
        if not self.steal_attempts:
            return None
        return (self.steal_attempts - (self.failed_steals or 0)) / (
            self.steal_attempts
        )

    def as_dict(self) -> Dict[str, Optional[int]]:
        """Plain-dict view, used by the experiment reports and telemetry."""
        return {
            "busy_steps": self.busy_steps,
            "steal_attempts": self.steal_attempts,
            "failed_steals": self.failed_steals,
            "admissions": self.admissions,
            "idle_steps": self.idle_steps,
            "n_events": self.n_events,
            "elapsed_ticks": self.elapsed_ticks,
            "admission_wait_ticks": self.admission_wait_ticks,
            "ff_skipped_ticks": self.ff_skipped_ticks,
            "max_queue_depth": self.max_queue_depth,
        }


class ScheduleResult:
    """Per-job outcomes of one scheduler run on one instance.

    Parameters
    ----------
    scheduler:
        Human-readable scheduler name (e.g. ``"fifo"``,
        ``"steal-16-first"``).
    m:
        Number of processors simulated.
    speed:
        Processor speed ``s`` (resource augmentation); 1.0 means no
        augmentation.
    arrivals, completions, weights:
        Parallel arrays indexed by job id.  ``completions[i]`` must be at
        least ``arrivals[i]``.
    stats:
        Aggregate :class:`SimulationStats`; optional.
    seed:
        RNG seed for randomized schedulers, recorded for reproducibility.
    path:
        The engine that produced the result: ``"cext"`` for the compiled
        loops, ``"reference"`` (the default) for the Python engines.
    reasons:
        Why a run that could take the compiled loop did not (e.g.
        ``("kernel=unavailable",)``); empty otherwise.  ``path`` and
        ``reasons`` describe how the numbers were produced, not the
        numbers: :func:`result_to_dict` and :meth:`summary` leave them
        out.
    """

    def __init__(
        self,
        scheduler: str,
        m: int,
        speed: float,
        arrivals: np.ndarray,
        completions: np.ndarray,
        weights: Optional[np.ndarray] = None,
        stats: Optional[SimulationStats] = None,
        seed: Optional[int] = None,
        path: str = "reference",
        reasons: Tuple[str, ...] = (),
    ) -> None:
        arrivals = np.asarray(arrivals, dtype=np.float64)
        completions = np.asarray(completions, dtype=np.float64)
        if arrivals.shape != completions.shape:
            raise ValueError(
                f"arrivals {arrivals.shape} and completions "
                f"{completions.shape} must be parallel arrays"
            )
        if arrivals.ndim != 1:
            raise ValueError("results require a 1-D job axis")
        if np.any(completions < arrivals - 1e-9):
            bad = int(np.argmax(completions < arrivals - 1e-9))
            raise ValueError(
                f"job {bad} completes at {completions[bad]} before its "
                f"arrival {arrivals[bad]}"
            )
        if weights is None:
            weights = np.ones_like(arrivals)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != arrivals.shape:
                raise ValueError("weights must parallel arrivals")

        self.scheduler = scheduler
        self.m = int(m)
        self.speed = float(speed)
        self.arrivals = arrivals
        self.completions = completions
        self.weights = weights
        self.stats = stats if stats is not None else SimulationStats()
        self.seed = seed
        self.path = path
        self.reasons = reasons

    # -- per-job metrics ------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the instance."""
        return self.arrivals.size

    @property
    def flows(self) -> np.ndarray:
        """Flow times ``F_i = c_i - r_i`` (clamped at 0 against float dust)."""
        return np.maximum(self.completions - self.arrivals, 0.0)

    @property
    def weighted_flows(self) -> np.ndarray:
        """Weighted flow times ``w_i F_i``."""
        return self.weights * self.flows

    # -- aggregate objectives (Section 2) -------------------------------

    @property
    def max_flow(self) -> float:
        """The paper's primary objective: ``max_i F_i`` (0.0 if empty)."""
        return float(self.flows.max()) if self.n_jobs else 0.0

    @property
    def max_weighted_flow(self) -> float:
        """The weighted objective of Section 7: ``max_i w_i F_i`` (0.0 if empty)."""
        return float(self.weighted_flows.max()) if self.n_jobs else 0.0

    @property
    def mean_flow(self) -> float:
        """Average flow time (reported alongside the max in benches).

        0.0 for an empty instance: every aggregate objective of the
        vacuous schedule is zero.
        """
        return float(self.flows.mean()) if self.n_jobs else 0.0

    @property
    def makespan(self) -> float:
        """Completion time of the last job to finish (0.0 if empty)."""
        return float(self.completions.max()) if self.n_jobs else 0.0

    def flow_percentile(self, q: float) -> float:
        """The ``q``-th percentile of the flow-time distribution (0..100)."""
        return float(np.percentile(self.flows, q)) if self.n_jobs else 0.0

    @property
    def argmax_flow(self) -> int:
        """Id of a job realizing the maximum flow time.

        Raises ``ValueError`` on an empty result: no job realizes the
        (vacuously zero) maximum.
        """
        if not self.n_jobs:
            raise ValueError("argmax_flow is undefined for an empty result")
        return int(np.argmax(self.flows))

    def summary(self) -> Dict[str, float]:
        """Key metrics as a flat dict, used by reports and benches."""
        return {
            "max_flow": self.max_flow,
            "mean_flow": self.mean_flow,
            "p99_flow": self.flow_percentile(99.0),
            "max_weighted_flow": self.max_weighted_flow,
            "makespan": self.makespan,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduleResult({self.scheduler!r}, n={self.n_jobs}, m={self.m}, "
            f"speed={self.speed}, max_flow={self.max_flow:.4f})"
        )


def result_to_dict(result: ScheduleResult) -> dict:
    """JSON-ready dict of a result (arrays as lists, stats inlined).

    Archive the outcome of an interesting run next to its instance
    (see :func:`repro.dag.serialization.save_jobset`) and the pair can
    be re-examined later without re-simulating.
    """
    return {
        "scheduler": result.scheduler,
        "m": result.m,
        "speed": result.speed,
        "seed": result.seed,
        "arrivals": result.arrivals.tolist(),
        "completions": result.completions.tolist(),
        "weights": result.weights.tolist(),
        "stats": result.stats.as_dict(),
    }


def result_from_dict(data: dict) -> ScheduleResult:
    """Inverse of :func:`result_to_dict`."""
    stats_data = data.get("stats", {})
    stats = SimulationStats(**stats_data)
    return ScheduleResult(
        scheduler=data["scheduler"],
        m=int(data["m"]),
        speed=float(data["speed"]),
        arrivals=np.asarray(data["arrivals"], dtype=np.float64),
        completions=np.asarray(data["completions"], dtype=np.float64),
        weights=np.asarray(data["weights"], dtype=np.float64),
        stats=stats,
        seed=data.get("seed"),
    )


def save_result(result: ScheduleResult, path) -> None:
    """Write a result to a JSON file."""
    import json
    from pathlib import Path

    Path(path).write_text(json.dumps(result_to_dict(result)))


def load_result(path) -> ScheduleResult:
    """Read a result written by :func:`save_result`."""
    import json
    from pathlib import Path

    return result_from_dict(json.loads(Path(path).read_text()))
