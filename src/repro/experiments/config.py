"""Experiment definitions: every figure of the paper, parameterized.

The paper's setup (Section 6): 16 cores, work-stealing in TBB with
``k = 16``, three work distributions, three QPS levels each targeting
roughly 50% / 60% / 70% utilization, Poisson arrivals, parallel-for jobs,
100,000 jobs per point.

Scales
------
The paper's 100k jobs per point is available (:data:`SCALE_PAPER`; one
Figure 2 panel takes about 5 s on the compiled kernel on a 2-vCPU
host); :data:`SCALE_STANDARD` (the bench default) uses 3k jobs x 3
repetitions, which reproduces every qualitative conclusion --
max-flow curves at these utilizations are driven by the busiest burst,
which 3k jobs at ~10ms each (a ~30-second trace) samples adequately, and
repetitions expose the run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.workloads.distributions import (
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    WorkDistribution,
)


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run each experiment cell.

    Attributes
    ----------
    n_jobs:
        Jobs per data point.
    reps:
        Independent repetitions (seeds) per data point; reported values
        are means across repetitions.
    """

    n_jobs: int
    reps: int

    def __post_init__(self) -> None:
        if self.n_jobs < 1 or self.reps < 1:
            raise ValueError(
                f"scale requires n_jobs >= 1 and reps >= 1, got {self}"
            )


#: Fast scale for CI / smoke runs (seconds end-to-end).
SCALE_QUICK = ExperimentScale(n_jobs=600, reps=1)
#: Default scale for the benches (serial ``all`` takes about 10 s on a
#: 2-vCPU host).
SCALE_STANDARD = ExperimentScale(n_jobs=3000, reps=3)
#: The paper's scale (100k jobs per point; about 5 s per Figure 2 panel).
SCALE_PAPER = ExperimentScale(n_jobs=100_000, reps=1)


@dataclass(frozen=True)
class Figure2Config:
    """One panel of Figure 2: a workload and its QPS sweep.

    Attributes mirror the paper's experimental constants; see the module
    docstring.  ``steals_per_tick`` selects the practical steal-cost
    model (see :func:`repro.sim.engine._run_work_stealing`) matching the
    paper's TBB testbed, where steals are microseconds against
    millisecond jobs.
    """

    name: str
    distribution_factory: Callable[[], WorkDistribution]
    qps_values: Tuple[float, ...]
    m: int = 16
    k: int = 16
    steals_per_tick: int = 64
    units_per_ms: float = 4.0
    target_chunks: int = 32

    @property
    def time_unit_ms(self) -> float:
        """Milliseconds per simulation time unit (for display)."""
        return 1.0 / self.units_per_ms


#: Figure 2(a): Bing workload, QPS in {800, 1000, 1200}.
FIG2A = Figure2Config(
    name="fig2a-bing",
    distribution_factory=BingDistribution,
    qps_values=(800.0, 1000.0, 1200.0),
)

#: Figure 2(b): finance workload, QPS in {800, 900, 1000}.
FIG2B = Figure2Config(
    name="fig2b-finance",
    distribution_factory=FinanceDistribution,
    qps_values=(800.0, 900.0, 1000.0),
)

#: Figure 2(c): log-normal workload, QPS in {800, 1000, 1200}.
FIG2C = Figure2Config(
    name="fig2c-lognormal",
    distribution_factory=LogNormalDistribution,
    qps_values=(800.0, 1000.0, 1200.0),
)


#: Registry used by the CLI and the per-experiment index in DESIGN.md.
EXPERIMENTS: Dict[str, str] = {
    "fig2a": "Figure 2(a): max flow vs QPS, Bing workload",
    "fig2b": "Figure 2(b): max flow vs QPS, finance workload",
    "fig2c": "Figure 2(c): max flow vs QPS, log-normal workload",
    "fig3": "Figure 3: work distribution histograms (Bing, finance)",
    "lb5": "Lemma 5.1: work stealing is Omega(log n) on the adversarial instance",
    "thm31": "Theorem 3.1: FIFO (1+eps)-speed envelope sweep",
    "thm71": "Theorem 7.1: BWF weighted max-flow envelope sweep",
    "abl-k": "Ablation: steal-k-first k sweep at high load",
    "abl-load": "Ablation: utilization sweep (admit-first degradation)",
    "abl-steal": "Ablation: victim-selection and steal-half policies",
    "abl-sched": "Ablation: policy families (FIFO/WS vs LAS/SRW/LIFO/random)",
    "abl-burst": "Ablation: arrival burstiness at fixed rate",
    "abl-grain": "Ablation: parallel-for decomposition granularity",
    "ext-speedup": "Extension: DAG vs speedup-curves model separation (Sec 8)",
    "ext-wws": "Extension: weighted-admission work stealing (Sec 4 x Sec 7)",
    "ext-norms": "Extension: lk-norms of flow time (conclusion's open question)",
    "ext-scaling": "Extension: single-job O(W/m+P) and Lemma 4.4 steal bound",
    "ext-makespan": "Extension: batch (makespan) special case vs Graham bound",
    "ext-overheads": "Extension: FIFO preemption/migration cost vs WS steals (Sec 1)",
}
