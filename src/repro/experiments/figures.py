"""Regeneration of every figure in the paper's evaluation, plus ablations.

Each function returns a :class:`SeriesResult` (or histogram data) whose
``render()`` output is what the benches print and what EXPERIMENTS.md
records against the paper's reported shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.bwf import BwfScheduler
from repro.core.dynamic import (
    LeastAttainedServiceScheduler,
    ShortestRemainingWorkScheduler,
)
from repro.core.fifo import FifoScheduler
from repro.core.greedy import LifoScheduler, RandomPriorityScheduler
from repro.core.opt import OptLowerBound, opt_lower_bound
from repro.core.work_stealing import WorkStealingScheduler
from repro.dag.flat import to_jobset
from repro.experiments.config import (
    ExperimentScale,
    Figure2Config,
    FIG2A,
    SCALE_STANDARD,
)
from repro.experiments.report import render_histogram, render_series
from repro.experiments.runner import _run_figure2_cells
from repro.sim.rng import derive_seed
from repro.theory import bounds
from repro.workloads.adversarial import (
    adversarial_instance,
    adversarial_machine_size,
    adversarial_opt_max_flow,
    sequential_execution_flow,
)
from repro.workloads.distributions import (
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
)
from repro.workloads.generator import WorkloadSpec, _parallel_for_flat
from repro.workloads.weights import class_weights, reweight


@dataclass
class SeriesResult:
    """A rendered-and-structured experiment outcome (one figure panel)."""

    title: str
    x_label: str
    x_values: List[float]
    series: Dict[str, List[float]]
    notes: str = ""

    def render(self) -> str:
        """Paper-style text table plus any notes."""
        text = render_series(
            self.title, self.x_label, self.x_values, self.series
        )
        if self.notes:
            text += "\n" + self.notes
        return text

    def ratio(self, name: str, baseline: str) -> List[float]:
        """Pointwise ratio of two series (for shape assertions in tests)."""
        return [
            a / b for a, b in zip(self.series[name], self.series[baseline])
        ]

    def render_chart(self, height: int = 12, log_y: bool = False) -> str:
        """ASCII chart view of the same data (see
        :func:`repro.experiments.report.render_chart`)."""
        from repro.experiments.report import render_chart

        return render_chart(
            self.title, self.x_values, self.series, height=height, log_y=log_y
        )


def figure2(
    cfg: Figure2Config = FIG2A,
    scale: ExperimentScale = SCALE_STANDARD,
    seed: int = 0,
    include_fifo: bool = False,
    max_workers: int | None = None,
) -> SeriesResult:
    """One panel of Figure 2: max flow time (ms) vs QPS.

    Paper shape to reproduce (Section 6): OPT smallest everywhere;
    steal-k-first (k=16) close to OPT; admit-first largest, with the gap
    widening as load grows (about 2x steal-k-first at high utilization
    for the Bing and log-normal workloads).

    QPS cells run across a process pool (``max_workers``: see
    :mod:`repro.experiments.parallel`); cell seeds derive from cell
    coordinates, so the fan-out never changes the numbers.
    """
    series: Dict[str, List[float]] = {}
    cells = _run_figure2_cells(
        cfg,
        cfg.qps_values,
        scale,
        seed=seed,
        include_fifo=include_fifo,
        max_workers=max_workers,
    )
    for cell in cells:
        for name, value in cell.items():
            series.setdefault(name, []).append(value)
    return SeriesResult(
        title=(
            f"{cfg.name}: max flow time (ms) vs QPS  "
            f"[n={scale.n_jobs} x{scale.reps} reps, m={cfg.m}, k={cfg.k}]"
        ),
        x_label="QPS",
        x_values=list(cfg.qps_values),
        series=series,
    )


def figure3(
    size: int = 100_000,
    seed: int = 0,
    bin_width_ms: float = 8.0,
    include_lognormal: bool = False,
) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """Figure 3: the work distributions, as (title, bin edges, probs).

    The paper plots the measured Bing (3a) and finance (3b) request-work
    histograms; this regenerates our synthetic stand-ins at *natural*
    (un-rescaled) scale so the axes match the published figure (Bing
    support ~5-205 ms, finance ~4-56 ms).  Shapes to verify: Bing
    unimodal with a long tail; finance bimodal on a short support.
    """
    out: List[Tuple[str, np.ndarray, np.ndarray]] = []
    dists = [
        (
            "fig3a: Bing search server request work distribution",
            BingDistribution.natural(),
        ),
        (
            "fig3b: Finance server request work distribution",
            FinanceDistribution.natural(),
        ),
    ]
    if include_lognormal:
        dists.append(
            ("fig3x: log-normal work distribution", LogNormalDistribution.natural())
        )
    for i, (title, dist) in enumerate(dists):
        edges, probs = dist.histogram(
            derive_seed(seed, i), size=size, bin_width_ms=bin_width_ms
        )
        out.append((title, edges, probs))
    return out


def render_figure3(size: int = 100_000, seed: int = 0) -> str:
    """Text rendering of both Figure 3 panels."""
    return "\n\n".join(
        render_histogram(title, edges, probs)
        for title, edges, probs in figure3(size=size, seed=seed)
    )


def lower_bound_experiment(
    n_values: Sequence[int] = (256, 1024, 4096, 16384, 65536),
    seed: int = 0,
    reps: int = 5,
    use_paper_fanout: bool = False,
) -> SeriesResult:
    """Lemma 5.1 empirically: work stealing's max flow grows with log n.

    Runs admit-first work stealing in the *theoretical* cost model
    (unit-time steals, speed 1) on the adversarial instance for growing
    ``n``; OPT stays at 2 time steps while work stealing's max flow
    tracks the sequential-execution ceiling ``Theta(m) = Theta(log n)``.

    ``use_paper_fanout`` selects the literal ``m // 10`` fan-out (which
    is 1 until m >= 20, flattening the curve at small n -- the asymptotic
    regime); the default uses ``m // 2``, the same mechanism with a
    constant visible at laptop scale (see
    :func:`repro.workloads.adversarial.adversarial_instance`).
    """
    scheduler = WorkStealingScheduler(k=0, steals_per_tick=1)
    x: List[float] = []
    ws_flow: List[float] = []
    opt_flow: List[float] = []
    ceiling: List[float] = []
    for n in n_values:
        m = adversarial_machine_size(n)
        fanout = max(1, m // 10) if use_paper_fanout else max(1, m // 2)
        jobset, m = adversarial_instance(n, fanout=fanout)
        flows = []
        for rep in range(reps):
            res = scheduler.run(jobset, m=m, seed=derive_seed(seed, n, rep))
            flows.append(res.max_flow)
        x.append(math.log2(n))
        ws_flow.append(float(np.mean(flows)))
        opt_flow.append(adversarial_opt_max_flow(m))
        ceiling.append(sequential_execution_flow(m, fanout=fanout))
    return SeriesResult(
        title=(
            "lb5: Lemma 5.1 -- work stealing on the adversarial instance "
            f"[reps={reps}, fanout={'m/10 (paper)' if use_paper_fanout else 'm/2'}]"
        ),
        x_label="log2(n)",
        x_values=x,
        series={
            "work-stealing": ws_flow,
            "opt": opt_flow,
            "sequential-ceiling": ceiling,
        },
        notes=(
            "expected shape: work-stealing grows ~linearly in log2(n) "
            "toward the sequential ceiling while opt stays flat at 2"
        ),
    )


def speed_augmentation_experiment(
    eps_values: Sequence[float] = (0.1, 0.25, 0.5, 0.9),
    n_jobs: int = 1200,
    m: int = 16,
    qps: float = 1200.0,
    seed: int = 0,
) -> SeriesResult:
    """Theorem 3.1 envelope: FIFO at ``(1+eps)``-speed vs ``(3/eps) OPT``.

    For each eps, runs FIFO with that augmentation on a high-load Bing
    workload and reports its max flow next to the theorem's envelope
    (computed from the OPT lower bound).  Expected shape: the measured
    curve sits far below the envelope at every eps (the bound is loose),
    and decreases as eps grows.
    """
    spec = WorkloadSpec(BingDistribution(), qps=qps, n_jobs=n_jobs, m=m)
    jobset = spec.build(seed=derive_seed(seed, 31))
    lb = opt_lower_bound(jobset, m=m, speed=1.0)
    fifo = FifoScheduler()
    measured: List[float] = []
    envelope: List[float] = []
    for eps in eps_values:
        res = fifo.run(jobset, m=m, speed=bounds.fifo_speed(eps))
        measured.append(res.max_flow)
        envelope.append(bounds.fifo_competitive_ratio(eps) * lb.max_flow)
    return SeriesResult(
        title=(
            f"thm31: FIFO (1+eps)-speed max flow vs Theorem 3.1 envelope "
            f"[bing qps={qps:g} n={n_jobs} m={m}; times in units]"
        ),
        x_label="eps",
        x_values=list(eps_values),
        series={
            "fifo-measured": measured,
            "(3/eps)*opt-lb": envelope,
            "opt-lb": [lb.max_flow] * len(eps_values),
        },
        notes="expected shape: measured << envelope for every eps",
    )


def weighted_experiment(
    eps_values: Sequence[float] = (0.1, 0.2, 0.3),
    n_jobs: int = 1200,
    m: int = 16,
    qps: float = 1200.0,
    seed: int = 0,
) -> SeriesResult:
    """Theorem 7.1 envelope: BWF at ``(1+3eps)``-speed on weighted jobs.

    Jobs get three priority classes (1/4/16); BWF's max weighted flow is
    compared against the ``(3/eps^2) OPT_w`` envelope and against FIFO
    (which ignores weights) at the same speed.  Expected shape: BWF
    below the envelope everywhere and below FIFO on max *weighted* flow.
    """
    spec = WorkloadSpec(BingDistribution(), qps=qps, n_jobs=n_jobs, m=m)
    jobset = spec.build(seed=derive_seed(seed, 71))
    weights = class_weights(derive_seed(seed, 72), n_jobs)
    jobset = reweight(jobset, weights)

    w_arr = np.asarray(jobset.weights)
    spans = np.asarray(jobset.spans, dtype=np.float64)
    lb_unweighted = opt_lower_bound(jobset, m=m, speed=1.0)
    opt_w_lb = max(
        float((w_arr * spans).max()),
        float(w_arr.min()) * lb_unweighted.max_flow,
    )

    bwf, fifo = BwfScheduler(), FifoScheduler()
    bwf_measured: List[float] = []
    fifo_measured: List[float] = []
    envelope: List[float] = []
    for eps in eps_values:
        speed = bounds.bwf_speed(eps)
        bwf_measured.append(bwf.run(jobset, m=m, speed=speed).max_weighted_flow)
        fifo_measured.append(fifo.run(jobset, m=m, speed=speed).max_weighted_flow)
        envelope.append(bounds.bwf_competitive_ratio(eps) * opt_w_lb)
    return SeriesResult(
        title=(
            f"thm71: BWF (1+3eps)-speed max weighted flow vs Theorem 7.1 "
            f"envelope [bing qps={qps:g} n={n_jobs} m={m}, weights 1/4/16]"
        ),
        x_label="eps",
        x_values=list(eps_values),
        series={
            "bwf-measured": bwf_measured,
            "fifo-measured": fifo_measured,
            "(3/eps^2)*optw-lb": envelope,
        },
        notes=(
            "expected shape: bwf <= fifo on max weighted flow; both far "
            "below the envelope"
        ),
    )


def k_sweep_experiment(
    k_values: Sequence[int] = (0, 1, 4, 16, 64),
    n_jobs: int = 2000,
    m: int = 16,
    qps: float = 1200.0,
    steals_per_tick: int = 64,
    seed: int = 0,
    reps: int = 3,
) -> SeriesResult:
    """Ablation: the steal-k-first knob at high load (Section 4 discussion).

    The paper argues k >= m approximates FIFO ("in expectation m
    consecutive random steal attempts would be able to find the stealable
    work") while k = 0 degenerates to near-sequential job execution at
    load.  Expected shape: max flow decreases from k=0 toward k~m, with
    diminishing or slightly reversing returns beyond.
    """
    x: List[float] = []
    ws: List[float] = []
    opt: List[float] = []
    spec = WorkloadSpec(BingDistribution(), qps=qps, n_jobs=n_jobs, m=m)
    # Every k runs on the same rep instances, so each is built, and its
    # OPT computed, once.
    jobsets = [spec.build(seed=derive_seed(seed, rep)) for rep in range(reps)]
    opt_mean = float(
        np.mean([opt_lower_bound(js, m=m).max_flow for js in jobsets])
    )
    for k in k_values:
        sched = WorkStealingScheduler(k=k, steals_per_tick=steals_per_tick)
        vals = [
            sched.run(jobset, m=m, seed=derive_seed(seed, k, rep)).max_flow
            for rep, jobset in enumerate(jobsets)
        ]
        x.append(float(k))
        ws.append(float(np.mean(vals)))
        opt.append(opt_mean)
    return SeriesResult(
        title=(
            f"abl-k: steal-k-first k sweep [bing qps={qps:g} n={n_jobs} "
            f"m={m} x{reps} reps; times in units]"
        ),
        x_label="k",
        x_values=x,
        series={"steal-k-first": ws, "opt-lb": opt},
        notes="expected shape: improves from k=0, flattens around k ~ m",
    )


def load_sweep_experiment(
    utilizations: Sequence[float] = (0.3, 0.45, 0.6, 0.75, 0.85),
    n_jobs: int = 2000,
    m: int = 16,
    k: int = 16,
    steals_per_tick: int = 64,
    seed: int = 0,
) -> SeriesResult:
    """Ablation: admit-first degradation with load (Figure 2 discussion).

    Sweeps utilization directly (converting to QPS via the mean work) and
    reports the admit-first / steal-k-first max-flow ratio alongside both
    absolute curves.  Expected shape: the ratio grows with load, passing
    ~2x at high utilization as the paper reports.
    """
    dist = BingDistribution()
    x: List[float] = []
    ws_k: List[float] = []
    ws_0: List[float] = []
    opt: List[float] = []
    for util in utilizations:
        qps = util * m / (dist.mean_ms / 1000.0)
        spec = WorkloadSpec(dist, qps=qps, n_jobs=n_jobs, m=m)
        jobset = spec.build(seed=derive_seed(seed, int(util * 100)))
        sk = WorkStealingScheduler(k=k, steals_per_tick=steals_per_tick)
        s0 = WorkStealingScheduler(k=0, steals_per_tick=steals_per_tick)
        x.append(util)
        ws_k.append(sk.run(
            jobset, m=m, seed=derive_seed(seed, 1, int(util * 100))
        ).max_flow)
        ws_0.append(s0.run(
            jobset, m=m, seed=derive_seed(seed, 2, int(util * 100))
        ).max_flow)
        opt.append(opt_lower_bound(jobset, m=m).max_flow)
    ratio = [a / b for a, b in zip(ws_0, ws_k)]
    return SeriesResult(
        title=(
            f"abl-load: utilization sweep [bing n={n_jobs} m={m} k={k}; "
            "times in units]"
        ),
        x_label="util",
        x_values=x,
        series={
            "opt-lb": opt,
            f"steal-{k}-first": ws_k,
            "admit-first": ws_0,
            "admit/steal ratio": ratio,
        },
        notes="expected shape: ratio grows with load, ~2x at high utilization",
    )


def steal_policy_experiment(
    n_jobs: int = 1500,
    m: int = 16,
    qps: float = 1200.0,
    k: int = 16,
    steals_per_tick: int = 64,
    seed: int = 0,
    reps: int = 2,
) -> SeriesResult:
    """Ablation: victim selection x steal amount, beyond the paper.

    The paper analyzes uniform-random single-node steals; runtimes also
    ship round-robin sweeps and steal-half.  This sweep quantifies what
    those knobs buy (or cost) for max flow at high load, alongside the
    successful-steal count (the communication bill).  Expected shape:
    steal-half cuts successful steals several-fold with a modest flow
    effect; the max-deque oracle shows diminishing headroom over
    uniform.
    """
    spec = WorkloadSpec(BingDistribution(), qps=qps, n_jobs=n_jobs, m=m)
    variants = [
        ("uniform", False),
        ("uniform", True),
        ("round-robin", False),
        ("round-robin", True),
        ("max-deque", False),
        ("max-deque", True),
    ]
    x = list(range(len(variants)))
    flows: List[float] = []
    steals: List[float] = []
    names = []
    # One instance per rep, shared by every variant.
    instances = [
        spec.build(seed=derive_seed(seed, rep)) for rep in range(reps)
    ]
    for idx, (policy, half) in enumerate(variants):
        vals, svals = [], []
        for rep, instance in enumerate(instances):
            sched = WorkStealingScheduler(
                k=k,
                steals_per_tick=steals_per_tick,
                victim_policy=policy,
                steal_half=half,
            )
            r = sched.run(instance, m=m, seed=derive_seed(seed, idx, rep))
            vals.append(r.max_flow)
            svals.append(r.stats.steal_attempts - r.stats.failed_steals)
        flows.append(float(np.mean(vals)))
        steals.append(float(np.mean(svals)))
        names.append(policy + ("/half" if half else ""))
    return SeriesResult(
        title=(
            f"abl-steal: victim/amount policy sweep [bing qps={qps:g} "
            f"n={n_jobs} m={m} k={k} x{reps} reps; flow in units]"
        ),
        x_label="variant#",
        x_values=[float(i) for i in x],
        series={"max_flow": flows, "successful_steals": steals},
        notes="variants: " + ", ".join(f"{i}={n}" for i, n in enumerate(names)),
    )


def scheduler_comparison_experiment(
    n_jobs: int = 1200,
    m: int = 16,
    qps: float = 1150.0,
    seed: int = 0,
) -> SeriesResult:
    """Ablation: why FIFO ordering? Every policy family on one instance.

    Contrasts the paper's FIFO-ordered policies (FIFO, steal-16-first)
    with mean-flow-oriented (SRW, LAS), anti-FIFO (LIFO) and null
    (random-priority) policies on max and mean flow.  Expected shape:
    FIFO-ordered policies win max flow by a wide margin; SRW wins mean
    flow while blowing up the max -- the objectives genuinely trade off,
    which is the paper's motivation for studying max flow separately.
    """
    spec = WorkloadSpec(BingDistribution(), qps=qps, n_jobs=n_jobs, m=m)
    jobset = spec.build(seed=derive_seed(seed, 5))
    lineup = [
        OptLowerBound(),
        FifoScheduler(),
        WorkStealingScheduler(k=16, steals_per_tick=64),
        LeastAttainedServiceScheduler(),
        ShortestRemainingWorkScheduler(),
        LifoScheduler(),
        RandomPriorityScheduler(),
    ]
    max_flows: List[float] = []
    mean_flows: List[float] = []
    names = []
    for i, sched in enumerate(lineup):
        r = sched.run(jobset, m=m, seed=derive_seed(seed, 6, i))
        max_flows.append(r.max_flow)
        mean_flows.append(r.mean_flow)
        names.append(sched.name)
    return SeriesResult(
        title=(
            f"abl-sched: policy families on one instance [bing "
            f"qps={qps:g} n={n_jobs} m={m}; times in units]"
        ),
        x_label="policy#",
        x_values=[float(i) for i in range(len(lineup))],
        series={"max_flow": max_flows, "mean_flow": mean_flows},
        notes="policies: " + ", ".join(f"{i}={n}" for i, n in enumerate(names)),
    )


def burstiness_experiment(
    batch_sizes: Sequence[int] = (1, 4, 16, 64),
    n_jobs: int = 1500,
    m: int = 16,
    qps: float = 1000.0,
    seed: int = 0,
) -> SeriesResult:
    """Ablation: arrival burstiness at fixed long-run rate.

    The paper's experiments use Poisson arrivals; real front-ends batch.
    This sweep replaces Poisson with batched arrivals of growing batch
    size (same long-run QPS) and reports every Figure 2 scheduler.
    Expected shape: all schedulers degrade with burstiness (a batch of B
    jobs inflates even OPT's max flow to ~B services), and the
    scheduler ordering of Figure 2 is preserved at every batch size.
    """
    from repro.workloads.arrivals import BurstyProcess
    from repro.workloads.generator import qps_to_rate

    dist = BingDistribution()
    x: List[float] = []
    opt: List[float] = []
    sk: List[float] = []
    af: List[float] = []
    for batch in batch_sizes:
        spec = WorkloadSpec(
            dist,
            qps=qps,
            n_jobs=n_jobs,
            m=m,
            arrival_process=BurstyProcess(qps_to_rate(qps), batch=batch),
        )
        jobset = spec.build(seed=derive_seed(seed, batch))
        x.append(float(batch))
        opt.append(opt_lower_bound(jobset, m=m).max_flow)
        sk.append(
            WorkStealingScheduler(k=16, steals_per_tick=64)
            .run(jobset, m=m, seed=derive_seed(seed, 1, batch))
            .max_flow
        )
        af.append(
            WorkStealingScheduler(k=0, steals_per_tick=64)
            .run(jobset, m=m, seed=derive_seed(seed, 2, batch))
            .max_flow
        )
    return SeriesResult(
        title=(
            f"abl-burst: arrival batch-size sweep [bing qps={qps:g} "
            f"n={n_jobs} m={m}; times in units]"
        ),
        x_label="batch",
        x_values=x,
        series={"opt-lb": opt, "steal-16-first": sk, "admit-first": af},
        notes=(
            "expected shape: all curves grow with burstiness; the "
            "Figure 2 ordering holds at every batch size"
        ),
    )


def grain_experiment(
    target_chunks_values: Sequence[int] = (1, 4, 16, 64, 256),
    n_jobs: int = 1500,
    m: int = 16,
    qps: float = 1150.0,
    seed: int = 0,
) -> SeriesResult:
    """Ablation: parallel-for decomposition granularity.

    ``target_chunks = 1`` makes jobs sequential (no parallelism to
    steal); large values make fine chunks.  Expected shape: steal-first
    improves sharply once jobs expose >= m chunks (it can spread each
    job across the machine), then flattens; OPT is indifferent (it
    assumes full parallelizability regardless).
    """
    dist = BingDistribution()
    x: List[float] = []
    opt: List[float] = []
    sk: List[float] = []
    spans: List[float] = []
    for chunks in target_chunks_values:
        spec = WorkloadSpec(
            dist, qps=qps, n_jobs=n_jobs, m=m, target_chunks=chunks
        )
        jobset = spec.build(seed=derive_seed(seed, chunks))
        x.append(float(chunks))
        opt.append(opt_lower_bound(jobset, m=m).max_flow)
        sk.append(
            WorkStealingScheduler(k=16, steals_per_tick=64)
            .run(jobset, m=m, seed=derive_seed(seed, 3, chunks))
            .max_flow
        )
        spans.append(float(np.mean(jobset.spans)))
    return SeriesResult(
        title=(
            f"abl-grain: parallel-for chunking sweep [bing qps={qps:g} "
            f"n={n_jobs} m={m}; times in units]"
        ),
        x_label="chunks",
        x_values=x,
        series={"opt-lb": opt, "steal-16-first": sk, "mean-span": spans},
        notes=(
            "expected shape: steal-16-first improves as jobs expose "
            "parallelism (mean span falls), flattening past ~m chunks"
        ),
    )


def speedup_contrast_experiment(
    m_values: Sequence[int] = (2, 4, 8, 16, 64),
    n_jobs: int = 400,
    seed: int = 0,
) -> SeriesResult:
    """Extension: DAG model vs speedup-curves model, quantified.

    Section 8 argues the models are fundamentally different; this
    experiment runs FIFO on the *same* instance in both models (the
    speedup version obtained by the natural parallelism-profile
    conversion) across machine sizes, reporting the max-flow ratio
    DAG / converted.  Expected shape: ratio != 1 on narrow machines --
    no faithful mapping exists (the paper's separation claim): the
    conversion is optimistic about integral node placement and
    pessimistic about its phase barriers, and on parallel-for workloads
    the former dominates so the ratio sits above 1 -- converging to 1
    once m reaches the jobs' maximum profile width (where the
    conversion is exact).
    """
    from repro.speedup.convert import jobset_to_speedup
    from repro.speedup.engine import _run_speedup_fifo as run_speedup_fifo

    spec = WorkloadSpec(
        BingDistribution(), qps=700.0, n_jobs=n_jobs, m=16, target_chunks=16
    )
    jobset = spec.build(seed=derive_seed(seed, 8))
    speedup_jobset = jobset_to_speedup(jobset)
    fifo = FifoScheduler()

    x: List[float] = []
    dag_flow: List[float] = []
    sp_flow: List[float] = []
    ratio: List[float] = []
    for m in m_values:
        d = fifo.run(jobset, m=m).max_flow
        s = run_speedup_fifo(speedup_jobset, m=m).max_flow
        x.append(float(m))
        dag_flow.append(d)
        sp_flow.append(s)
        ratio.append(d / s)
    return SeriesResult(
        title=(
            f"ext-speedup: DAG vs converted speedup-curves FIFO "
            f"[bing n={n_jobs}; times in units]"
        ),
        x_label="m",
        x_values=x,
        series={
            "dag-fifo": dag_flow,
            "speedup-fifo": sp_flow,
            "dag/speedup": ratio,
        },
        notes=(
            "expected shape: ratio != 1 on narrow machines (two-sided "
            "divergence; >= 1 on parallel-for), -> 1 once m covers the "
            "profile width"
        ),
    )


def weighted_work_stealing_experiment(
    qps_values: Sequence[float] = (800.0, 1000.0, 1200.0),
    n_jobs: int = 1500,
    m: int = 16,
    k: int = 16,
    seed: int = 0,
) -> SeriesResult:
    """Extension: distributed BWF via weight-ordered admission.

    Combines the paper's Section 4 scheduler with its Section 7
    objective: the global queue admits the heaviest waiting job.
    Reports max weighted flow for centralized BWF (the paper's
    algorithm), weighted-admission work stealing (ours), and
    FIFO-admission work stealing (the unweighted baseline) across load.
    Expected shape: BWF <= weighted-WS <= FIFO-WS at every load.
    """
    from repro.core.work_stealing import WeightedWorkStealingScheduler

    dist = BingDistribution()
    bwf = BwfScheduler()
    x: List[float] = []
    bwf_flow: List[float] = []
    wws_flow: List[float] = []
    fws_flow: List[float] = []
    for qps in qps_values:
        spec = WorkloadSpec(dist, qps=qps, n_jobs=n_jobs, m=m)
        jobset = reweight(
            spec.build(seed=derive_seed(seed, int(qps))),
            class_weights(derive_seed(seed, 91, int(qps)), n_jobs),
        )
        x.append(qps)
        bwf_flow.append(bwf.run(jobset, m=m).max_weighted_flow)
        wws_flow.append(
            WeightedWorkStealingScheduler(k=k)
            .run(jobset, m=m, seed=derive_seed(seed, 1, int(qps)))
            .max_weighted_flow
        )
        fws_flow.append(
            WorkStealingScheduler(k=k, steals_per_tick=64)
            .run(jobset, m=m, seed=derive_seed(seed, 2, int(qps)))
            .max_weighted_flow
        )
    return SeriesResult(
        title=(
            f"ext-wws: weighted admission work stealing [bing n={n_jobs} "
            f"m={m} k={k}, weights 1/4/16; max weighted flow in units]"
        ),
        x_label="QPS",
        x_values=x,
        series={
            "bwf (centralized)": bwf_flow,
            "ws/weight-admission": wws_flow,
            "ws/fifo-admission": fws_flow,
        },
        notes="expected shape: bwf <= weighted-WS <= fifo-WS at every load",
    )


def norm_profile_experiment(
    k_norms: Sequence[float] = (1.0, 2.0, 4.0, 16.0, float("inf")),
    n_jobs: int = 1200,
    m: int = 16,
    qps: float = 1150.0,
    seed: int = 0,
) -> SeriesResult:
    """Extension: the lk-norm objective family (the conclusion's open
    question) across policy families.

    Reports the normalized lk norm of flow time (generalized mean: mean
    flow at k=1, max flow at k=inf) for FIFO, steal-16-first and SRW.
    Expected shape: SRW wins small k, the FIFO-ordered policies win as
    k grows -- the curves *cross*, showing the objectives genuinely
    conflict and motivating max flow as its own target.
    """
    from repro.metrics.norms import normalized_lk_norm_flow

    spec = WorkloadSpec(BingDistribution(), qps=qps, n_jobs=n_jobs, m=m)
    jobset = spec.build(seed=derive_seed(seed, 13))
    runs = {
        "fifo": FifoScheduler().run(jobset, m=m),
        "steal-16-first": WorkStealingScheduler(k=16, steals_per_tick=64).run(
            jobset, m=m, seed=derive_seed(seed, 14)
        ),
        "srw": ShortestRemainingWorkScheduler().run(jobset, m=m),
    }
    series = {
        name: [normalized_lk_norm_flow(r, k) for k in k_norms]
        for name, r in runs.items()
    }
    x = [k if k != float("inf") else 1e9 for k in k_norms]
    return SeriesResult(
        title=(
            f"ext-norms: normalized lk-norms of flow [bing qps={qps:g} "
            f"n={n_jobs} m={m}; k=1e9 column is the max; times in units]"
        ),
        x_label="k",
        x_values=list(x),
        series=series,
        notes=(
            "expected shape: srw lowest at k=1 (mean flow), fifo lowest "
            "at large k (max flow) -- the curves cross"
        ),
    )


def single_job_scaling_experiment(
    m_values: Sequence[int] = (1, 2, 4, 8, 16, 32),
    body_work: int = 4096,
    seed: int = 0,
    reps: int = 3,
) -> SeriesResult:
    """Extension: the classic single-job work-stealing guarantees, measured.

    Section 1 quotes the Blumofe-Leiserson bound the whole paper builds
    on: a single job of work W and span P runs in O(W/m + P) expected
    time under work stealing, with O(mP) expected steal attempts
    (Lemma 4.4's ``32 m P``).  This experiment runs one recursive
    fork-join job through the tick engine in the theoretical cost model
    across machine sizes and reports completion time against W/m + P
    and steal attempts against m*P.  Expected shape: time tracks a
    small constant times W/m + P (near-linear speedup until span
    dominates); steals stay below the Lemma 4.4 constant.
    """
    from repro.dag.builders import parallel_chains
    from repro.dag.job import Job, JobSet

    # A job with genuine structure: 64 chains of uneven length.
    chain_lengths = [2 + (i % 7) for i in range(64)]
    per_chain = max(1, body_work // (64 * 4))
    dag = parallel_chains(chain_lengths, node_work=per_chain)
    W, P = dag.total_work, dag.span

    x: List[float] = []
    time_measured: List[float] = []
    greedy_bound: List[float] = []
    steals_measured: List[float] = []
    lemma44_budget: List[float] = []
    for m in m_values:
        times, steals = [], []
        for rep in range(reps):
            js = JobSet([Job(job_id=0, dag=dag, arrival=0.0)])
            r = WorkStealingScheduler(k=0, steals_per_tick=1).run(
                js, m=m, seed=derive_seed(seed, m, rep)
            )
            times.append(r.completions[0])
            steals.append(r.stats.steal_attempts)
        x.append(float(m))
        time_measured.append(float(np.mean(times)))
        greedy_bound.append(W / m + P)
        steals_measured.append(float(np.mean(steals)))
        lemma44_budget.append(32.0 * m * P)
    return SeriesResult(
        title=(
            f"ext-scaling: single-job work stealing vs O(W/m + P) "
            f"[W={W}, P={P}; theoretical cost model; times in ticks]"
        ),
        x_label="m",
        x_values=x,
        series={
            "measured-time": time_measured,
            "W/m+P": greedy_bound,
            "steal-attempts": steals_measured,
            "32*m*P": lemma44_budget,
        },
        notes=(
            "expected shape: measured-time within a small constant of "
            "W/m+P at every m; steal-attempts below the Lemma 4.4 budget"
        ),
    )


def makespan_experiment(
    m_values: Sequence[int] = (4, 8, 16, 32),
    n_jobs: int = 200,
    seed: int = 0,
) -> SeriesResult:
    """Extension: the makespan special case (paper footnote 1).

    When every job arrives at time 0, max flow time *is* the makespan.
    This experiment drops a batch of Bing-shaped jobs at t=0 and
    compares FIFO and steal-16-first makespans against two anchors: the
    trivial lower bound ``max(W_total/m, max_i P_i)`` and Graham's
    greedy upper bound applied to the batch as one merged computation
    (``W_total/m + (m-1)/m * max_i P_i`` -- valid because FIFO never
    idles a processor while any ready node exists).  Expected shape:
    both schedulers land between the anchors at every m, hugging the
    lower bound while work dominates.
    """
    from repro.theory.bounds import graham_makespan_bound

    dist = BingDistribution()
    works = dist.sample_units(derive_seed(seed, 17), n_jobs, units_per_ms=4.0)
    jobset = to_jobset(_parallel_for_flat(
        works, np.zeros(n_jobs), target_chunks=32, setup_units=1,
        finalize_units=1,
    ))
    total_w = jobset.total_work
    max_p = jobset.max_span

    x: List[float] = []
    fifo_ms: List[float] = []
    ws_ms: List[float] = []
    lower: List[float] = []
    graham: List[float] = []
    for m in m_values:
        x.append(float(m))
        fifo_ms.append(FifoScheduler().run(jobset, m=m).makespan)
        ws_ms.append(
            WorkStealingScheduler(k=16, steals_per_tick=64)
            .run(jobset, m=m, seed=derive_seed(seed, 18, m))
            .makespan
        )
        lower.append(max(total_w / m, float(max_p)))
        graham.append(graham_makespan_bound(total_w, max_p, m))
    return SeriesResult(
        title=(
            f"ext-makespan: batch scheduling [bing n={n_jobs}, all arrive "
            f"at t=0; makespan in units]"
        ),
        x_label="m",
        x_values=x,
        series={
            "lower-bound": lower,
            "fifo": fifo_ms,
            "steal-16-first": ws_ms,
            "graham-bound": graham,
        },
        notes=(
            "expected shape: lower <= fifo <= graham at every m; work "
            "stealing tracks fifo up to steal overhead"
        ),
    )


def overheads_experiment(
    qps_values: Sequence[float] = (800.0, 1000.0, 1200.0),
    n_jobs: int = 600,
    m: int = 16,
    seed: int = 0,
) -> SeriesResult:
    """Extension: the implementation-cost motivation, quantified (Sec 1).

    The paper argues ideal FIFO is impractical ("potentially preempts
    jobs and re-allocates processors at every time step") and work
    stealing practical ("most of the time, workers work off their own
    queues").  This experiment traces both on the same workloads and
    counts what each would pay on real hardware: FIFO's preemptions and
    cross-processor migrations (it pays zero steals) against work
    stealing's steal attempts (it pays zero preemptions -- stolen nodes
    are ready, never in-progress, so the trace-derived preemption count
    is structurally 0, which the bench asserts).  All counts are
    per-job averages.  Expected shape: FIFO's migration bill grows with
    load while its steal bill is zero; work stealing is the mirror
    image.
    """
    from repro.metrics.overheads import migration_count, preemption_count
    from repro.sim.trace import TraceRecorder

    dist = BingDistribution()
    x: List[float] = []
    fifo_preempt: List[float] = []
    fifo_migrate: List[float] = []
    ws_steals: List[float] = []
    ws_preempt: List[float] = []
    for qps in qps_values:
        spec = WorkloadSpec(dist, qps=qps, n_jobs=n_jobs, m=m)
        jobset = spec.build(seed=derive_seed(seed, int(qps), 77))

        tr_f = TraceRecorder()
        FifoScheduler().run(jobset, m=m, trace=tr_f)
        tr_w = TraceRecorder()
        r_w = WorkStealingScheduler(k=16, steals_per_tick=64).run(
            jobset, m=m, seed=derive_seed(seed, int(qps), 78), trace=tr_w
        )

        x.append(qps)
        fifo_preempt.append(preemption_count(tr_f) / n_jobs)
        fifo_migrate.append(migration_count(tr_f) / n_jobs)
        ws_steals.append(r_w.stats.steal_attempts / n_jobs)
        ws_preempt.append(preemption_count(tr_w) / n_jobs)
    return SeriesResult(
        title=(
            f"ext-overheads: implementation costs per job [bing n={n_jobs} "
            f"m={m}]"
        ),
        x_label="QPS",
        x_values=x,
        series={
            "fifo-preemptions": fifo_preempt,
            "fifo-migrations": fifo_migrate,
            "ws-steal-attempts": ws_steals,
            "ws-preemptions": ws_preempt,
        },
        notes=(
            "expected shape: ws-preemptions identically 0; FIFO's "
            "preemption/migration bill grows with load"
        ),
    )
