"""The canonical-mean memo: one calibration per shape per process.

A distribution's ``mean_ms`` only rescales its canonical shape, so the
200,000-draw calibration of the canonical mean is shared by every
distribution of the same class and shape parameters
(:data:`repro.workloads.distributions._CANONICAL_MEANS`).  The memoized
scale must be bit-identical to a fresh calibration, instances that
differ only in ``mean_ms`` must share one entry, and different shapes
must never share one.
"""

import pytest

from repro.experiments.config import ExperimentScale, FIG2A
from repro.experiments.runner import run_figure2_cell
from repro.sim.rng import make_rng
from repro.workloads import distributions as dist_mod
from repro.workloads.distributions import (
    BingDistribution,
    BoundedParetoDistribution,
    ConstantDistribution,
    ExponentialDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    MixtureDistribution,
    UniformDistribution,
    WorkDistribution,
)


def fresh_scale(dist: WorkDistribution) -> float:
    """The calibration as computed before the memo, on every call."""
    rng = make_rng(dist_mod._CALIBRATION_SEED)
    canonical = dist._sample_canonical(rng, dist_mod._CALIBRATION_SAMPLES)
    return dist.mean_ms / float(canonical.mean())


SHAPES = {
    "bing": lambda mean: BingDistribution(mean),
    "finance": lambda mean: FinanceDistribution(mean),
    "lognormal": lambda mean: LogNormalDistribution(mean),
    "lognormal-0.5-8": lambda mean: LogNormalDistribution(
        mean, sigma=0.5, clip=8.0
    ),
    "lognormal-1.8-100": lambda mean: LogNormalDistribution(
        mean, sigma=1.8, clip=100.0
    ),
    "uniform": lambda mean: UniformDistribution(mean),
    "constant": lambda mean: ConstantDistribution(mean),
    "exponential": lambda mean: ExponentialDistribution(mean),
    "bounded-pareto": lambda mean: BoundedParetoDistribution(mean),
    "mixture": lambda mean: MixtureDistribution(
        [(0.9, BingDistribution(2.0)), (0.1, LogNormalDistribution(40.0))],
        mean_ms=mean,
    ),
}


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for the test, plus a count of calibrations."""
    table = {}
    monkeypatch.setattr(dist_mod, "_CANONICAL_MEANS", table)
    calls = []
    real = WorkDistribution._canonical_mean

    def counting(self):
        if (type(self), self._shape_token()) not in table:
            calls.append(self._shape_token())
        return real(self)

    monkeypatch.setattr(WorkDistribution, "_canonical_mean", counting)
    return table, calls


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_memoized_scale_is_bit_identical(memo, shape):
    make = SHAPES[shape]
    first = make(10.0)
    assert first._ensure_scale() == fresh_scale(make(10.0))
    # Served from the memo: another mean, same shape.
    second = make(3.7)
    assert second._ensure_scale() == fresh_scale(make(3.7))
    table, _ = memo
    assert (type(second), second._shape_token()) in table


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_means_share_one_entry(memo, shape):
    table, calls = memo
    for mean in (1.0, 2.5, 10.0, 250.0):
        SHAPES[shape](mean).sample_units(0, 10)
    # A mixture also calibrates its (fixed) components once each.
    outer = [key for key in table if key[0] is type(SHAPES[shape](1.0))]
    assert len(outer) == 1
    assert len(calls) == len(table)


def test_shapes_never_collide(memo):
    table, _ = memo
    dists = [make(10.0) for make in SHAPES.values()]
    dists += [
        UniformDistribution(10.0, low=0.2, high=1.8),  # same canonical mean
        LogNormalDistribution(10.0, sigma=1.0, clip=51.0),
        MixtureDistribution(
            [(0.9, BingDistribution(3.0)), (0.1, LogNormalDistribution(40.0))]
        ),
    ]
    for d in dists:
        d._ensure_scale()
    keys = {(type(d), d._shape_token()) for d in dists}
    assert len(keys) == len(dists)
    for d in dists:
        assert d._ensure_scale() == fresh_scale(d)


def test_token_is_unchanged_by_calibration():
    dist = LogNormalDistribution(10.0, sigma=1.5, clip=20.0)
    before = dist.token()
    dist._ensure_scale()
    assert dist.token() == before
    assert dist._shape_token() == "LogNormalDistribution(clip=20.0,sigma=1.5)"


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (BingDistribution, {}),
        (FinanceDistribution, {}),
        (LogNormalDistribution, {"sigma": 1.2, "clip": 30.0}),
    ],
)
def test_natural_mean_is_unchanged(memo, cls, kwargs):
    probe = cls(mean_ms=1.0, **kwargs)
    rng = make_rng(dist_mod._CALIBRATION_SEED)
    expected = float(
        probe._sample_canonical(rng, dist_mod._CALIBRATION_SAMPLES).mean()
    )
    assert cls.natural(**kwargs).mean_ms == expected
    assert cls.natural(**kwargs).mean_ms == expected  # from the memo
    _, calls = memo
    assert len(calls) == 1


def test_figure2_cell_calibrates_once(memo):
    _, calls = memo
    scale = ExperimentScale(n_jobs=30, reps=3)
    for qps in FIG2A.qps_values:
        run_figure2_cell(FIG2A, qps, scale, seed=1)
    assert calls == [BingDistribution(1.0)._shape_token()]
