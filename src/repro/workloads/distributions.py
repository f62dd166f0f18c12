"""Per-job total-work distributions.

The paper evaluates on work distributions measured from two production
services -- Bing web search (Figure 3a, from Kim et al., WSDM '15) and an
option-pricing finance server (Figure 3b, from Ren et al., ICAC '13) --
plus a synthetic log-normal distribution.  The raw traces are not public,
so this module provides synthetic distributions fitted to the *published
histograms* (the only way the traces enter the experiments; see the
substitution table in DESIGN.md):

* :class:`BingDistribution` -- unimodal with a sharp peak at small work
  and a long tail: the bulk of requests cost 15-55 ms with a tail out to
  ~205 ms in the published histogram.
* :class:`FinanceDistribution` -- bimodal on a short support (4-56 ms in
  the published histogram) with a dominant low mode and a secondary high
  mode.
* :class:`LogNormalDistribution` -- the classic heavy-tailed service-time
  model the paper uses as its synthetic workload.

Scaling convention
------------------
Each distribution has a canonical *shape*; the ``mean_ms`` constructor
argument rescales it multiplicatively so that its mean is exactly that
many milliseconds.  This separates shape (what Figure 3 shows) from load
calibration (Section 6 picks QPS for ~50/60/70% utilization; utilization
= QPS x mean work / m, so pinning the mean makes the paper's QPS labels
land on the paper's utilizations -- see :mod:`repro.workloads.generator`).

Samples are returned either in milliseconds (floats, for histograms) or
in integer *work units* via ``units_per_ms`` (for building DAGs).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

from repro.sim.rng import SeedLike, make_rng

#: Sample count used to calibrate canonical means, and the fixed seed for
#: it.  Calibration is deterministic and happens once per shape per
#: process (:data:`_CANONICAL_MEANS`).
_CALIBRATION_SAMPLES = 200_000
_CALIBRATION_SEED = 0xC0FFEE

#: Process-wide memo of canonical means, keyed by (class, shape token):
#: the canonical shape does not depend on ``mean_ms``, so distributions
#: that differ only in their mean share one calibration.
_CANONICAL_MEANS: Dict[Tuple[type, str], float] = {}


class WorkDistribution(ABC):
    """A distribution over per-job total work.

    Subclasses implement :meth:`_sample_canonical`, the unscaled shape;
    the base class handles mean calibration and unit conversion.
    """

    def __init__(self, mean_ms: float) -> None:
        if mean_ms <= 0:
            raise ValueError(f"mean_ms must be positive, got {mean_ms}")
        self.mean_ms = float(mean_ms)
        self._scale: float | None = None  # lazily calibrated

    # -- to be provided by subclasses -----------------------------------

    @abstractmethod
    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples of the canonical (unscaled) shape, > 0."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in reports (``"bing"`` etc.)."""

    def token(self) -> str:
        """Canonical parameter string for the instance-cache spec hash.

        Excludes underscore-prefixed attributes (lazily computed caches
        such as the calibration ``_scale``), which are derived state, not
        identity: two distributions with equal tokens sample identically
        from identical seeds.
        """
        return self._params_token(skip=())

    def _params_token(self, skip: "Tuple[str, ...]") -> str:
        params = ",".join(
            f"{k}={v!r}"
            for k, v in sorted(vars(self).items())
            if not k.startswith("_") and k not in skip
        )
        return f"{type(self).__name__}({params})"

    def _shape_token(self) -> str:
        """:meth:`token` without ``mean_ms``: what the canonical shape
        depends on, hence the calibration memo's key."""
        return self._params_token(skip=("mean_ms",))

    # -- calibration ------------------------------------------------------

    def _canonical_mean(self) -> float:
        """Mean of the canonical shape, calibrated once per shape per
        process (:data:`_CANONICAL_MEANS`)."""
        key = (type(self), self._shape_token())
        mean = _CANONICAL_MEANS.get(key)
        if mean is None:
            rng = make_rng(_CALIBRATION_SEED)
            mean = float(
                self._sample_canonical(rng, _CALIBRATION_SAMPLES).mean()
            )
            _CANONICAL_MEANS[key] = mean
        return mean

    def _ensure_scale(self) -> float:
        """Multiplier taking the canonical mean to ``mean_ms`` (cached)."""
        if self._scale is None:
            canonical_mean = self._canonical_mean()
            if canonical_mean <= 0:
                raise RuntimeError(
                    f"{self.name}: canonical samples have non-positive mean"
                )
            self._scale = self.mean_ms / canonical_mean
        return self._scale

    @classmethod
    def natural(cls, **kwargs) -> "WorkDistribution":
        """Instance at its canonical scale (``mean_ms`` = canonical mean).

        Figure 3 of the paper plots the *raw* measured distributions
        (Bing's support runs 5-205 ms); the experiments then operate on
        load-calibrated rescalings.  ``natural()`` gives the un-rescaled
        shape, so histogram axes match the published figure.
        """
        canonical_mean = cls(mean_ms=1.0, **kwargs)._canonical_mean()
        return cls(mean_ms=canonical_mean, **kwargs)

    # -- public sampling API ----------------------------------------------

    def sample_ms(self, rng: SeedLike, size: int) -> np.ndarray:
        """Draw ``size`` job works in milliseconds (float array, > 0)."""
        if size < 0:
            raise ValueError(f"cannot draw {size} samples")
        rng = make_rng(rng)
        return self._sample_canonical(rng, size) * self._ensure_scale()

    def sample_units(
        self, rng: SeedLike, size: int, units_per_ms: float = 4.0
    ) -> np.ndarray:
        """Draw ``size`` job works as integer work units (>= 1 each).

        ``units_per_ms`` sets the simulation resolution: with the default
        4 units/ms one work unit is 0.25 ms of the paper's machine.
        Works are rounded to the nearest unit and clamped to >= 1.
        """
        if units_per_ms <= 0:
            raise ValueError(f"units_per_ms must be positive, got {units_per_ms}")
        ms = self.sample_ms(rng, size)
        return np.maximum(1, np.rint(ms * units_per_ms)).astype(np.int64)

    def histogram(
        self,
        rng: SeedLike,
        size: int = 100_000,
        bin_width_ms: float = 8.0,
        max_ms: float | None = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Empirical (bin_edges_ms, probabilities) -- the Figure 3 view.

        Probabilities sum to 1 over the covered range; used by the fig3
        bench to print the distribution the way the paper plots it.
        """
        ms = self.sample_ms(rng, size)
        top = float(ms.max()) if max_ms is None else max_ms
        edges = np.arange(0.0, top + bin_width_ms, bin_width_ms)
        counts, edges = np.histogram(ms, bins=edges)
        return edges, counts / counts.sum()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(mean_ms={self.mean_ms})"


class BingDistribution(WorkDistribution):
    """Synthetic stand-in for the Bing web-search work distribution.

    Figure 3(a) of the paper shows a unimodal histogram: over half the
    probability mass in the first bins (roughly 15-55 ms), decaying into
    a long tail that stretches to ~205 ms.  We model this as a mixture of
    a log-normal body (87.5%) and a uniform long tail (12.5%), truncated
    to the published support, then rescale to ``mean_ms``.

    The canonical support is [5, 205] (the histogram's x-range); after
    rescaling the support scales accordingly.
    """

    #: Mixture and body parameters of the canonical shape.
    BODY_FRACTION = 0.875
    BODY_MEDIAN = 30.0
    BODY_SIGMA = 0.40
    TAIL_LOW, TAIL_HIGH = 55.0, 205.0
    SUPPORT_LOW, SUPPORT_HIGH = 5.0, 205.0

    def __init__(self, mean_ms: float = 10.0) -> None:
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        return "bing"

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        body = rng.lognormal(
            mean=np.log(self.BODY_MEDIAN), sigma=self.BODY_SIGMA, size=size
        )
        tail = rng.uniform(self.TAIL_LOW, self.TAIL_HIGH, size=size)
        take_body = rng.random(size) < self.BODY_FRACTION
        out = np.where(take_body, body, tail)
        return np.clip(out, self.SUPPORT_LOW, self.SUPPORT_HIGH)


class FinanceDistribution(WorkDistribution):
    """Synthetic stand-in for the option-pricing finance server distribution.

    Figure 3(b) of the paper shows a bimodal histogram on a short support
    (4-56 ms): a dominant mode near 12 ms and a secondary mode near
    36 ms.  We model it as a two-component truncated normal mixture.
    """

    LOW_WEIGHT = 0.62
    LOW_MODE, LOW_STD = 12.0, 3.5
    HIGH_MODE, HIGH_STD = 36.0, 6.0
    SUPPORT_LOW, SUPPORT_HIGH = 4.0, 56.0

    def __init__(self, mean_ms: float = 10.0) -> None:
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        return "finance"

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        low = rng.normal(self.LOW_MODE, self.LOW_STD, size=size)
        high = rng.normal(self.HIGH_MODE, self.HIGH_STD, size=size)
        take_low = rng.random(size) < self.LOW_WEIGHT
        out = np.where(take_low, low, high)
        return np.clip(out, self.SUPPORT_LOW, self.SUPPORT_HIGH)


class LogNormalDistribution(WorkDistribution):
    """The paper's synthetic log-normal workload (Figure 2c).

    The paper does not state the shape parameter; ``sigma = 1.0`` gives a
    pronounced heavy tail (95th percentile about 5x the median), a common
    choice for service-time modeling.  The canonical median is 1.0 and the
    distribution is truncated at ``clip_quantile_value`` times the median
    to keep single pathological jobs from dominating an entire run.
    """

    def __init__(
        self, mean_ms: float = 10.0, sigma: float = 1.0, clip: float = 50.0
    ) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if clip <= 1:
            raise ValueError(f"clip must exceed the canonical median 1, got {clip}")
        self.sigma = float(sigma)
        self.clip = float(clip)
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        return "lognormal"

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = rng.lognormal(mean=0.0, sigma=self.sigma, size=size)
        return np.minimum(out, self.clip)


class UniformDistribution(WorkDistribution):
    """Uniform work on ``[low, high]`` (canonical), rescaled to ``mean_ms``."""

    def __init__(self, mean_ms: float = 10.0, low: float = 0.5, high: float = 1.5):
        if not 0 < low <= high:
            raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
        self.low, self.high = float(low), float(high)
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        return "uniform"

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)


class ConstantDistribution(WorkDistribution):
    """Degenerate distribution: every job costs exactly ``mean_ms``.

    The sharpest tool for engine tests -- with deterministic works, flow
    times are exactly predictable.
    """

    def __init__(self, mean_ms: float = 10.0) -> None:
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        return "constant"

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        del rng
        return np.ones(size)


class ExponentialDistribution(WorkDistribution):
    """Exponential work -- the M/M-style reference point for queueing tests."""

    def __init__(self, mean_ms: float = 10.0) -> None:
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        return "exponential"

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0, size=size)


class BoundedParetoDistribution(WorkDistribution):
    """Bounded Pareto work -- the extreme-heavy-tail stress distribution.

    Useful for probing the DAG-model difficulty the paper highlights in
    Section 2: single jobs whose work is a large multiple of the mean
    (up to ``high/low`` times) while remaining integrable.
    """

    def __init__(
        self,
        mean_ms: float = 10.0,
        alpha: float = 1.3,
        low: float = 1.0,
        high: float = 1000.0,
    ) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0 < low < high:
            raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
        self.alpha, self.low, self.high = float(alpha), float(low), float(high)
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        return "bounded-pareto"

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Inverse-CDF sampling of the bounded Pareto on [low, high]:
        # F(x) = (1 - (low/x)^alpha) / (1 - (low/high)^alpha), so
        # x = low / (1 - u * (1 - (low/high)^alpha))^(1/alpha).
        u = rng.random(size)
        ratio_term = 1.0 - (self.low / self.high) ** self.alpha
        return self.low / (1.0 - u * ratio_term) ** (1.0 / self.alpha)


class MixtureDistribution(WorkDistribution):
    """A weighted mixture of other work distributions.

    Models multi-tenant services (e.g. 90% cheap cache hits + 10%
    expensive recomputations) without hand-fitting a new shape.  The
    components are sampled at *their own* configured means, then the
    mixture as a whole is rescaled to this instance's ``mean_ms`` -- so
    the components' means express their *relative* sizes.

    Parameters
    ----------
    components:
        ``(probability, distribution)`` pairs; probabilities must be
        positive and sum to 1 (within 1e-9).
    """

    def __init__(
        self,
        components: "list[tuple[float, WorkDistribution]]",
        mean_ms: float = 10.0,
    ) -> None:
        if not components:
            raise ValueError("a mixture needs at least one component")
        probs = np.array([p for p, _ in components], dtype=np.float64)
        if np.any(probs <= 0):
            raise ValueError("component probabilities must be positive")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(
                f"component probabilities must sum to 1, got {probs.sum()}"
            )
        self.components = list(components)
        self._probs = probs
        super().__init__(mean_ms)

    @property
    def name(self) -> str:
        inner = "+".join(d.name for _, d in self.components)
        return f"mixture({inner})"

    def token(self) -> str:
        return (
            f"{type(self).__name__}(mean_ms={self.mean_ms!r},"
            f"components=[{self._components_token()}])"
        )

    def _shape_token(self) -> str:
        return f"{type(self).__name__}(components=[{self._components_token()}])"

    def _components_token(self) -> str:
        return ",".join(f"({p!r},{d.token()})" for p, d in self.components)

    def _sample_canonical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        choices = rng.choice(len(self.components), size=size, p=self._probs)
        out = np.empty(size, dtype=np.float64)
        for i, (_, dist) in enumerate(self.components):
            mask = choices == i
            n = int(mask.sum())
            if n:
                # Components sample through their own public API so their
                # configured means set the relative scales.
                out[mask] = dist.sample_ms(rng, n)
        return out
