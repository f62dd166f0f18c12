"""Property test: the compiled P^2 sketches are the Python sketches, bit for bit.

:meth:`~repro.metrics.online.OnlineFlowStats.observe_many` feeds every
sketch past its exact phase (the first five observations) through the
compiled kernel's ``repro_p2_update``; :meth:`~repro.metrics.online.
OnlineFlowStats.observe` runs :meth:`~repro.metrics.online.P2Quantile.
update`, the oracle.  For drawn flows -- ties, zeros, runs of equal
values, monotone runs, lognormal tails up to sigma 3 -- drawn quantile
sets (the extreme 0.001 and 0.999 included) and drawn batch splits
(empty batches, splits on both sides of the fifth observation) the two
must leave ``state_dict()``s that compare with ``==``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics.online import OnlineFlowStats, P2Quantile
from repro.sim._cext import resolve_p2_kernel

QUANTILES = st.lists(
    st.one_of(
        st.sampled_from([0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999]),
        st.floats(0.0005, 0.9995),
    ),
    min_size=1,
    max_size=5,
    unique=True,
)


@st.composite
def flows(draw):
    """A flow sequence of one drawn shape, 0 to 400 values."""
    kind = draw(st.sampled_from(["small", "runs", "monotone", "lognormal"]))
    if kind == "small":
        # A handful of values, zero included: ties everywhere.
        values = draw(st.lists(
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0]), max_size=400,
        ))
    elif kind == "runs":
        runs = draw(st.lists(
            st.tuples(st.floats(0.0, 100.0), st.integers(1, 40)),
            max_size=20,
        ))
        values = [value for value, length in runs for _ in range(length)]
    elif kind == "monotone":
        values = sorted(draw(st.lists(st.floats(0.0, 1e4), max_size=400)))
        if draw(st.booleans()):
            values.reverse()
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        sigma = draw(st.floats(0.0, 3.0))
        size = draw(st.integers(0, 400))
        values = rng.lognormal(1.0, sigma, size=size).tolist()
    return np.asarray(values, dtype=np.float64)


@st.composite
def splits(draw, n):
    """Batch boundaries in [0, n]: repeats make empty batches, and the
    sampled cuts near 5 fall on both sides of the exact phase."""
    cuts = draw(st.lists(
        st.one_of(st.integers(0, n), st.integers(0, min(n, 8))),
        max_size=6,
    ))
    return [0, *sorted(cuts), n]


def test_kernel_is_actually_loaded_here():
    """The property is vacuous if both sides run the Python update."""
    assert resolve_p2_kernel() is not None


@given(st.data(), flows(), QUANTILES)
@settings(max_examples=300, deadline=None)
def test_observe_many_is_the_per_element_loop(data, values, quantiles):
    n = len(values)
    completions = np.arange(n, dtype=np.float64)
    ids = np.arange(n, dtype=np.int64)
    loop = OnlineFlowStats(quantiles)
    for j in range(n):
        loop.observe(float(values[j]), float(completions[j]), j)
    batched = OnlineFlowStats(quantiles)
    bounds = data.draw(splits(n))
    for lo, hi in zip(bounds, bounds[1:]):
        batched.observe_many(values[lo:hi], completions[lo:hi], ids[lo:hi])
    assert batched.state_dict()["sketches"] == loop.state_dict()["sketches"]
    if n:  # with no observation, argmax_completion is nan on both sides
        assert batched.state_dict() == loop.state_dict()


def test_python_update_runs_only_the_exact_phase(monkeypatch):
    """With the kernel loaded, each sketch's first five observations go
    through P2Quantile.update and the steady state does not."""
    calls = []
    update = P2Quantile.update
    monkeypatch.setattr(
        P2Quantile, "update",
        lambda self, x: (calls.append(self.q), update(self, x)),
    )
    stats = OnlineFlowStats((0.5, 0.9, 0.99))
    values = np.linspace(0.0, 50.0, 1000)
    stats.observe_many(values[:3], values[:3], np.arange(3))
    stats.observe_many(values[3:], values[3:], np.arange(3, 1000))
    assert sorted(calls) == sorted([0.5, 0.9, 0.99] * 5)
    assert all(s.count == 1000 for s in stats.sketches.values())
