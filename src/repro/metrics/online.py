"""Online (single-pass, bounded-memory) metric accumulators.

The streaming engine (:mod:`repro.sim.stream_engine`) retires jobs as
they complete and frees their arrays, so nothing can be computed from
"all flows" after the fact.  These accumulators observe each completion
exactly once and keep O(1) state:

* :class:`OnlineMax` -- running maximum with argmax; **exact**, so the
  streaming max flow time is bit-identical to the offline
  ``ScheduleResult.max_flow`` (the paper's objective survives streaming
  unweakened).
* :class:`P2Quantile` -- the Jain & Chlamtac P^2 algorithm
  (CACM 1985): five markers track one quantile with parabolic
  interpolation.  An *estimate*, typically within a few percent of the
  exact empirical quantile for unimodal flow distributions; the
  documented tolerance is asserted by ``tests/metrics/test_online.py``.
* :class:`OnlineFlowStats` -- the bundle the engine threads through the
  hot loop: exact max/count/mean (running sum) plus one P^2 sketch per
  requested quantile.
* :class:`WindowedUtilization` -- busy-fraction time series over fixed
  tick windows, implementing the :class:`~repro.sim.sampling.
  SystemSampler` recording protocol (``maybe_record`` /
  ``record_boundary``).  Between consecutive sampler calls the busy
  count is constant (the engine samples every general tick and brackets
  fast-forwards with boundary snapshots), so step-hold integration is
  exact, not an approximation.

Every accumulator round-trips through ``state_dict()`` /
``load_state()`` with plain JSON-serializable values, which is how
streaming checkpoints persist them (docs/STREAMING.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class OnlineMax:
    """Exact running maximum with the argmax key that achieved it."""

    __slots__ = ("value", "argmax", "count")

    def __init__(self) -> None:
        self.value: float = float("-inf")
        self.argmax: Optional[int] = None
        self.count: int = 0

    def update(self, value: float, key: Optional[int] = None) -> None:
        self.count += 1
        if value > self.value:
            self.value = value
            self.argmax = key

    def state_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "argmax": self.argmax,
            "count": self.count,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.value = float(state["value"])
        self.argmax = None if state["argmax"] is None else int(state["argmax"])  # type: ignore[arg-type]
        self.count = int(state["count"])


class P2Quantile:
    """P^2 single-quantile sketch (Jain & Chlamtac, CACM 1985).

    Five markers (min, two intermediates, the target quantile, max)
    drift toward their desired positions by parabolic (falling back to
    linear) height adjustment.  O(1) memory and O(1) per observation;
    the first five observations are stored exactly.
    """

    __slots__ = ("q", "count", "_heights", "_pos", "_desired", "_inc")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self.count = 0
        self._heights: List[float] = []
        self._pos: List[float] = []
        self._desired: List[float] = []
        self._inc: Tuple[float, ...] = (
            0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0
        )

    def update(self, x: float) -> None:
        x = float(x)
        self.count += 1
        h = self._heights
        if self.count <= 5:
            # Exact phase: insert sorted.
            lo = 0
            while lo < len(h) and h[lo] <= x:
                lo += 1
            h.insert(lo, x)
            if self.count == 5:
                q = self.q
                self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
                ]
            return

        # Steady state.  This method runs once per sketch per completed
        # job in streaming runs, so the marker bookkeeping is unrolled
        # and the parabolic/linear formulas are inlined (a helper call
        # per adjustment would double the cost of the common case).
        pos = self._pos
        # Locate the cell containing x (extending extremes as needed).
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        if k == 0:
            pos[1] += 1.0
            pos[2] += 1.0
        elif k == 1:
            pos[2] += 1.0
        if k <= 2:
            pos[3] += 1.0
        pos[4] += 1.0
        desired = self._desired
        inc = self._inc
        desired[1] += inc[1]
        desired[2] += inc[2]
        desired[3] += inc[3]
        desired[4] += 1.0

        # Adjust the three interior markers toward their desired spots
        # (P^2 parabolic prediction, linear fallback when it would
        # leave the bracketing heights).
        for i in (1, 2, 3):
            ni = pos[i]
            d = desired[i] - ni
            if d >= 1.0:
                nr = pos[i + 1]
                if nr - ni > 1.0:
                    nl = pos[i - 1]
                    hi = h[i]
                    hr = h[i + 1]
                    hl = h[i - 1]
                    cand = hi + (
                        (ni - nl + 1.0) * (hr - hi) / (nr - ni)
                        + (nr - ni - 1.0) * (hi - hl) / (ni - nl)
                    ) / (nr - nl)
                    h[i] = (
                        cand
                        if hl < cand < hr
                        else hi + (hr - hi) / (nr - ni)
                    )
                    pos[i] = ni + 1.0
            elif d <= -1.0:
                nl = pos[i - 1]
                if nl - ni < -1.0:
                    nr = pos[i + 1]
                    hi = h[i]
                    hr = h[i + 1]
                    hl = h[i - 1]
                    cand = hi - (
                        (ni - nl - 1.0) * (hr - hi) / (nr - ni)
                        + (nr - ni + 1.0) * (hi - hl) / (ni - nl)
                    ) / (nr - nl)
                    h[i] = (
                        cand
                        if hl < cand < hr
                        else hi - (hl - hi) / (nl - ni)
                    )
                    pos[i] = ni - 1.0

    def value(self) -> float:
        """Current quantile estimate (nan before any observation)."""
        h = self._heights
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            # Exact linear-interpolated quantile of the stored sample.
            rank = self.q * (len(h) - 1)
            lo = int(rank)
            frac = rank - lo
            if lo + 1 >= len(h):
                return h[-1]
            return h[lo] + frac * (h[lo + 1] - h[lo])
        return h[2]

    def state_dict(self) -> Dict[str, object]:
        return {
            "q": self.q,
            "count": self.count,
            "heights": list(self._heights),
            "pos": list(self._pos),
            "desired": list(self._desired),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        if float(state["q"]) != self.q:  # type: ignore[arg-type]
            raise ValueError(
                f"checkpoint sketch tracks q={state['q']}, "
                f"this sketch tracks q={self.q}"
            )
        self.count = int(state["count"])  # type: ignore[arg-type]
        self._heights = [float(v) for v in state["heights"]]  # type: ignore[union-attr]
        self._pos = [float(v) for v in state["pos"]]  # type: ignore[union-attr]
        self._desired = [float(v) for v in state["desired"]]  # type: ignore[union-attr]


class OnlineFlowStats:
    """Per-completion flow-time accumulator bundle for streaming runs.

    Tracks the exact running max flow (with the achieving job id and its
    completion time), exact count/sum (mean), the exact last completion
    time (makespan end), and one :class:`P2Quantile` sketch per entry of
    ``quantiles``.
    """

    __slots__ = (
        "max_flow", "argmax_job", "argmax_completion",
        "count", "flow_sum", "last_completion", "sketches",
    )

    def __init__(self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)) -> None:
        self.max_flow: float = float("-inf")
        self.argmax_job: Optional[int] = None
        self.argmax_completion: float = float("nan")
        self.count: int = 0
        self.flow_sum: float = 0.0
        self.last_completion: float = float("-inf")
        self.sketches: Dict[float, P2Quantile] = {
            float(q): P2Quantile(q) for q in quantiles
        }

    def observe(self, flow: float, completion: float, job_id: int) -> None:
        """Record one job completion (called once per job, in any order)."""
        self.count += 1
        self.flow_sum += flow
        if flow > self.max_flow:
            self.max_flow = flow
            self.argmax_job = job_id
            self.argmax_completion = completion
        if completion > self.last_completion:
            self.last_completion = completion
        for sketch in self.sketches.values():
            sketch.update(flow)

    def observe_many(
        self,
        flows: np.ndarray,
        completions: np.ndarray,
        job_ids: np.ndarray,
    ) -> None:
        """Record a batch of completions, in order, as :meth:`observe` would.

        The result is bit-identical to calling :meth:`observe` once per
        element: the sum is accumulated sequentially (not pairwise), the
        argmax is the first strict maximum, and every sketch sees the
        flows in order.
        """
        if not len(flows):
            return
        self.count += len(flows)
        self.flow_sum = float(
            np.add.accumulate(np.concatenate(([self.flow_sum], flows)))[-1]
        )
        top = int(np.argmax(flows))
        if flows[top] > self.max_flow:
            self.max_flow = float(flows[top])
            self.argmax_job = int(job_ids[top])
            self.argmax_completion = float(completions[top])
        last = float(completions.max())
        if last > self.last_completion:
            self.last_completion = last
        if self.sketches:
            values = flows.tolist()
            for sketch in self.sketches.values():
                update = sketch.update
                for x in values:
                    update(x)

    @property
    def mean_flow(self) -> float:
        return self.flow_sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        return self.sketches[float(q)].value()

    def quantile_estimates(self) -> Dict[float, float]:
        return {q: s.value() for q, s in self.sketches.items()}

    def state_dict(self) -> Dict[str, object]:
        return {
            "max_flow": self.max_flow,
            "argmax_job": self.argmax_job,
            "argmax_completion": self.argmax_completion,
            "count": self.count,
            "flow_sum": self.flow_sum,
            "last_completion": self.last_completion,
            "sketches": {
                repr(q): s.state_dict() for q, s in self.sketches.items()
            },
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.max_flow = float(state["max_flow"])  # type: ignore[arg-type]
        self.argmax_job = (
            None if state["argmax_job"] is None else int(state["argmax_job"])  # type: ignore[arg-type]
        )
        self.argmax_completion = float(state["argmax_completion"])  # type: ignore[arg-type]
        self.count = int(state["count"])  # type: ignore[arg-type]
        self.flow_sum = float(state["flow_sum"])  # type: ignore[arg-type]
        self.last_completion = float(state["last_completion"])  # type: ignore[arg-type]
        saved = state["sketches"]
        if set(saved) != {repr(q) for q in self.sketches}:  # type: ignore[arg-type]
            raise ValueError(
                f"checkpoint tracks quantiles {sorted(saved)}, "  # type: ignore[arg-type]
                f"run requested {sorted(repr(q) for q in self.sketches)}"
            )
        for q, sketch in self.sketches.items():
            sketch.load_state(saved[repr(q)])  # type: ignore[index]


class WindowedUtilization:
    """Busy-fraction time series over fixed tick windows, O(windows) memory.

    Implements the engine's sampler protocol (duck-typed like
    :class:`~repro.sim.sampling.SystemSampler`): the engine calls
    :meth:`maybe_record` every general tick and :meth:`record_boundary`
    at both edges of every fast-forward.  The busy-worker count is
    constant between consecutive calls, so integrating it as a step
    function is exact.  Windows are ``[k*window, (k+1)*window)`` in
    engine ticks; only the trailing ``max_windows`` window integrals are
    retained (older ones collapse into the global totals).
    """

    def __init__(
        self, m: int, window: int = 4096, max_windows: int = 1024
    ) -> None:
        if m < 1:
            raise ValueError(f"need at least one worker, got m={m}")
        if window < 1:
            raise ValueError(f"window must be >= 1 tick, got {window}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.m = int(m)
        self.window = int(window)
        self.max_windows = int(max_windows)
        self.busy_integral = 0  # sum of busy workers over all ticks
        self.first_tick: Optional[int] = None
        self.last_tick: Optional[int] = None
        self._last_busy = 0
        # Trailing per-window integrals: aligned window index -> integral.
        self._windows: List[List[int]] = []  # [window_index, integral]

    # -- sampler protocol -------------------------------------------------

    def maybe_record(
        self,
        tick: int,
        n_busy: int,
        queue_length: int = 0,
        stealable: int = 0,
        completed: int = 0,
    ) -> None:
        # Called once per simulated tick: the idle case (previous busy
        # count zero) and the within-one-window integration are inlined
        # rather than delegated, so the per-tick cost is a couple of
        # comparisons, not a call chain.
        tick = int(tick)
        last = self.last_tick
        if last is None:
            self.first_tick = tick
        elif tick > last:
            # The previous busy count held for [last, tick).
            busy = self._last_busy
            if busy:
                self.busy_integral += busy * (tick - last)
                w = self.window
                k = last // w
                if tick <= (k + 1) * w:
                    wins = self._windows
                    if wins and wins[-1][0] == k:
                        wins[-1][1] += busy * (tick - last)
                    else:
                        self._bump(k, busy * (tick - last))
                else:
                    self._integrate(last, tick, busy)
        elif tick < last:
            raise ValueError(
                f"utilization samples must be non-decreasing in time "
                f"(got tick {tick} after {last})"
            )
        self.last_tick = tick
        self._last_busy = int(n_busy)

    record_boundary = maybe_record

    def _integrate(self, start: int, stop: int, busy: int) -> None:
        """Spread ``busy`` over ``[start, stop)`` across window edges."""
        w = self.window
        k = start // w
        while start < stop:
            edge = min(stop, (k + 1) * w)
            self._bump(k, busy * (edge - start))
            start = edge
            k += 1

    def _bump(self, window_index: int, amount: int) -> None:
        wins = self._windows
        if wins and wins[-1][0] == window_index:
            wins[-1][1] += amount
        else:
            wins.append([window_index, amount])
            if len(wins) > self.max_windows:
                del wins[0 : len(wins) - self.max_windows]

    # -- readers ----------------------------------------------------------

    @property
    def elapsed_ticks(self) -> int:
        if self.first_tick is None or self.last_tick is None:
            return 0
        return self.last_tick - self.first_tick

    def overall(self) -> float:
        """Mean busy fraction over the whole observed span (exact)."""
        span = self.elapsed_ticks
        if span <= 0:
            return 0.0
        return self.busy_integral / (self.m * span)

    def series(self) -> List[Tuple[int, float]]:
        """Trailing ``(window_start_tick, busy_fraction)`` samples.

        The last window may still be partial; its fraction is normalized
        by the ticks actually observed inside it so far.
        """
        out: List[Tuple[int, float]] = []
        last = self.last_tick
        for window_index, integral in self._windows:
            start = window_index * self.window
            covered = self.window
            if last is not None and last < start + self.window:
                covered = max(1, last - max(
                    start, self.first_tick or start
                ))
            out.append((start, integral / (self.m * covered)))
        return out

    # -- checkpoint round-trip -------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "window": self.window,
            "max_windows": self.max_windows,
            "busy_integral": self.busy_integral,
            "first_tick": self.first_tick,
            "last_tick": self.last_tick,
            "last_busy": self._last_busy,
            "windows": [list(w) for w in self._windows],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        if (
            int(state["m"]) != self.m  # type: ignore[arg-type]
            or int(state["window"]) != self.window  # type: ignore[arg-type]
        ):
            raise ValueError(
                "checkpoint utilization accumulator was configured with "
                f"m={state['m']}, window={state['window']}; this one has "
                f"m={self.m}, window={self.window}"
            )
        self.max_windows = int(state["max_windows"])  # type: ignore[arg-type]
        self.busy_integral = int(state["busy_integral"])  # type: ignore[arg-type]
        self.first_tick = (
            None if state["first_tick"] is None else int(state["first_tick"])  # type: ignore[arg-type]
        )
        self.last_tick = (
            None if state["last_tick"] is None else int(state["last_tick"])  # type: ignore[arg-type]
        )
        self._last_busy = int(state["last_busy"])  # type: ignore[arg-type]
        self._windows = [
            [int(a), int(b)] for a, b in state["windows"]  # type: ignore[union-attr]
        ]
