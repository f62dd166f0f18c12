"""System-state sampling for the work-stealing engine.

A :class:`SystemSampler` passed to
:func:`repro.sim.engine._run_work_stealing` snapshots the scheduler's
internal state -- busy workers, global-queue length, stealable deques,
completed jobs -- at (approximately) regular tick intervals.  This is
the instrumentation behind the Section 6 narrative: under admit-first at
load, snapshots show many busy workers but *zero stealable deques*
(each worker grinding its own job sequentially), while steal-k-first
shows few open jobs with stealable work spread across deques.

Sampling granularity
--------------------
The engine records a snapshot at the first decision boundary at or after
each sampling tick (:meth:`SystemSampler.maybe_record`), *plus* one
snapshot at the entry and exit tick of every fast-forwarded span
(:meth:`SystemSampler.record_boundary`).  A fast-forwarded span is one
in which the engine proved no scheduling decision can occur, so the
state is constant inside it: the entry snapshot captures that constant
state and the exit snapshot captures the first tick where decisions
resume.  Time series therefore have no silent gaps across skipped spans
-- a long idle or all-busy stretch contributes exactly its two boundary
rows rather than nothing at all.  Ticks are strictly increasing across
the combined stream (same-tick duplicates are dropped), and a boundary
snapshot restarts the periodic cadence, so consecutive samples are never
more than one fast-forward span plus ``every`` ticks apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class SystemSample:
    """One snapshot of engine state.

    Attributes
    ----------
    tick:
        Tick index of the snapshot (time = tick / speed).
    n_busy:
        Workers executing a node.
    queue_length:
        Jobs waiting in the global admission queue.
    stealable_deques:
        Worker deques holding at least one ready node.
    completed:
        Jobs fully finished so far.
    """

    tick: int
    n_busy: int
    queue_length: int
    stealable_deques: int
    completed: int


class SystemSampler:
    """Collects :class:`SystemSample` rows every ``every`` ticks."""

    def __init__(self, every: int = 64) -> None:
        if every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every}")
        self.every = int(every)
        self.samples: List[SystemSample] = []
        self._next_tick = 0

    def maybe_record(
        self,
        tick: int,
        n_busy: int,
        queue_length: int,
        stealable_deques: int,
        completed: int,
    ) -> None:
        """Record a snapshot if the sampling tick has been reached."""
        if tick < self._next_tick:
            return
        samples = self.samples
        if samples and tick <= samples[-1].tick:
            return  # a boundary snapshot already covers this tick
        samples.append(
            SystemSample(tick, n_busy, queue_length, stealable_deques, completed)
        )
        # One sample per crossing, even after a long fast-forward.
        self._next_tick = tick + self.every

    def record_boundary(
        self,
        tick: int,
        n_busy: int,
        queue_length: int,
        stealable_deques: int,
        completed: int,
    ) -> None:
        """Record a snapshot at a fast-forward boundary, unconditionally.

        Called by the engine at the entry and exit tick of each
        fast-forwarded span regardless of the periodic cadence, so the
        constant state inside the span (and the state right after it) is
        visible in the time series.  Same-tick duplicates are dropped to
        keep sample ticks strictly increasing; a recorded boundary
        restarts the periodic cadence.
        """
        samples = self.samples
        if samples and tick <= samples[-1].tick:
            return
        samples.append(
            SystemSample(tick, n_busy, queue_length, stealable_deques, completed)
        )
        self._next_tick = tick + self.every

    # -- column views ------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """One field across all samples, as an array (for plotting/tests)."""
        return np.array([getattr(s, name) for s in self.samples])

    def mean_busy(self) -> float:
        """Average busy-worker count across samples."""
        if not self.samples:
            raise ValueError("no samples recorded")
        return float(self.column("n_busy").mean())

    def peak_queue_length(self) -> int:
        """High-water mark of the admission queue across samples."""
        if not self.samples:
            raise ValueError("no samples recorded")
        return int(self.column("queue_length").max())
