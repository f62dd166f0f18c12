"""The Section 5 lower-bound instance for randomized work stealing.

Lemma 5.1 constructs an input on which *any* work-stealing scheduler with
constant speed augmentation is ``Omega(log n)``-competitive for max flow
time.  The construction:

* machine size ``m = log n`` (so ``n = 2^m`` jobs);
* each job is one root task that is the predecessor of ``m/10``
  independent unit tasks (total work ``m/10 + 1``);
* one job is released every ``2m`` time units, so jobs never overlap in
  any non-idling schedule, and an ideal scheduler finishes each job in 2
  time steps (root, then all children in parallel).

The pain mechanism: after a worker executes the root, the ``m/10``
children sit in *that worker's deque*; every other worker must find them
by uniform random steals, and with probability ``(1/2e)^{m/10}`` per job
all steals miss long enough that the job runs (nearly) sequentially,
costing ``m/10 + 1`` steps.  Over ``2^m`` jobs that event happens in
expectation, so the expected max flow is ``Omega(m) = Omega(log n)``
while OPT's is 2.

This module generates the instance and its closed-form OPT value; the
``lb5`` bench sweeps ``n`` and shows the scheduler/OPT ratio growing
logarithmically.  The instance is one DAG released ``n`` times, so it is
built as a tiled flat (:meth:`~repro.dag.flat.FlatInstance.tile`): six
arrays in O(nodes) numpy, every job's span and work in closed form, and
no :class:`~repro.dag.job.Job` until a caller iterates the returned
view.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.dag.builders import adversarial_fork
from repro.dag.flat import FlatInstance, to_jobset
from repro.dag.job import JobSet


def adversarial_machine_size(n_jobs: int) -> int:
    """The construction's machine size ``m = log2(n)`` (at least 10).

    The floor of 10 keeps the fan-out ``m // 10`` at least 1, matching
    the paper's implicit "sufficiently large m" assumption.
    """
    if n_jobs < 2:
        raise ValueError(f"the construction needs at least 2 jobs, got {n_jobs}")
    return max(10, int(round(math.log2(n_jobs))))


def adversarial_instance(
    n_jobs: int,
    m: int | None = None,
    spacing: float | None = None,
    fanout: int | None = None,
) -> Tuple[JobSet, int]:
    """Build the Lemma 5.1 instance.

    Parameters
    ----------
    n_jobs:
        Number of identical single-fork jobs.
    m:
        Machine size; defaults to :func:`adversarial_machine_size`.
    spacing:
        Release period; defaults to the paper's ``2m``.
    fanout:
        Children per job; defaults to the paper's ``m // 10``.  The
        empirical lb5 experiment uses ``m // 2``: the paper's constant
        is asymptotic (the fan-out only exceeds 1 for m >= 20, i.e.
        n >= 2^20 jobs), so a larger constant makes the same mechanism
        visible at laptop scale without changing the construction --
        OPT still finishes every job in 2 steps.

    Returns
    -------
    (jobset, m):
        The instance and the machine size it must be run on; the set is
        the lazy view of a tiled :class:`~repro.dag.flat.FlatInstance`.
    """
    if m is None:
        m = adversarial_machine_size(n_jobs)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if spacing is None:
        spacing = 2.0 * m
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if fanout is not None and not 1 <= fanout <= m:
        raise ValueError(f"fanout must lie in [1, m={m}], got {fanout}")

    flat = FlatInstance.tile(
        adversarial_fork(m, fanout=fanout), spacing * np.arange(n_jobs)
    )
    return to_jobset(flat), m


def adversarial_opt_max_flow(m: int, speed: float = 1.0) -> float:
    """Max flow of the ideal schedule on the instance: 2 time steps.

    The root runs for one step, then all ``m // 10`` children run in
    parallel for one step (they fit: ``m // 10 <= m``).  Jobs never
    overlap, so every job's flow is exactly ``2 / speed``.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    return 2.0 / speed


def sequential_execution_flow(
    m: int, speed: float = 1.0, fanout: int | None = None
) -> float:
    """Flow of a job on the instance if it runs fully sequentially.

    ``fanout + 1`` units on one worker (paper default fan-out
    ``m // 10``) -- the bad event the lower bound engineers.  The ratio
    to :func:`adversarial_opt_max_flow` is ``Theta(m) = Theta(log n)``.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if fanout is None:
        fanout = max(1, m // 10)
    return (fanout + 1) / speed
