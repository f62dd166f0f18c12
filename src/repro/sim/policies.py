"""Victim-selection policies for the work-stealing engine.

The paper analyzes the classic policy -- a uniformly random victim per
attempt -- but the choice is a live design knob in real runtimes, so the
engine exposes it for ablations:

* :class:`UniformVictim` -- the analyzed policy (Blumofe-Leiserson):
  each attempt picks one of the other ``m - 1`` workers uniformly.
* :class:`RoundRobinVictim` -- each thief sweeps the other workers in a
  fixed cyclic order.  Deterministic; finds stealable work within
  ``m - 1`` attempts when it exists, but loses the contention-spreading
  property of randomization.
* :class:`MaxDequeVictim` -- an *oracle* policy that inspects every
  deque and targets the longest.  Physically unimplementable without
  global synchronization; included as the upper bound on what victim
  selection could buy.

All policies return the index of a victim to probe; the engine performs
the actual (possibly failing) steal.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from repro.sim._cext import BLOCK


class VictimPolicy(ABC):
    """Chooses which worker a thief probes on one steal attempt."""

    #: Label used in results and ablation tables.
    name: str = "abstract"

    @abstractmethod
    def choose(self, thief: int, deques: Sequence) -> int:
        """Index of the worker to probe (never ``thief`` itself).

        ``deques`` is the live per-worker sequence of ready-node deques
        (see :class:`~repro.sim.worker.WorkerArrays`); policies may
        inspect lengths (the oracle does) but must not mutate anything.
        Only called when ``m > 1``.
        """


def _first_victim_block(
    rng: np.random.Generator, m: int, victim_policy: str = "uniform",
    block: int = BLOCK,
) -> Optional[np.ndarray]:
    """The victim-draw block uniform victims draw before the first tick
    (refills follow, block by block, as the draws run out).  Every
    engine draws it here, so a Generator's post-run state is the same
    on every path."""
    if m > 1 and victim_policy == "uniform":
        return rng.integers(0, m - 1, size=block)
    return None


class UniformVictim(VictimPolicy):
    """Uniformly random victim per attempt -- the paper's policy.

    Draws are buffered in blocks: single numpy scalar draws dominate
    steal-heavy runs otherwise (this is the engine's measured hot spot).
    """

    name = "uniform"

    def __init__(self, rng: np.random.Generator, m: int, block: int = BLOCK):
        self._rng = rng
        self._m = m
        self._buf = _first_victim_block(rng, m, block=block)
        self._pos = 0

    def choose(self, thief: int, deques: Sequence) -> int:
        buf = self._buf
        assert buf is not None, "UniformVictim.choose requires m > 1"
        if self._pos >= len(buf):
            self._buf = buf = self._rng.integers(0, self._m - 1, size=len(buf))
            self._pos = 0
        v = int(buf[self._pos])
        self._pos += 1
        return v if v < thief else v + 1


class RoundRobinVictim(VictimPolicy):
    """Each thief cycles deterministically through the other workers."""

    name = "round-robin"

    def __init__(self, m: int):
        self._m = m
        self._next: List[int] = [(i + 1) % m for i in range(m)]

    def choose(self, thief: int, deques: Sequence) -> int:
        v = self._next[thief]
        if v == thief:  # skip self
            v = (v + 1) % self._m
        self._next[thief] = (v + 1) % self._m
        return v


class MaxDequeVictim(VictimPolicy):
    """Oracle: probe the worker with the longest deque (ties: lowest id).

    Requires global knowledge no distributed runtime has; used only to
    upper-bound the value of smarter victim selection in ablations.
    """

    name = "max-deque"

    def choose(self, thief: int, deques: Sequence) -> int:
        best, best_len = -1, -1
        for i, d in enumerate(deques):
            if i == thief:
                continue
            length = len(d)
            if length > best_len:
                best, best_len = i, length
        return best


#: Policy names, in the order of the compiled kernel's victim codes.
VICTIM_POLICIES = ("uniform", "round-robin", "max-deque")


def victim_policy_code(name: str) -> int:
    """The compiled kernel's code for policy ``name``.

    Raises the engine's :class:`ValueError` for an unknown name.
    """
    if name not in VICTIM_POLICIES:
        raise ValueError(
            f"unknown victim policy {name!r}; expected 'uniform', "
            "'round-robin' or 'max-deque'"
        )
    return VICTIM_POLICIES.index(name)


def make_victim_policy(
    name: str, rng: np.random.Generator, m: int
) -> VictimPolicy:
    """Construct a victim policy by name (engine entry point)."""
    victim_policy_code(name)  # rejects an unknown name
    if name == "uniform":
        return UniformVictim(rng, m)
    if name == "round-robin":
        return RoundRobinVictim(m)
    return MaxDequeVictim()
