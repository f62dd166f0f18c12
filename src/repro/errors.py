"""Typed exception hierarchy for the execution layers (ISSUE 4).

Before this module, executor faults and user mistakes surfaced as the
same builtin exceptions: a hung pool worker, a corrupt cache file and a
``reps=0`` typo all reached the caller as ``RuntimeError``/``ValueError``
with no way to tell "retry the sweep" apart from "fix the call".  The
hierarchy gives every failure mode a distinct type while staying
**deprecation-safe**: each class also inherits the builtin it used to
surface as, so existing ``except ValueError:`` / ``except RuntimeError:``
handlers keep working unchanged.

::

    ReproError                        (Exception)
    |-- SweepConfigError              (+ ValueError)   bad sweep arguments
    |-- UnkeyableFactoryError         (+ ValueError)   factory has no stable key
    |-- CacheCorruptError             (+ RuntimeError) cache file unreadable
    |-- CacheMergeConflictError       (+ RuntimeError) shard caches disagree on a cell
    |-- CellCrashedError              (+ RuntimeError) worker died / cell errored
    |-- CellTimeoutError              (+ TimeoutError) cell deadline exceeded
    |-- SearchInfeasibleError         (+ RuntimeError) no candidate meets the budget
    `-- FaultInjected                                  raised by repro.testing.faults

Catch :class:`ReproError` to handle anything this package raises;
catch :class:`CellTimeoutError` / :class:`CellCrashedError` to handle
executor faults distinctly from user errors.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "SweepConfigError",
    "UnkeyableFactoryError",
    "CacheCorruptError",
    "CacheMergeConflictError",
    "CellCrashedError",
    "CellTimeoutError",
    "SearchInfeasibleError",
    "FaultInjected",
]


class ReproError(Exception):
    """Base class for every error this package raises on purpose."""


class SweepConfigError(ReproError, ValueError):
    """A sweep was configured with invalid arguments (user error).

    Subclasses :class:`ValueError` so pre-1.2 ``except ValueError``
    handlers around :func:`repro.sweep` keep catching it.
    """


class UnkeyableFactoryError(ReproError, ValueError):
    """A scheduler factory has no run-stable content identity.

    Raised (in strict contexts) or carried by the bypass warning when a
    factory captures state whose ``repr`` embeds a memory address: such
    a factory cannot key the content-addressed cell cache without
    risking collisions.  Use a module-level function, class, or
    ``functools.partial`` over plain values.
    """


class CacheCorruptError(ReproError, RuntimeError):
    """A cache entry exists but cannot be parsed.

    The non-strict cache API treats corruption as a miss (the entry is
    regenerated and overwritten); ``strict=True`` loads raise this
    instead so integrity audits can tell truncation from absence.
    """


class CacheMergeConflictError(ReproError, RuntimeError):
    """Two shard caches hold *different* results under the same cell key.

    Raised by :func:`repro.experiments.shard.merge_caches` when a cell
    (or instance) key appears in both the destination and a source cache
    with different content hashes.  Cell keys are pure functions of the
    run coordinates, so a disagreement means one side computed with
    different code, a different environment, or a tampered file -- a
    merge must never silently pick a winner.

    ``key`` is the conflicting cache key, ``kind`` is ``"cell"`` or
    ``"instance"``, and ``provenance`` carries one record per side
    (cache dir, shard manifest facts: host, shard index, creation time)
    so the offending run can be identified from the error alone.
    """

    def __init__(
        self,
        message: str,
        key: str = "",
        kind: str = "cell",
        provenance: tuple = (),
    ):
        super().__init__(message)
        self.key = key
        self.kind = kind
        self.provenance = tuple(provenance)


class CellCrashedError(ReproError, RuntimeError):
    """A sweep cell failed permanently: its worker died (or its body
    raised a retryable fault) more times than the retry budget allows.

    ``attempts`` records how many executions were burned before giving
    up; the triggering exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class CellTimeoutError(ReproError, TimeoutError):
    """A sweep cell exceeded its deadline more times than the retry
    budget allows (``--cell-timeout`` / ``REPRO_CELL_TIMEOUT``).

    ``timeout`` is the per-attempt deadline in seconds; ``attempts`` the
    number of expired executions.
    """

    def __init__(self, message: str, timeout: float = 0.0, attempts: int = 0):
        super().__init__(message)
        self.timeout = timeout
        self.attempts = attempts


class SearchInfeasibleError(ReproError, RuntimeError):
    """A threshold search found *no* candidate meeting its budget.

    Raised by :func:`repro.experiments.search.threshold_search` (and so
    by ``repro.search(budget=...)``) when even the largest candidate
    value of the searched parameter leaves the objective above the
    budget.  Distinct from :class:`SweepConfigError` on purpose: the
    call was *well-formed*, the question simply has no answer inside
    the candidate set -- widen the candidate range to proceed.  The CLI
    maps it to :data:`repro.experiments.exitcodes.EXIT_SEARCH_INFEASIBLE`.

    ``objective`` / ``budget`` restate the failed constraint;
    ``best_params`` / ``best_value`` carry the closest attempt so the
    caller can see how far off the budget was without re-running.
    """

    def __init__(
        self,
        message: str,
        objective: str = "",
        budget: float = float("nan"),
        best_params: Optional[dict] = None,
        best_value: Optional[float] = None,
    ):
        super().__init__(message)
        self.objective = objective
        self.budget = budget
        self.best_params = dict(best_params or {})
        self.best_value = best_value


class FaultInjected(ReproError):
    """Raised by :func:`repro.testing.faults.maybe_inject` (action
    ``raise``).

    Deliberately retryable: the supervised executor treats it like a
    transient worker fault, which is how the chaos suite proves the
    retry path yields bit-identical results.  Picklable, so it survives
    the trip back from a pool worker.
    """

    def __init__(self, stage: str = "?", detail: str = ""):
        super().__init__(f"injected fault at stage {stage!r}"
                         + (f": {detail}" if detail else ""))
        self.stage = stage
        self.detail = detail

    def __reduce__(self):  # keep picklability across process boundaries
        return (FaultInjected, (self.stage, self.detail))
