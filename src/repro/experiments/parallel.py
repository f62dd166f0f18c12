"""Supervised process-pool execution of parallel experiment cells.

Every experiment sweep in this package decomposes into independent cells
-- one (workload, QPS) point of a Figure 2 panel, or one (grid point,
repetition) pair of a grid sweep -- whose seeds derive from their
*coordinates* via :func:`repro.sim.rng.derive_seed`, never from
execution order.  Both kinds reach :func:`parallel_map` through one
caller, the cell executor
(:func:`repro.experiments.sweep._run_cell_tasks`), which adds the cell
cache, the checkpoints and the sweep telemetry around it.  That
discipline makes cell fan-out safe: running cells across a process pool
produces bit-identical per-cell results to running them serially, in any
order, and ``tests/experiments/test_parallel.py`` asserts it.  It also
makes cells safely *re-runnable*: a cell that died or timed out can be
executed again from the same task tuple and must produce the same
floats, which is the foundation the fault tolerance below stands on.

Worker-count resolution (first match wins):

1. an explicit ``max_workers`` argument;
2. the ``REPRO_JOBS`` environment variable (also settable via the CLI's
   ``--jobs`` flag);
3. ``os.cpu_count()``.

``max_workers <= 1`` -- or any failure to stand up or use the pool
(sandboxed platforms without process support, unpicklable callables such
as lambda factories) -- degrades gracefully to the plain serial loop,
which is always semantically equivalent.  Losing parallelism that was
implicitly requested is worth knowing about, so the fallback emits a
one-time :class:`RuntimeWarning` naming the callable (and a
``dispatch.fallback`` telemetry event).

Fault tolerance (ISSUE 4)
-------------------------

Paper-scale sweeps (100k jobs per point) run for hours; pre-ISSUE-4, a
single crashed or hung pool worker aborted the whole run.
:func:`parallel_map` now *supervises* its pool:

* **per-cell deadlines** -- ``cell_timeout`` (argument >
  ``REPRO_CELL_TIMEOUT`` env > the CLI's ``--cell-timeout``): a cell
  running past its deadline is declared hung, the pool is torn down
  (hung workers are terminated), and the cell is retried;
* **bounded retry with deterministic exponential backoff** --
  ``retries`` (argument > ``REPRO_RETRIES`` > default 2): a crashed,
  hung, or :class:`~repro.errors.FaultInjected` cell re-runs from its
  coordinate-derived task tuple, so the recovered result is
  bit-identical; the backoff schedule is a pure function
  (:func:`backoff_schedule`) with no jitter, so recovery behavior is as
  reproducible as the results;
* **pool respawn** -- a :class:`BrokenProcessPool` (worker killed by
  the OS, segfault, injected ``os._exit``) recycles the executor and
  resubmits every incomplete cell.  Cells that already completed keep
  their results; completed work is never lost;
* **incremental checkpointing** -- the ``on_result`` callback fires in
  the parent as each cell completes (in completion order), which is how
  sweeps flush finished cells to the content-addressed cache *before*
  the batch ends: a killed sweep resumes losslessly with ``--resume``.

Permanent failures surface as typed exceptions
(:class:`~repro.errors.CellTimeoutError`,
:class:`~repro.errors.CellCrashedError`) once the retry budget is
exhausted.  Every recovery action emits a structured telemetry event
(``fault.timeout``, ``fault.crash``, ``fault.cell_error``,
``fault.retry``, ``fault.giveup``, ``pool.respawn``),
so ``summarize_events`` / ``audit_events`` can report fault counts per
run and ``tools/bench_gate.py --telemetry`` can refuse bench runs that
needed unrecovered faults.  The deterministic chaos harness in
:mod:`repro.testing.faults` exists to prove all of the above.

Shared task data
----------------

Many tasks of one batch read the same large inputs: every (cell,
repetition) task of a sweep simulates one of a few repetition
instances.  Those travel once, not once per task: ``parallel_map``'s
``shared`` argument is handed to each pool worker by the executor's
initializer -- inherited at no cost under the ``fork`` start method,
pickled once per worker under ``spawn`` / ``forkserver`` -- and
installed in-process by the serial loop for the duration of the call.
A task reads it with :func:`shared_data` and carries only an index into
it.  The trade-off: under ``spawn`` each worker holds a private copy of
the shared data.  A worker whose scheduler needs the object graph
derives it with :func:`~repro.dag.flat.to_jobset`, which caches the view
on that instance, so it is built once per instance per process.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.errors import (
    CellCrashedError,
    CellTimeoutError,
    FaultInjected,
    _caller_stacklevel,
)

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable for the per-cell deadline in seconds (the CLI's
#: ``--cell-timeout`` flag).  Unset / non-positive means no deadline.
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Environment variable for the per-cell retry budget (the CLI's
#: ``--retries`` flag).
RETRIES_ENV = "REPRO_RETRIES"

#: Environment variable overriding the base backoff delay in seconds
#: (tests set it tiny so chaos runs stay fast).
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

#: Default retry budget per cell: one crash plus one unlucky rerun.
DEFAULT_RETRIES = 2

#: Default base backoff delay (doubles per attempt) and its cap.
DEFAULT_BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Exceptions from the cell body that the supervisor retries.  Worker
#: death (``BrokenProcessPool``) and deadline expiry are always
#: retried; in-cell exceptions are, by default, treated as deterministic
#: user errors and propagated immediately -- except these.
RETRYABLE_EXCEPTIONS: Tuple[type, ...] = (FaultInjected,)

#: Pool-machinery failures that degrade the whole batch to the serial
#: loop (which reproduces any genuine error from ``fn`` directly).
_FALLBACK_EXCEPTIONS = (
    PicklingError,
    AttributeError,
    TypeError,
    ImportError,
    OSError,
    NotImplementedError,
)

#: Callables already warned about (by identity token), so a sweep with
#: hundreds of cells warns once, not per call.
_FALLBACK_WARNED: set = set()

#: The running batch's ``shared`` data (see "Shared task data" above):
#: set in each pool worker by the executor's initializer, and by the
#: serial loop while it runs.
_SHARED: Tuple[Any, ...] = ()


def _install_shared(shared: Tuple[Any, ...]) -> None:
    """Make ``shared`` what :func:`shared_data` returns in this process."""
    global _SHARED
    _SHARED = shared


def shared_data() -> Tuple[Any, ...]:
    """The ``shared`` data of the :func:`parallel_map` batch running
    the calling task (empty outside one)."""
    return _SHARED


def default_workers() -> int:
    """Worker-process count: ``REPRO_JOBS`` env override, else CPU count.

    The fallback is ``os.cpu_count()`` -- the machine's *logical* CPU
    count, SMT threads included, not the physical core count and not
    the process affinity mask (``BENCH_engine.json``'s host block
    records all three side by side).  On an SMT host that oversubscribes
    the physical cores roughly 2x, which is usually right for these
    simulation workloads; set ``REPRO_JOBS`` explicitly to pin a
    different width.  A malformed or non-positive ``REPRO_JOBS`` falls
    back to the CPU count rather than erroring: an experiment run
    should never die on a stale environment variable.
    """
    env = os.environ.get("REPRO_JOBS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    return os.cpu_count() or 1


def default_cell_timeout() -> Optional[float]:
    """Per-cell deadline from ``REPRO_CELL_TIMEOUT``, or None.

    Malformed or non-positive values mean "no deadline" -- same
    philosophy as :func:`default_workers`: stale environment must never
    kill a run.
    """
    env = os.environ.get(CELL_TIMEOUT_ENV)
    if env is None:
        return None
    try:
        value = float(env)
    except ValueError:
        return None
    return value if value > 0 else None


def default_retries() -> int:
    """Retry budget from ``REPRO_RETRIES``, else :data:`DEFAULT_RETRIES`."""
    env = os.environ.get(RETRIES_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value >= 0:
            return value
    return DEFAULT_RETRIES


def default_backoff_base() -> float:
    """Base backoff delay from ``REPRO_RETRY_BACKOFF``, else the default."""
    env = os.environ.get(BACKOFF_ENV)
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            value = -1.0
        if value >= 0:
            return value
    return DEFAULT_BACKOFF_BASE


def backoff_schedule(
    retries: int,
    base: Optional[float] = None,
    cap: float = BACKOFF_CAP,
) -> List[float]:
    """The deterministic delay (seconds) before each retry attempt.

    Pure exponential doubling from ``base``, capped at ``cap``, with
    **no jitter**: two identical chaos runs must take identical
    recovery detours, or "bit-identical under faults" would be
    unfalsifiable.  ``schedule[k]`` is the pause before retry ``k + 1``.
    """
    return [
        _backoff_delay(attempt, base, cap)
        for attempt in range(1, max(0, retries) + 1)
    ]


def _backoff_delay(
    attempt: int, base: Optional[float] = None, cap: float = BACKOFF_CAP
) -> float:
    """Delay before retry number ``attempt`` (1-based)."""
    if base is None:
        base = default_backoff_base()
    return min(cap, base * (2.0 ** max(0, attempt - 1)))


def _warn_serial_fallback(fn: Callable, exc: BaseException) -> None:
    """One-time warning that a pool attempt degraded to the serial loop.

    The silent version of this fallback cost users real time: a lambda
    factory quietly serialized a sweep that looked parallel.  The
    warning names the callable and the triggering error so the fix
    (module-level function) is obvious; results are unaffected.
    """
    token = (
        getattr(fn, "__module__", "?"),
        getattr(fn, "__qualname__", repr(fn)),
    )
    if token in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(token)
    warnings.warn(
        f"parallel_map: process pool unusable for {fn!r} "
        f"({type(exc).__name__}: {exc}); falling back to serial "
        f"execution. Results are identical but nothing runs in "
        f"parallel -- use a module-level (picklable) callable to "
        f"restore pool execution.",
        RuntimeWarning,
        stacklevel=_caller_stacklevel(),
    )


class _SerialFallback(Exception):
    """Internal signal: abandon the pool and re-run the batch serially."""

    def __init__(self, cause: BaseException):
        self.cause = cause


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, hung workers included.

    ``shutdown()`` alone would join workers that will never exit (a hung
    cell sleeps forever), so the supervisor terminates the worker
    processes first.  Reaching into ``_processes`` is unavoidable --
    the executor API offers no kill switch -- and is confined here.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for proc in processes:
        try:
            proc.join(timeout=5)
        except Exception:  # pragma: no cover - best effort
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - best effort
        pass


def _serial_run(
    fn: Callable[[T], R],
    work: Sequence[T],
    shared: Tuple[Any, ...],
    retries: int,
    backoff_base: float,
    telemetry: Optional[Any],
    on_result: Optional[Callable[[int, R], None]],
) -> List[R]:
    """The serial loop, with ``shared`` installed while it runs and the
    same retry contract for retryable in-cell faults (deadlines cannot
    be enforced without a pool)."""
    out: List[R] = []
    previous = _SHARED
    _install_shared(shared)
    try:
        for idx, item in enumerate(work):
            attempt = 0
            while True:
                try:
                    value = fn(item)
                    break
                except RETRYABLE_EXCEPTIONS as exc:
                    attempt += 1
                    if telemetry is not None:
                        telemetry.emit(
                            "fault.cell_error",
                            index=idx,
                            attempt=attempt,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    if attempt > retries:
                        if telemetry is not None:
                            telemetry.emit(
                                "fault.giveup", index=idx, attempts=attempt,
                                kind="cell_error",
                            )
                        raise CellCrashedError(
                            f"cell {idx} failed after {attempt} "
                            f"attempt(s): {exc}",
                            attempts=attempt,
                        ) from exc
                    delay = _backoff_delay(attempt, backoff_base)
                    if telemetry is not None:
                        telemetry.emit(
                            "fault.retry", index=idx, attempt=attempt,
                            delay_s=delay,
                        )
                    time.sleep(delay)
            out.append(value)
            if on_result is not None:
                on_result(idx, value)
    finally:
        _install_shared(previous)
    return out


def _supervised_pool_run(
    fn: Callable[[T], R],
    work: Sequence[T],
    shared: Tuple[Any, ...],
    workers: int,
    cell_timeout: Optional[float],
    retries: int,
    backoff_base: float,
    telemetry: Optional[Any],
    on_result: Optional[Callable[[int, R], None]],
) -> List[R]:
    """Run the batch on a supervised pool (see module docstring).

    Raises :class:`_SerialFallback` when the pool machinery itself is
    unusable, :class:`CellTimeoutError` / :class:`CellCrashedError` when
    a cell exhausts its retry budget, and re-raises genuine (non-
    retryable) exceptions from ``fn`` directly.
    """
    n = len(work)
    sentinel = object()
    results: List[Any] = [sentinel] * n
    attempts = [0] * n
    pending: Set[int] = set(range(n))
    generation = 0

    def emit(event: str, **fields: Any) -> None:
        if telemetry is not None:
            telemetry.emit(event, **fields)

    def charge(idx: int, kind: str, error: Optional[str] = None) -> None:
        """Record one burned execution of cell ``idx``; raise on budget
        exhaustion, otherwise announce the coming retry."""
        attempts[idx] += 1
        fields: Dict[str, Any] = {"index": idx, "attempt": attempts[idx]}
        if error is not None:
            fields["error"] = error
        if kind == "timeout":
            fields["timeout_s"] = cell_timeout
        emit(f"fault.{kind}", **fields)
        if attempts[idx] > retries:
            emit("fault.giveup", index=idx, attempts=attempts[idx], kind=kind)
            if kind == "timeout":
                raise CellTimeoutError(
                    f"cell {idx} exceeded its {cell_timeout}s deadline on "
                    f"all {attempts[idx]} attempt(s) "
                    f"(retries={retries}; raise --retries/--cell-timeout "
                    f"or run serially)",
                    timeout=cell_timeout or 0.0,
                    attempts=attempts[idx],
                )
            raise CellCrashedError(
                f"cell {idx} failed on all {attempts[idx]} attempt(s) "
                f"({error or kind}); retries={retries}",
                attempts=attempts[idx],
            )
        emit(
            "fault.retry",
            index=idx,
            attempt=attempts[idx],
            delay_s=_backoff_delay(attempts[idx], backoff_base),
        )

    while pending:
        if generation > 0:
            # Deterministic exponential pause before standing the pool
            # back up: the most-burned pending cell sets the delay.
            hottest = max(attempts[i] for i in pending)
            time.sleep(_backoff_delay(max(1, hottest), backoff_base))
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_install_shared,
            initargs=(shared,),
        )
        futures: Dict[Future, int] = {}
        try:
            for i in sorted(pending):
                futures[pool.submit(fn, work[i])] = i
        except BrokenProcessPool:
            # A worker died while the batch was still being submitted (a
            # cell that crashes at once).  The first submit cannot fail
            # this way, and the futures already submitted fail with the
            # same error below, which charges every pending cell.
            pass
        except BaseException as exc:
            _kill_pool(pool)
            if isinstance(exc, _FALLBACK_EXCEPTIONS):
                raise _SerialFallback(exc) from exc
            raise
        recycle = False
        started: Dict[Future, float] = {}
        try:
            not_done: Set[Future] = set(futures)
            while not_done and not recycle:
                now = time.monotonic()
                for f in not_done:
                    if f not in started and f.running():
                        started[f] = now
                timeout = None
                if cell_timeout is not None:
                    deadlines = [
                        started[f] + cell_timeout
                        for f in not_done
                        if f in started
                    ]
                    timeout = (
                        max(0.0, min(deadlines) - now)
                        if deadlines
                        else cell_timeout
                    )
                done, _ = wait(
                    not_done, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for f in done:
                    not_done.discard(f)
                    idx = futures[f]
                    try:
                        value = f.result()
                    except BrokenProcessPool as exc:
                        # A worker died.  Every incomplete cell in this
                        # pool is charged one attempt -- the executor
                        # cannot say which cell the dead worker was
                        # running, and a pool that keeps dying must
                        # eventually exhaust someone's budget rather
                        # than respawn forever.
                        for j in sorted(pending):
                            if results[j] is sentinel:
                                charge(
                                    j,
                                    "crash",
                                    error=f"{type(exc).__name__}: {exc}",
                                )
                        recycle = True
                        break
                    except RETRYABLE_EXCEPTIONS as exc:
                        charge(
                            idx,
                            "cell_error",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        # The pool itself is healthy: resubmit in place.
                        time.sleep(
                            _backoff_delay(attempts[idx], backoff_base)
                        )
                        nf = pool.submit(fn, work[idx])
                        futures[nf] = idx
                        not_done.add(nf)
                        continue
                    except _FALLBACK_EXCEPTIONS as exc:
                        # Pool machinery failure (unpicklable fn or
                        # payload surfaces here) -- or a genuine error
                        # from fn of the same type.  The serial loop
                        # distinguishes them for us: it re-raises real
                        # fn errors and simply works otherwise.
                        raise _SerialFallback(exc) from exc
                    results[idx] = value
                    pending.discard(idx)
                    if on_result is not None:
                        on_result(idx, value)
                if recycle or not not_done:
                    break
                if cell_timeout is None or done:
                    continue
                # Nothing completed within the deadline window: charge
                # every running cell past its deadline and recycle.
                now = time.monotonic()
                expired = [
                    f
                    for f in not_done
                    if f in started
                    and f.running()
                    and now - started[f] >= cell_timeout
                ]
                if not expired:
                    continue
                for f in expired:
                    charge(futures[f], "timeout")
                recycle = True
        except _SerialFallback:
            _kill_pool(pool)
            raise
        except BaseException:
            # Budget exhaustion or an unexpected error: never leave a
            # (possibly hung) pool behind.
            _kill_pool(pool)
            raise
        if recycle:
            generation += 1
            _kill_pool(pool)
            emit(
                "pool.respawn",
                generation=generation,
                n_resubmitted=len(pending),
                workers=workers,
            )
        else:
            pool.shutdown(wait=True)
    return results  # type: ignore[return-value]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: Optional[int] = None,
    telemetry: Optional[Any] = None,
    *,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
    shared: Sequence[Any] = (),
) -> List[R]:
    """Map ``fn`` over ``items`` on a supervised process pool.

    Results are returned in input order.  ``fn`` must be a pure function
    of its argument (every cell task in this package is: the cell seed
    travels inside the argument), so the parallel and serial paths are
    interchangeable, the fallback can simply re-run serially, and a
    crashed or timed-out task can be retried bit-identically.

    Serial execution is used when ``max_workers`` resolves to 1, when
    there are fewer than two items, or when the pool cannot be used at
    all (no OS support, unpicklable ``fn``/items -- e.g. lambda
    factories); the last case emits a one-time :class:`RuntimeWarning`
    naming the callable.  Genuine exceptions raised by ``fn`` itself
    always propagate, re-raised from the serial loop if the pool attempt
    was the one that surfaced them ambiguously.

    Parameters
    ----------
    cell_timeout:
        Per-task deadline in seconds (default: ``REPRO_CELL_TIMEOUT``,
        else none).  A task running past it is declared hung; the pool
        is torn down (terminating the hung worker) and the task retried.
        Unenforceable on the serial path.
    retries:
        How many times a crashed / hung / retryable-faulted task may be
        re-run (default: ``REPRO_RETRIES``, else 2).  Exhaustion raises
        :class:`~repro.errors.CellTimeoutError` or
        :class:`~repro.errors.CellCrashedError`.
    on_result:
        ``on_result(index, result)``, called in the parent as each task
        completes (completion order, not input order).  Sweeps use it to
        checkpoint finished cells into the cache immediately.  Must be
        idempotent per index: the serial fallback re-runs the whole
        batch and fires it again.
    shared:
        Data every task may read, shipped once per worker process
        instead of once per task: inside ``fn``, :func:`shared_data`
        returns it as a tuple (see "Shared task data" in the module
        docstring).  Results must not depend on where it came from.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  Records how the batch
        was dispatched (``dispatch.serial`` / ``dispatch.pool`` /
        ``dispatch.fallback``) and every recovery action
        (``fault.timeout``, ``fault.crash``, ``fault.cell_error``,
        ``fault.retry``, ``fault.giveup``, ``pool.respawn``).
    """
    work: Sequence[T] = list(items)
    shared = tuple(shared)
    workers = default_workers() if max_workers is None else int(max_workers)
    if cell_timeout is None:
        cell_timeout = default_cell_timeout()
    if retries is None:
        retries = default_retries()
    backoff_base = default_backoff_base()
    if workers <= 1 or len(work) <= 1:
        if telemetry is not None:
            telemetry.emit("dispatch.serial", n_tasks=len(work))
        return _serial_run(
            fn, work, shared, retries, backoff_base, telemetry, on_result
        )
    try:
        if telemetry is not None:
            telemetry.emit(
                "dispatch.pool",
                n_tasks=len(work),
                workers=workers,
                cell_timeout=cell_timeout,
                retries=retries,
            )
        return _supervised_pool_run(
            fn,
            work,
            shared,
            workers,
            cell_timeout,
            retries,
            backoff_base,
            telemetry,
            on_result,
        )
    except _SerialFallback as fallback:
        # Pool machinery failed (not necessarily fn itself: pickling
        # errors surface identically).  The serial loop is semantically
        # equivalent and re-raises any genuine error from fn directly.
        exc = fallback.cause
        _warn_serial_fallback(fn, exc)
        if telemetry is not None:
            telemetry.emit(
                "dispatch.fallback",
                n_tasks=len(work),
                error=f"{type(exc).__name__}: {exc}",
            )
        return _serial_run(
            fn, work, shared, retries, backoff_base, telemetry, on_result
        )
