"""Compile-on-demand loader for the C kernels.

One shared object, built from ``src/repro/sim/_batch_kernel.c``, holds
three entry points:

* ``repro_batch_run_rep``, a C transcription of the reference engine's
  tick loop: the fast path of every ``engine="flat"`` run, every
  ``WorkStealingScheduler.run`` and ``run_batch`` call without a
  sampler, traced or not (:mod:`repro.sim.batch_engine`), and every
  streaming run without a utilization window
  (:mod:`repro.sim.stream_engine`);
* ``repro_centralized_run``, a C transcription of the centralized event
  loop: the fast path of every static-priority centralized run and of
  LAS and SRW (:mod:`repro.sim.events`);
* ``repro_p2_update``, a C transcription of the steady-state
  :meth:`~repro.metrics.online.P2Quantile.update`: every
  :meth:`~repro.metrics.online.OnlineFlowStats.observe_many` call, so
  every streaming run's quantile sketches, whichever step ran it.

Nothing is installed and no build backend is required: the source
ships with the package and is compiled once per host with the system C
compiler (``cc`` / ``gcc`` / ``clang``) into a content-addressed shared
object under a per-user cache directory, then loaded with
:mod:`ctypes`.

The kernel is used whenever it builds and loads.  A corrupt or
truncated cached object is deleted and rebuilt once.  Hosts without a
compiler, or whose compiler fails, run each entry point's Python
transcription instead -- bit-identical results, only slower: a
materialized work-stealing run takes the reference engine
(:func:`repro.sim.engine._run_work_stealing`), a stream the stream
driver's Python step (:func:`repro.sim.stream_engine._python_step`), a
centralized run the Python event loop
(:func:`repro.sim.events._run_centralized_reference`) and the P^2
sketches :meth:`~repro.metrics.online.P2Quantile.update`.
:data:`unavailable_reason` records why, and
:mod:`repro.sim.batch_engine` turns it into a one-time
:class:`RuntimeWarning`.  ``REPRO_CEXT_CACHE`` overrides the
shared-object cache directory (default:
``<tempdir>/repro-cext-<uid>``).

The cold build is hidden behind the rest of start-up: importing this
module (the first import of :mod:`repro` and of :mod:`repro.sim`)
starts the compiler in the background when a compiler exists and no
cached object does, and :func:`resolve_batch_kernel` waits on that
build instead of compiling again.  A fork resolves the kernel first
(the :func:`os.register_at_fork` hook in :mod:`repro.sim.batch_engine`),
so forked pool workers inherit it rather than each compiling it, and
interpreter exit finishes an in-flight build so the cache is left warm
and no temporary file behind.

The centralized loop and the P^2 update do floating-point arithmetic
that must round exactly like the Python code they transcribe, so the
build pins :data:`CFLAGS`: ``-ffp-contract=off`` (no fused
multiply-add, which aarch64 compilers emit by default) and never
``-ffast-math``.  The flags are part of the cached object's content
hash, so changing them rebuilds rather than reusing an object built
under other flags.

Resolution is cached per process; tests reset the module globals to
probe each path.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    import numpy as np

#: Victim-draw block size; must match the C kernel's BLOCK constant and
#: UniformVictim's default block (one block = one
#: ``rng.integers(0, m - 1, size=BLOCK)`` call).
BLOCK = 4096

#: Absolute-finish-tick sentinel for idle workers (the C kernel's
#: IDLE_AT; compared against ticks, unlike worker.IDLE).
IDLE_AT = 1 << 62

#: The refill callback signature: C calls it when the draw block is
#: exhausted; Python refills the block in place from the run's Generator
#: (keeping the PCG64 stream bit-identical to the reference).
REFILL_CFUNC = ctypes.CFUNCTYPE(None)

#: Slots of the kernel's int64 state vector (the C kernel's S_* enum):
#: the loop-top scalars (``S_Q_HEAD`` is the FIFO queue's head,
#: ``S_HEAP_N`` the weighted-admission heap's size), the six stat
#: counters, the length of the completion log and the number of trace
#: rows written.
(
    S_T, S_NEXT_ARR, S_NEXT_AT, S_Q_HEAD, S_P, S_N_BUSY, S_COMPLETED,
    S_NF, S_NE_COUNT, S_HEAP_N,
    S_ATT, S_FAIL, S_IDLE, S_ADMWAIT, S_FF, S_MAXQ,
    S_NLOG, S_NTRACE, N_STATE,
) = range(19)

#: Kernel return codes: run complete, ``max_ticks`` reached, the window
#: ran out of arrivals (pull a segment), a checkpoint is due.
DONE, MAX_TICKS, NEED_SEGMENT, CHECKPOINT = range(4)

#: ``ckpt_at`` for a run without checkpoints.
NO_CHECKPOINT = (1 << 63) - 1

#: Slots of the centralized loop's int64 and float64 state vectors
#: (the C kernel's C_* and CF_* enums).
C_STARTED, C_NEXT_ARR, C_N_ACTIVE, C_REMAINING, C_N_EVENTS, C_NROWS, \
    N_CSTATE = range(7)
CF_T, CF_BUSY, N_CFSTATE = range(3)

#: Centralized loop return codes: run complete, trace buffer full (drain
#: it and call again), active jobs with no ready node (a cyclic job).
CR_DONE, CR_TRACE_FULL, CR_STALLED = range(3)

#: Centralized loop key modes (the C kernel's CK_* enum): static ranks,
#: least attained service, shortest remaining work.
CK_RANK, CK_LAS, CK_SRW = range(3)

#: Doubles per sketch in the P^2 update's marker array (the C kernel's
#: P2_STRIDE): five heights, five positions, five desired positions,
#: five desired-position increments.
P2_STRIDE = 20

#: Compiler flags of the kernel build.  Part of the cache key.  -O1, not
#: -O2: both loops are branchy pointer chasing that -O2's extra passes
#: do not speed up (the end-to-end workloads run equally fast), while
#: the cold build sits on the start-up critical path and -O2 takes about
#: 50% longer (0.37 s vs 0.24 s on a 2-vCPU x86-64 host, gcc 12).
CFLAGS = ("-O1", "-ffp-contract=off", "-shared", "-fPIC")


def fresh_state(first_arrival_tick: int) -> np.ndarray:
    """The state vector of a run that has not started.

    Nothing can happen before the first arrival, so the clock starts
    there, with that arrival due.
    """
    import numpy as np  # not at module top: see the import note below

    state = np.zeros(N_STATE, dtype=np.int64)
    state[S_T] = state[S_NEXT_AT] = first_arrival_tick
    state[S_NF] = IDLE_AT
    return state


_KERNEL_SOURCE = Path(__file__).with_name("_batch_kernel.c")

_cext_fn: Any = None
_centralized_fn: Any = None
_p2_fn: Any = None
_cext_resolved = False

#: The compile started at import and not yet waited on, if any.
_pending: Optional["_Build"] = None

#: Why the kernel could not be built or loaded (None while it is usable
#: or not yet resolved).
unavailable_reason: Optional[str] = None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CEXT_CACHE")
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-cext-{uid}"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _bind(lib: ctypes.CDLL) -> Any:
    """Attach argtypes/restype to the three entry points.

    Returns the tick kernel's and stores the centralized loop's in
    ``_centralized_fn`` and the P^2 update's in ``_p2_fn``.
    """
    global _centralized_fn, _p2_fn
    fn = lib.repro_batch_run_rep
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    # 27 array pointers (the last, the trace buffer, may be NULL), 8
    # int64 scalars, speed, state pointer, callback, 3 int64 policy
    # knobs -- the exact order of the C signature.
    fn.argtypes = [ptr] * 27 + [i64] * 8 + [f64, ptr, REFILL_CFUNC] + [i64] * 3
    fn.restype = i64
    cfn = lib.repro_centralized_run
    # 16 array pointers (job_works and attained may be NULL),
    # tr_cap, n, n_nodes, m, key_mode, speed, two state pointers.
    cfn.argtypes = [ptr] * 16 + [i64] * 5 + [f64, ptr, ptr]
    cfn.restype = i64
    pfn = lib.repro_p2_update
    # markers, n_sketches, xs, n.
    pfn.argtypes = [ptr, i64, ptr, i64]
    pfn.restype = None
    _centralized_fn = cfn
    _p2_fn = pfn
    return fn


def _so_path() -> Path:
    """Where the shared object for the current source and flags is cached."""
    h = hashlib.sha256(" ".join(CFLAGS).encode() + b"\0")
    h.update(_KERNEL_SOURCE.read_bytes())
    return _cache_dir() / f"batch_kernel-{h.hexdigest()[:16]}.so"


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class _Build:
    """One running compile of the kernel into ``so_path``.

    The compiler writes a unique temp name that :meth:`finish` renames
    atomically into place: two processes racing to build the same
    kernel both succeed.
    """

    def __init__(self, compiler: str, so_path: Path) -> None:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, self.tmp_name = tempfile.mkstemp(
            suffix=".so", prefix="batch_kernel-", dir=so_path.parent
        )
        os.close(fd)
        self.so_path = so_path
        try:
            self.proc = subprocess.Popen(
                [
                    compiler, *CFLAGS, "-o", self.tmp_name,
                    str(_KERNEL_SOURCE),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except BaseException:
            _unlink_quietly(self.tmp_name)
            raise

    def finish(self) -> None:
        """Wait for the compiler; raises on compiler failure."""
        try:
            out, err = self.proc.communicate()
            if self.proc.returncode != 0:
                raise subprocess.CalledProcessError(
                    self.proc.returncode, self.proc.args, out, err
                )
            os.replace(self.tmp_name, self.so_path)
        except BaseException:
            _unlink_quietly(self.tmp_name)
            raise


def _compile(compiler: str, so_path: Path) -> None:
    """Build the kernel into ``so_path``; raises on compiler failure."""
    _Build(compiler, so_path).finish()


def start_background_build() -> None:
    """Start compiling the kernel without waiting for it.

    Does nothing when the kernel is already resolved, a build is already
    running, no compiler exists, or the shared object is cached.  A
    build that cannot start (an unwritable cache directory, say) is not
    an error here: :func:`resolve_batch_kernel` retries it and records
    why it failed.
    """
    global _pending
    if _cext_resolved or _pending is not None:
        return
    try:
        compiler = _find_compiler()
        if compiler is None:
            return
        so_path = _so_path()
        if not so_path.exists():
            _pending = _Build(compiler, so_path)
    except OSError:
        pass


def _build_and_load() -> Any:
    """Compile (if not cached) and load the kernel; raises on failure.

    Waits on the background build if one is running.  A cached object
    that fails to load (truncated, corrupt, or built for another ABI) is
    unlinked and rebuilt once.
    """
    global _pending
    build, _pending = _pending, None
    if build is not None:
        build.finish()
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    so_path = _so_path()
    if not so_path.exists():
        _compile(compiler, so_path)
    try:
        return _bind(ctypes.CDLL(str(so_path)))
    except (OSError, AttributeError):
        so_path.unlink(missing_ok=True)
        _compile(compiler, so_path)
        return _bind(ctypes.CDLL(str(so_path)))


def resolve_batch_kernel() -> Any:
    """The compiled kernel entry point, or ``None`` when unavailable.

    Resolution is cached per process.  On failure
    :data:`unavailable_reason` names the cause (missing compiler, the
    compiler's own error output, a load error after the rebuild).
    """
    global _cext_fn, _cext_resolved, unavailable_reason
    if _cext_resolved:
        return _cext_fn
    try:
        _cext_fn = _build_and_load()
        unavailable_reason = None
    except Exception as exc:
        detail = str(exc)
        if isinstance(exc, subprocess.CalledProcessError) and exc.stderr:
            detail = exc.stderr.decode(errors="replace").strip()[-500:]
        unavailable_reason = f"{type(exc).__name__}: {detail}"
        _cext_fn = None
    _cext_resolved = True
    return _cext_fn


def resolve_centralized_kernel() -> Any:
    """The compiled centralized loop, or ``None`` when unavailable.

    Resolved with the tick kernel: both entry points live in one shared
    object.
    """
    return None if resolve_batch_kernel() is None else _centralized_fn


def resolve_p2_kernel() -> Any:
    """The compiled P^2 steady-state update, or ``None`` when unavailable.

    Resolved with the tick kernel, like :func:`resolve_centralized_kernel`.
    """
    return None if resolve_batch_kernel() is None else _p2_fn


def _finish_pending_build() -> None:
    """At exit: resolve the kernel if the background build still runs."""
    if _pending is not None:
        resolve_batch_kernel()


atexit.register(_finish_pending_build)
# This module is the first one ``import repro`` loads, and it does not
# import numpy, so the compiler starts before numpy and the rest of the
# package load and the build overlaps all of it.
start_background_build()
