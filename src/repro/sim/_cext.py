"""Compile-on-demand loader for the C tick kernel.

The fast path of every ``engine="flat"`` run and every batched sweep
cell (:mod:`repro.sim.batch_engine`) is a C transcription of the
reference engine's native-scope semantics
(``src/repro/sim/_batch_kernel.c``).  Nothing is installed and no build
backend is required: the source ships with the package and is compiled
once per host with the system C compiler (``cc`` / ``gcc`` / ``clang``)
into a content-addressed shared object under a per-user cache
directory, then loaded with :mod:`ctypes`.

The kernel is used whenever it builds and loads.  A corrupt or
truncated cached object is deleted and rebuilt once.  Hosts without a
compiler, or whose compiler fails, run the reference engine instead --
bit-identical results, only slower; :data:`unavailable_reason` records
why, and :mod:`repro.sim.batch_engine` turns it into a one-time
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
from typing import Any, Optional

#: Victim-draw block size; must match the C kernel's BLOCK constant and
#: UniformVictim's default block (one block = one
#: ``rng.integers(0, m - 1, size=BLOCK)`` call).
BLOCK = 4096

#: Absolute-finish-tick sentinel for idle workers (the C kernel's
#: IDLE_AT; compared against ticks, unlike worker.IDLE).
IDLE_AT = 1 << 62

#: The refill callback signature: C hands back the replicate index whose
#: draw block is exhausted; Python refills it in place from that rep's
#: Generator (keeping the PCG64 stream bit-identical to the reference).
REFILL_CFUNC = ctypes.CFUNCTYPE(None, ctypes.c_int64)

_KERNEL_SOURCE = Path(__file__).with_name("_batch_kernel.c")

_cext_fn: Any = None
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
    """Attach argtypes/restype to the kernel entry point."""
    fn = lib.repro_batch_run_rep
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    # 21 array pointers, 5 int64 scalars, speed, io pointer, callback,
    # rep index -- the exact order of the C signature.
    fn.argtypes = (
        [ptr] * 21 + [i64] * 5 + [ctypes.c_double, ptr, REFILL_CFUNC, i64]
    )
    fn.restype = i64
    return fn


def _so_path() -> Path:
    """Where the shared object for the current kernel source is cached."""
    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes()).hexdigest()[:16]
    return _cache_dir() / f"batch_kernel-{digest}.so"


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
                    compiler, "-O2", "-shared", "-fPIC", "-o",
                    self.tmp_name, str(_KERNEL_SOURCE),
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


def _finish_pending_build() -> None:
    """At exit: resolve the kernel if the background build still runs."""
    if _pending is not None:
        resolve_batch_kernel()


atexit.register(_finish_pending_build)
start_background_build()
