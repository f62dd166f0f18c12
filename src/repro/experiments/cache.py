"""Content-addressed on-disk cache for instances and sweep-cell results.

Sweeps recompute two kinds of artifacts on every rerun: generated
instances (a pure function of spec + derived seed) and per-cell metric
values (a pure function of instance content + scheduler parameters +
run seed).  Both are therefore safely cacheable by *content key*:

* instances are stored as flat ``.npz`` archives
  (:mod:`repro.dag.flat`) under ``<cache>/instances/<key>.npz``, keyed
  by the workload's spec hash + derived seed
  (:meth:`repro.workloads.generator.WorkloadSpec.cache_key`);
* cell results are stored as JSON under ``<cache>/cells/<key>.json``,
  keyed by the sha256 of the instance's content hash plus every run
  coordinate (scheduler identity and parameters, ``m``, ``speed``, run
  seed, metric names).

Because keys are derived from content and coordinates -- never from
wall-clock time or execution order -- a cache hit is bit-identical to
recomputation: JSON round-trips Python floats exactly (``repr`` is
shortest-round-trip in Python 3), and the flat format round-trips
instances exactly.  ``--resume`` therefore cannot change a single
number; ``tests/experiments/test_cache.py`` asserts it.

**The one cache-directory precedence rule** (first match wins,
everywhere -- API, CLI, sharded or not): an explicit argument /
``--cache-dir`` flag, then the ``REPRO_CACHE`` environment variable,
then the default ``.repro_cache/`` under the current directory.
:func:`resolve_cache_dir` is the single implementation; nothing else in
the package reads ``REPRO_CACHE``.  Two deliberate exceptions refuse to
fall through to the *default* instead of silently picking it: a
**sharded** sweep (``shard=`` set, no explicit cache, no ``REPRO_CACHE``)
raises :class:`~repro.errors.SweepConfigError`, because ``n`` shards
landing in the same implicit ``.repro_cache`` on one host -- or
different implicit dirs on ``n`` hosts that the operator never learns
the names of -- defeats the merge step; likewise
:func:`~repro.experiments.shard.merge_caches` requires every source to
exist and the destination to differ from all sources.  ``make
clean-cache`` (or :meth:`SweepCache.clear`) wipes the resolved
directory, including ``manifests/`` and any checkpoint/``.tmp``
sidecars, so a cleared cache cannot poison a later merge.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.dag.flat import FlatInstance, load_flat, save_flat
from repro.errors import CacheCorruptError

__all__ = [
    "CACHE_ENV",
    "CELL_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "RESUME_ENV",
    "SweepCache",
    "cell_key",
    "resolve_cache_dir",
    "resume_enabled_by_env",
]

PathLike = Union[str, Path]

#: Environment variable overriding the default cache directory.
CACHE_ENV = "REPRO_CACHE"

#: Environment variable enabling resume mode in the CLI path.
RESUME_ENV = "REPRO_RESUME"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Version stamp in cell files; bump on any result-format change so
#: stale caches miss instead of misparse.
CELL_SCHEMA = "repro-cell/1"


def resolve_cache_dir(explicit: Optional[PathLike] = None) -> Path:
    """Resolve the cache directory: explicit > ``REPRO_CACHE`` > default."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def resume_enabled_by_env() -> bool:
    """Whether ``REPRO_RESUME`` requests resume mode (CLI ``--resume``)."""
    value = os.environ.get(RESUME_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no")


def cell_key(*components: Any) -> str:
    """Hash arbitrary run coordinates into a cell-result key.

    Components are rendered with ``repr`` and joined with a separator
    that cannot appear inside a repr boundary ambiguity; callers pass
    every coordinate the result depends on (instance content hash,
    scheduler token, params, m, speed, run seed, metric names).
    """
    text = "\x1f".join(repr(c) for c in components)
    return hashlib.sha256(text.encode()).hexdigest()


class SweepCache:
    """Filesystem-backed instance + cell-result store (see module doc).

    All writes are atomic (temp file + rename), so a cache shared by
    concurrent sweep processes never exposes torn files; losing a race
    merely rewrites identical content.
    """

    def __init__(
        self, root: Optional[PathLike] = None, telemetry: Optional[Any] = None
    ) -> None:
        self.root = resolve_cache_dir(root)
        #: Optional :class:`repro.obs.Telemetry`; when bound (directly or
        #: by ``repro.sweep(telemetry=...)``), every load/store emits a
        #: ``cache.*`` event.  Never affects what is stored or returned.
        self.telemetry = telemetry

    def _emit(self, event: str, **fields: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event, **fields)

    @property
    def instances_dir(self) -> Path:
        return self.root / "instances"

    @property
    def cells_dir(self) -> Path:
        return self.root / "cells"

    @property
    def manifests_dir(self) -> Path:
        """Provenance dir: run manifests and shard manifests live here."""
        return self.root / "manifests"

    # -- instances --------------------------------------------------------

    def instance_path(self, key: str) -> Path:
        return self.instances_dir / f"{key}.npz"

    def load_instance(
        self, key: str, strict: bool = False
    ) -> Optional[FlatInstance]:
        """The cached flat instance for ``key``, or None on a miss.

        A corrupt or truncated file (interrupted writer on a foreign
        filesystem) counts as a miss: the caller regenerates and
        overwrites it.  With ``strict=True`` corruption raises
        :class:`~repro.errors.CacheCorruptError` instead, so integrity
        audits can tell a torn file from an absent one.
        """
        path = self.instance_path(key)
        if not path.exists():
            self._emit("cache.instance_miss", key=key)
            return None
        try:
            flat = load_flat(path)
        except Exception as exc:
            self._emit("cache.instance_miss", key=key, corrupt=True)
            if strict:
                raise CacheCorruptError(
                    f"cached instance {path} is unreadable: {exc}"
                ) from exc
            return None
        self._emit("cache.instance_hit", key=key)
        return flat

    def store_instance(self, key: str, flat: FlatInstance) -> Path:
        path = self.instance_path(key)
        self.instances_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.instances_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb"):
                pass
            save_flat(flat, tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._emit(
            "cache.instance_store", key=key, nbytes=path.stat().st_size
        )
        return path

    # -- cell results -----------------------------------------------------

    def cell_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.json"

    def load_cell(
        self, key: str, strict: bool = False
    ) -> Optional[Dict[str, float]]:
        """The cached metric dict for ``key``, or None on a miss.

        With ``strict=True`` an unparseable entry raises
        :class:`~repro.errors.CacheCorruptError` instead of counting as
        a miss (a stale-but-wellformed schema still misses: that is
        versioning, not corruption).
        """
        path = self.cell_path(key)
        if not path.exists():
            self._emit("cache.cell_miss", key=key)
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            self._emit("cache.cell_miss", key=key, corrupt=True)
            if strict:
                raise CacheCorruptError(
                    f"cached cell {path} is unreadable: {exc}"
                ) from exc
            return None
        if data.get("schema") != CELL_SCHEMA:
            self._emit("cache.cell_miss", key=key, stale_schema=True)
            return None
        self._emit("cache.cell_hit", key=key)
        return {str(k): float(v) for k, v in data["metrics"].items()}

    def store_cell(self, key: str, metrics: Dict[str, float]) -> Path:
        from repro.testing.faults import maybe_inject

        maybe_inject("cache")
        path = self.cell_path(key)
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        # Key order is preserved (not sorted): consumers iterate metric
        # dicts in insertion order (e.g. figure series follow the
        # scheduler lineup), and a resumed cell must render exactly
        # like a computed one.
        payload = json.dumps({"schema": CELL_SCHEMA, "metrics": metrics})
        fd, tmp = tempfile.mkstemp(dir=self.cells_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._emit("cache.cell_store", key=key)
        return path

    # -- maintenance ------------------------------------------------------

    def clear(self) -> None:
        """Delete the whole cache directory, *everything* under it
        (idempotent): instances, cells, ``manifests/`` (run + shard
        provenance), checkpoint sidecars, stray ``.tmp`` files.

        Completeness matters for merges: a "cleared" cache that kept a
        stale shard manifest or a half-written ``.tmp`` sidecar would
        feed wrong provenance (or be mistaken for data) when later
        merged into another cache.  A symlinked root is cleared through
        the link -- the target's contents are removed and the link
        itself unlinked -- because ``rmtree`` on a symlink would
        otherwise silently delete nothing.
        """
        root = self.root
        if root.is_symlink():
            target = root.resolve()
            if target.is_dir():
                shutil.rmtree(target, ignore_errors=True)
            root.unlink(missing_ok=True)
            return
        shutil.rmtree(root, ignore_errors=True)

    def stats(self) -> Dict[str, int]:
        """Entry counts, for logs and the CLI cache summary."""
        return {
            "instances": (
                len(list(self.instances_dir.glob("*.npz")))
                if self.instances_dir.is_dir()
                else 0
            ),
            "cells": (
                len(list(self.cells_dir.glob("*.json")))
                if self.cells_dir.is_dir()
                else 0
            ),
            "manifests": (
                len(list(self.manifests_dir.glob("*.json")))
                if self.manifests_dir.is_dir()
                else 0
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepCache(root={str(self.root)!r})"
