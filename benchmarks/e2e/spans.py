"""Span tracing for the end-to-end benchmark's traced runs.

Spans are recorded only from this directory, by wrapping the program's
layer boundaries -- the public classes and functions each layer exposes
-- for the duration of the traced passes, then restoring the originals.
The program itself is never edited and never sees the tracer.

A span records a name (``layer.kind``), start, end, parent span, run id
(the pass it belongs to), process id and a few attributes read from the
call's arguments or result (job counts, tick counts, bytes).  Spans stay
in memory.  Sweep pool workers are forked from the traced process, so
they inherit the wrappers; each worker drops the spans it inherited,
records its own and writes them to a per-pid file when it exits, and the
parent merges those files after the run (:meth:`Tracer.worker_spans`).

A layer's self time is its span time minus the part its same-process
child spans cover.  :func:`pass_metrics` turns one pass's spans into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import pkgutil
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

#: The tracer of this process while one is installed.  Pool tasks are
#: unpickled in the worker by import path, so :class:`TaskFn` can only
#: reach the worker's (inherited) tracer through the module.
_ACTIVE: Optional["Tracer"] = None

#: Engine spans: each is one simulation (``sim.batch``: one per rep).
WS_ENGINES = ("sim.reference", "sim.flat", "sim.batch", "sim.stream")
FAST_ENGINES = ("sim.flat", "sim.batch", "sim.stream")
ENGINES = WS_ENGINES + ("sim.centralized",)


def _n_jobs(instance: Any) -> int:
    n = getattr(instance, "n_jobs", None)
    if n is not None:
        return int(n)
    try:
        return len(instance)
    except TypeError:
        return 0


def _first(args: tuple, kwargs: dict, name: str) -> Any:
    return args[0] if args else kwargs.get(name)


def _stats_attrs(results: Iterable[Any]) -> Dict[str, int]:
    ticks = steals = 0
    for res in results:
        stats = getattr(res, "stats", None)
        if stats is None:
            continue
        if stats.ff_skipped_ticks is not None:
            ticks += stats.elapsed_ticks - stats.ff_skipped_ticks
        steals += stats.steal_attempts or 0
    return {"ticks": ticks, "steals": steals}


def _engine_attrs(args, kwargs, out) -> Dict[str, Any]:
    return {"jobs": _n_jobs(_first(args, kwargs, "jobset")), "reps": 1,
            **_stats_attrs([out])}


def _batch_attrs(args, kwargs, out) -> Dict[str, Any]:
    instances = list(_first(args, kwargs, "instances"))
    return {"jobs": sum(_n_jobs(i) for i in instances),
            "reps": len(instances), **_stats_attrs(out)}


def _stream_attrs(args, kwargs, out) -> Dict[str, Any]:
    return {"jobs": int(out.n_jobs), "reps": 1, **_stats_attrs([out])}


def _jobs_out(args, kwargs, out) -> Dict[str, Any]:
    # adversarial_instance returns (jobset, m); the others an instance.
    inst = out[0] if isinstance(out, tuple) else out
    return {"jobs": 0 if inst is None else _n_jobs(inst)}


def _publish_attrs(args, kwargs, out) -> Dict[str, Any]:
    flat = args[1] if len(args) > 1 else kwargs.get("flat")
    return {"bytes": int(getattr(flat, "nbytes", 0))}


def _load_attrs(args, kwargs, out) -> Dict[str, Any]:
    return {"hit": out is not None}


def _store_attrs(args, kwargs, out) -> Dict[str, Any]:
    try:
        size = os.path.getsize(out)
    except (OSError, TypeError):
        size = 0
    return {"bytes": size}


def _grid_attrs(args, kwargs, out) -> Dict[str, Any]:
    return {"cells": len(out.cells), "rep_tasks": int(out.n_cold)}


def _fig2_cells_attrs(args, kwargs, out) -> Dict[str, Any]:
    scale = args[2] if len(args) > 2 else kwargs["scale"]
    return {"cells": len(out), "rep_tasks": len(out) * scale.reps}


#: (module, function, span name, attribute reader): the layer entry
#: points, wrapped in their module and in every module that imported them.
FUNCTIONS = (
    ("repro.core.opt", "opt_lower_bound", "core.opt", None),
    ("repro.sim.engine", "_run_work_stealing", "sim.reference", _engine_attrs),
    ("repro.sim.flat_engine", "_run_flat", "sim.flat", _engine_attrs),
    ("repro.sim.batch_engine", "run_batch", "sim.batch", _batch_attrs),
    ("repro.sim.stream_engine", "_run_stream", "sim.stream", _stream_attrs),
    ("repro.sim.events", "run_centralized", "sim.centralized", _engine_attrs),
    ("repro.speedup.engine", "_run_speedup", "speedup.run", None),
    ("repro.speedup.convert", "jobset_to_speedup", "speedup.convert", None),
    ("repro.workloads.adversarial", "adversarial_instance", "workloads.gen",
     _jobs_out),
    ("repro.workloads.weights", "class_weights", "workloads.weights", None),
    ("repro.workloads.weights", "reweight", "workloads.weights", None),
    ("repro.dag.flat", "flatten_jobset", "dag.flatten", None),
    ("repro.dag.flat", "to_jobset", "dag.to_jobset", None),
    ("repro.experiments.sweep", "_grid_sweep", "sweep.grid", _grid_attrs),
    ("repro.experiments.runner", "_run_figure2_cells", "sweep.fig2",
     _fig2_cells_attrs),
)

#: (module, class, method, span name, attribute reader).
METHODS = (
    ("repro.workloads.generator", "WorkloadSpec", "build", "workloads.gen",
     _jobs_out),
    ("repro.workloads.generator", "WorkloadSpec", "build_flat",
     "workloads.gen", _jobs_out),
    ("repro.workloads.stream", "StreamCursor", "next_segment",
     "workloads.gen", _jobs_out),
    ("repro.experiments.parallel", "SharedInstance", "__init__",
     "parallel.publish", _publish_attrs),
    ("repro.experiments.cache", "SweepCache", "load_instance", "cache.load",
     _load_attrs),
    ("repro.experiments.cache", "SweepCache", "load_cell", "cache.load",
     _load_attrs),
    ("repro.experiments.cache", "SweepCache", "store_instance", "cache.store",
     _store_attrs),
    ("repro.experiments.cache", "SweepCache", "store_cell", "cache.store",
     _store_attrs),
)


class TaskFn:
    """Picklable wrapper recording one ``parallel.task`` span per task."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:
            return self.fn(item)
        return tracer.call("parallel.task", self.fn, (item,), {})


class Tracer:
    """Records spans around the program's layer boundaries.

    ``out_dir`` receives the per-pid span files of forked pool workers.
    Create it before any pool forks; :meth:`install` patches the layers,
    :meth:`uninstall` restores them.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[Dict[str, Any]] = []
        self.run_id: Optional[str] = None
        self.pid = os.getpid()
        #: Targets not wrapped, and attribute readers that failed.
        self.problems: List[str] = []
        self._stack: List[str] = []
        self._count = 0
        self._patches: List[tuple] = []
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    # -- recording -----------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Optional[Callable] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        self._count += 1
        span_id = f"{self.pid}.{self._count}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._record(span_id, parent, name, t0, {"error": True})
            raise
        finally:
            self._stack.pop()
        self._record(span_id, parent, name, t0, None)
        if attrs is not None:
            try:
                self.spans[-1]["attrs"] = attrs(args, kwargs, out)
            except Exception as exc:  # the traced call itself succeeded
                problem = f"{name} attributes: {type(exc).__name__}: {exc}"
                if problem not in self.problems:
                    self.problems.append(problem)
        return out

    def _record(self, span_id, parent, name, t0, attrs) -> None:
        self.spans.append({
            "id": span_id, "parent": parent, "name": name,
            "start": t0, "end": time.perf_counter(),
            "run": self.run_id, "pid": self.pid, "attrs": attrs or {},
        })

    def _in_worker(self) -> None:
        # Runs in a freshly forked multiprocessing child (a pool worker):
        # keep the open-span stack (it names the parent span) but drop
        # the parent's finished spans, and write this worker's spans out
        # when it exits.
        self.pid = os.getpid()
        self.spans = []
        self._count = 0
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans to a per-pid file and forget them."""
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}-{uuid.uuid4().hex[:8]}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def worker_spans(self) -> List[Dict[str, Any]]:
        """Every span written by pool workers so far."""
        out: List[Dict[str, Any]] = []
        for path in sorted(self.out_dir.glob("spans-*.json")):
            out.extend(json.loads(path.read_text()))
        return out

    # -- patching ------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str,
                 attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper

    def wrap_function(self, module: str, attr: str, name: str,
                      attrs: Optional[Callable] = None,
                      wrapper: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's alias of it.

        ``wrapper(original)`` builds the replacement; by default a span
        named ``name`` around the call.
        """
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.problems.append(f"{module}.{attr}")
            return
        replacement = (wrapper(original) if wrapper is not None
                       else self._wrapper(original, name, attrs))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def wrap_method(self, cls: Optional[type], attr: str, name: str,
                    attrs: Optional[Callable] = None,
                    label: str = "") -> None:
        """Wrap the method ``attr`` that ``cls`` itself defines."""
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.problems.append(label or f"{cls}.{attr}")
            return
        setattr(cls, attr, self._wrapper(original, name, attrs))
        self._patches.append((cls, attr, original))

    def _parallel_map(self, original: Callable) -> Callable:
        """``parallel.map`` span whose tasks record ``parallel.task``."""
        module = sys.modules[original.__module__]
        default_workers = getattr(module, "default_workers", os.cpu_count)

        def attrs(args, kwargs, out):
            items = args[1]
            width = kwargs.get("max_workers") or default_workers()
            return {"tasks": len(items),
                    "workers": 1 if len(items) <= 1 else max(1, width)}

        @functools.wraps(original)
        def wrapper(fn, items, *args, **kwargs):
            return self.call("parallel.map", original,
                             (TaskFn(fn), list(items)) + args, kwargs, attrs)

        return wrapper

    def install(self) -> None:
        """Patch every layer boundary in :data:`FUNCTIONS`, :data:`METHODS`,
        every ``Scheduler.run`` and the ``repro.metrics`` functions.

        A target the program no longer has is skipped and listed in
        :attr:`problems`; its layer then reads 0.
        """
        global _ACTIVE
        import repro

        # Import the whole package first, so every module's alias of a
        # wrapped function and every Scheduler subclass gets patched.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            try:
                importlib.import_module(info.name)
            except Exception:  # optional or broken module: not traced
                pass
        for module, attr, name, attrs in FUNCTIONS:
            self.wrap_function(module, attr, name, attrs)
        self.wrap_function("repro.experiments.parallel", "parallel_map",
                           "parallel.map", wrapper=self._parallel_map)
        for module, cls_name, attr, name, attrs in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            self.wrap_method(cls, attr, name, attrs,
                             f"{module}.{cls_name}.{attr}")
        base = getattr(sys.modules.get("repro.core.base"), "Scheduler", None)
        pending = list(base.__subclasses__()) if base is not None else []
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "run" in vars(cls):
                self.wrap_method(cls, "run", "core.sched")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro.metrics."):
                continue
            for key, value in list(vars(module).items()):
                if (callable(value) and not key.startswith("_")
                        and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod_name):
                    self.wrap_function(mod_name, key, "metrics.fn")
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        _ACTIVE = None


# ----------------------------------------------------------------------
# Per-pass aggregation
# ----------------------------------------------------------------------


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the same-process children's durations."""
    child_time: Dict[str, float] = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[parent["id"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]]
            for s in spans}


def _outermost(spans: List[Dict[str, Any]], prefix: Iterable[str],
               ) -> List[Dict[str, Any]]:
    """Spans named in ``prefix`` with no ancestor also named there."""
    names = tuple(prefix)
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if not s["name"].startswith(names):
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and not parent["name"].startswith(names):
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def coverage_gaps(spans: List[Dict[str, Any]], root: Dict[str, Any],
                  ) -> List[tuple]:
    """Uncovered intervals of ``root``: (seconds, span before, span after)."""
    top = sorted((s for s in spans if s["parent"] == root["id"]),
                 key=lambda s: s["start"])
    gaps = []
    cursor, before = root["start"], "pass start"
    for s in top:
        if s["start"] > cursor:
            gaps.append((s["start"] - cursor, before, s["name"]))
        if s["end"] > cursor:
            cursor, before = s["end"], s["name"]
    if root["end"] > cursor:
        gaps.append((root["end"] - cursor, before, "pass end"))
    return gaps


def pass_metrics(spans: List[Dict[str, Any]],
                 roots: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``spans`` holds every span of the pass from every process; ``roots``
    are the benchmark's own ``pass.*`` spans around the workload's
    entry-point calls, whose direct children are the top-level layer
    calls.  Coverage is the share of the roots' time those children
    cover: the layers' summed self time over the wall time.
    """
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_s(*names: str) -> float:
        return sum(own[s["id"]] for n in names for s in by_name[n])

    def total_s(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr_sum(spans_: Iterable[Dict[str, Any]], key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in spans_)

    sims = _outermost(spans, ENGINES)
    sim_jobs = attr_sum(sims, "jobs")
    fast_jobs = attr_sum((s for s in sims if s["name"] in FAST_ENGINES),
                         "jobs")
    ticks = attr_sum(sims, "ticks")
    gens = _outermost(spans, ("workloads.gen",))
    maps = by_name["parallel.map"]
    capacity = sum((s["end"] - s["start"]) * s["attrs"].get("workers", 1)
                   for s in maps)
    busy = total_s("parallel.task")
    loads = by_name["cache.load"]
    sweeps = _outermost(spans, ("sweep.",))
    rep_tasks = attr_sum(sweeps, "rep_tasks")
    batched = attr_sum(_outermost(spans, ("sim.batch",)), "reps")
    root_ids = {r["id"] for r in roots}
    pass_wall = sum(r["end"] - r["start"] for r in roots)
    covered = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] in root_ids)
    return {
        "sim.kernel_s": self_s(*ENGINES),
        "sim.reference_s": self_s("sim.reference"),
        "sim.flat_s": self_s("sim.flat"),
        "sim.batch_s": self_s("sim.batch"),
        "sim.stream_s": self_s("sim.stream"),
        "sim.centralized_s": self_s("sim.centralized"),
        "sim.runs": attr_sum(sims, "reps"),
        "sim.fast_share": fast_jobs / sim_jobs if sim_jobs else 0.0,
        "sim.ticks": ticks,
        "sim.ns_per_tick": (self_s(*WS_ENGINES) / ticks * 1e9
                            if ticks else 0.0),
        "sim.steal_attempts": attr_sum(sims, "steals"),
        "workloads.gen_s": self_s("workloads.gen", "workloads.weights"),
        "workloads.gen_calls": len(gens),
        "workloads.jobs_generated": attr_sum(gens, "jobs"),
        "dag.flatten_s": self_s("dag.flatten"),
        "dag.flatten_calls": len(by_name["dag.flatten"]),
        "dag.to_jobset_s": self_s("dag.to_jobset"),
        "parallel.map_s": self_s("parallel.map"),
        "parallel.tasks": attr_sum(maps, "tasks"),
        "parallel.worker_busy_s": busy,
        "parallel.utilization": busy / capacity if capacity else 0.0,
        "parallel.publish_s": self_s("parallel.publish"),
        "parallel.publish_bytes": attr_sum(by_name["parallel.publish"],
                                           "bytes"),
        "cache.load_s": self_s("cache.load"),
        "cache.loads": len(loads),
        "cache.hit_ratio": (sum(1 for s in loads if s["attrs"].get("hit"))
                            / len(loads) if loads else 0.0),
        "cache.store_s": self_s("cache.store"),
        "cache.stores": len(by_name["cache.store"]),
        "cache.bytes_written": attr_sum(by_name["cache.store"], "bytes"),
        "sweep.s": self_s("sweep.grid", "sweep.fig2"),
        "sweep.cells": attr_sum(sweeps, "cells"),
        "sweep.rep_tasks": rep_tasks,
        "sweep.batched_share": (min(1.0, batched / rep_tasks)
                                if rep_tasks else 0.0),
        "core.opt_s": self_s("core.opt"),
        "core.opt_calls": len(by_name["core.opt"]),
        "core.sched_s": self_s("core.sched"),
        "speedup.s": self_s("speedup.run", "speedup.convert"),
        "metrics.s": self_s("metrics.fn"),
        "trace.coverage": covered / pass_wall if pass_wall else 0.0,
    }
