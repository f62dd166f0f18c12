#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the symbols each exposes via
``__all__``, and writes a markdown reference with the first paragraph of
each symbol's docstring.  Run after changing any public API:

    python tools/gen_api_docs.py

The output is committed (docs/API.md) so the reference is browsable
without running anything; a test asserts it is in sync with the code.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.dag",
    "repro.sim",
    "repro.core",
    "repro.speedup",
    "repro.workloads",
    "repro.metrics",
    "repro.theory",
    "repro.experiments",
    "repro.obs",
    "repro.errors",
    "repro.testing",
]

HEADER = """\
# API reference

Every public symbol, by package. Generated by ``tools/gen_api_docs.py``
from the package ``__all__`` lists and docstrings -- regenerate after
any public-API change (a test checks freshness).

## Performance

Experiment entry points (``figure2``, ``repro.sweep``,
``repro.search``/``repro.ablate``) fan their cells across a process
pool via
``repro.experiments.parallel_map``; the worker count resolves from an
explicit ``max_workers=``, then the ``REPRO_JOBS`` environment
variable, then the CPU count. Cell seeds derive from cell coordinates
(``repro.sim.derive_seed``), so parallel and serial runs are
bit-identical; unpicklable callables silently degrade to the serial
loop. The reference tick engine (``repro.run("work-stealing", ...)``)
keeps worker state in structure-of-arrays form (``WorkerArrays``) and
fast-forwards decision-free tick runs losslessly;
``_fast_forward=False`` selects a brute-force variant used by the
equivalence tests.
There is one fast tick kernel: ``repro.sim.run_batch`` evaluates R
replicate ``FlatInstance`` instances, one call each, on an
on-demand-compiled C kernel, bit-identical per rep to the reference
engine (randomized differential oracle,
``tests/sim/test_flat_kernel_equivalence.py``).  ``engine="flat"`` and
every ``WorkStealingScheduler.run`` (so the paper's figures and the
victim-policy, steal-half and weighted-admission ablations) are that
kernel at R=1, consuming the sweep's ``FlatInstance`` instances
directly in workers; a sweep runs one task per (cell, rep), and
``run_batch`` takes R > 1 replicates only when called directly.  A
traced run stays on the kernel, whose trace rows equal the reference
engine's.  Runs with a ``sampler``, and hosts where the kernel cannot
be built, run the reference engine instead and emit a
``dispatch.slow_path`` telemetry event naming the cause; only a
missing kernel also warns, once per process (``kernel=unavailable``).
Centralized schedulers with a static priority (FIFO, BWF, LIFO, SJF,
random priority) run ``run_centralized``'s compiled event loop, the
second entry point of the same C source: Python ranks the jobs by
``(priority key, job id)`` once and C walks the CSR tables.  It does
the Python loop's float operations in the same order and is built
with ``-ffp-contract=off`` (never ``-ffast-math``), so completions,
``n_events``, ``busy_steps`` and trace rows are identical
(``tests/sim/test_centralized_kernel_equivalence.py``).  The Python
loop stays as the oracle and runs ``dynamic=True`` policies (LAS,
SRW) and compiler-less hosts; ``repro.run`` tags those runs
``path="reference"`` and emits ``dispatch.slow_path`` with
``dynamic=True`` or ``kernel=unavailable``. Engine throughput is
tracked in
``BENCH_engine.json`` (regenerate with ``make bench-report``;
``tools/bench_gate.py`` enforces the budgets, including the
``--min-derived`` flat-vs-reference speedup floor).

## Entry point and observability

``repro.run(scheduler, jobset, m=...)`` is the single simulation
entrypoint: it accepts a scheduler instance, class, or engine name
(``"work-stealing"``, ``"flat"``, ``"speedup-fifo"``,
``"speedup-equi"``) and normalizes the historical keyword spellings
(``num_workers``/``m``, ``augmentation``/``speed``). The pre-facade
entry points (``run_work_stealing``, ``run_speedup_fifo``,
``run_speedup_equi``, ``grid_sweep``, ``run_figure2_cells``) were
removed in 1.10.0; use ``repro.run``, ``repro.sweep`` or the figure
entry points. Passing ``telemetry=repro.Telemetry(...)``
-- to ``repro.run``, ``repro.sweep``, ``repro.search``, or
``repro.ablate`` -- records structured JSONL events and run manifests
without changing any result; see ``repro.obs`` below and
docs/OBSERVABILITY.md.

## Sweeps and fault tolerance

``repro.sweep(scheduler, grid, workload, m=...)`` is ``repro.run``'s
grid-scale sibling: the same scheduler forms (instance, class, engine
name, or factory callable) crossed over a parameter grid on the
supervised process pool of ``repro.experiments.parallel`` -- per-cell
deadlines (``cell_timeout=`` / ``REPRO_CELL_TIMEOUT``), bounded
deterministic retries (``retries=`` / ``REPRO_RETRIES``), pool respawn
on worker crashes, incremental checkpointing into the
content-addressed cache (lossless ``resume=True``); each repetition
instance reaches a worker once, as ``parallel_map``'s ``shared`` data,
and tasks carry a repetition index. Failures surface as the typed
hierarchy in ``repro.errors``; recovery actions are recorded as telemetry events
(see docs/ROBUSTNESS.md). ``repro.testing`` holds the deterministic
fault-injection harness the chaos tests drive.

## Sharded sweeps and merge

``repro.sweep(..., shard=(i, n))`` (equivalently ``shard="i/n"``) runs
the ``i``-th of ``n`` contiguous, balanced slices of the grid's
cross-product into its own explicit cache; cell keys and per-cell run
seeds use *global* grid positions, so the disjoint union over all
shards is exactly the unsharded sweep and every shard's cached cells
are byte-identical to the cells a single-host run would write. Each
shard records a ``ShardManifest`` (grid digest, coordinate range,
owned cell keys, host metadata) under ``<cache>/manifests/`` before
running. ``repro.merge_caches`` (CLI: ``python -m repro.experiments
merge-cache``; ledgers: ``merge-telemetry``) combines shard caches
into one resumable cache -- identical overlap merges silently, but the
same key with different content raises
``repro.errors.CacheMergeConflictError`` with provenance from both
sides' manifests. Validation failures raise ``SweepConfigError`` (a
sharded sweep refuses the implicit default cache directory). See
EXPERIMENTS.md (recipe, measured wall times) and docs/ROBUSTNESS.md
(conflict semantics).

## Adaptive experimentation

``repro.search(scheduler, space, workload, m=...)`` answers the
question behind a grid instead of paying for the grid: deterministic
successive halving over the candidate space (round ``r`` evaluates
survivors at ``r0 * eta**r`` repetitions, optional ``refine="ga"``
polish), or -- with ``budget=`` -- bisection of a single sorted axis
for the smallest value whose objective meets the budget, including the
paper's minimum-speed-augmentation question over the ``"speed"`` /
``"augmentation"`` axis (``SearchInfeasibleError`` when nothing
qualifies). ``repro.ablate(scheduler, baseline, deltas, workload,
m=...)`` runs a baseline plus named single-knob deltas (scheduler
params, ``m``/``num_workers``, ``speed``/``augmentation``,
``workload.<field>``, or a ``scheduler`` swap) on identical instances
and ranks the impact. Both accept every scheduler form ``repro.run``
takes, route every evaluation through the content-addressed cell cache
with *global* cell identity (adaptive cells are byte-identical to
exhaustive-sweep cells; reruns are nearly free), and emit
``search.*`` / ``ablate.*`` telemetry. CLI: ``python -m
repro.experiments search | ablate``; exit codes in
``repro.experiments.exitcodes``; cross-process determinism is gated in
CI by ``tools/search_smoke.py``. See EXPERIMENTS.md ("Ask a question,
not a grid").
"""


def first_paragraph(doc: str | None) -> str:
    """The docstring's first paragraph, flattened to one line."""
    if not doc:
        return "(undocumented)"
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def describe(obj: object) -> str:
    """Symbol kind tag for the reference table."""
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    if callable(obj):
        return "callable"
    return type(obj).__name__


def generate() -> str:
    sections = [HEADER]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        doc_line = first_paragraph(pkg.__doc__)
        sections.append(f"\n## `{pkg_name}`\n\n{doc_line}\n")
        names = sorted(getattr(pkg, "__all__", []))
        if pkg_name == "repro":
            # The root re-exports subpackage symbols; skip the duplicates
            # and document only the version marker it owns.
            sections.append(
                f"Re-exports the most-used symbols of every subpackage "
                f"({len(names)} names) plus ``__version__``.\n"
            )
            continue
        rows = ["| symbol | kind | summary |", "|---|---|---|"]
        for name in names:
            obj = getattr(pkg, name)
            summary = first_paragraph(getattr(obj, "__doc__", None))
            if len(summary) > 120:
                summary = summary[:117] + "..."
            summary = summary.replace("|", "\\|")
            rows.append(f"| `{name}` | {describe(obj)} | {summary} |")
        sections.append("\n".join(rows) + "\n")
    return "\n".join(sections)


def main() -> int:
    out = Path(__file__).resolve().parents[1] / "docs" / "API.md"
    text = generate()
    if "--check" in sys.argv:
        if not out.exists() or out.read_text() != text:
            print("docs/API.md is stale; run: python tools/gen_api_docs.py")
            return 1
        print("docs/API.md is up to date")
        return 0
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
