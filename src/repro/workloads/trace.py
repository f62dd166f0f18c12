"""Trace replay: build instances from externally recorded request logs.

The paper's workloads come from production request logs (Bing, finance).
When a user has their *own* log -- one line per request with an arrival
timestamp and a measured work amount -- this module turns it into a
:class:`~repro.dag.job.JobSet` with the same parallel-for job shape the
generator uses, so recorded traffic can be replayed through every
scheduler.

Two input forms:

* in-memory arrays via :func:`jobset_from_trace`;
* CSV files via :func:`load_trace_csv` (columns
  ``arrival_s, work_ms[, weight]``, header optional).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.dag.flat import to_jobset
from repro.dag.job import JobSet
from repro.workloads.generator import _parallel_for_flat

PathLike = Union[str, Path]


def jobset_from_trace(
    arrivals_s: Sequence[float],
    works_ms: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    units_per_ms: float = 4.0,
    target_chunks: int = 32,
    setup_units: int = 1,
    finalize_units: int = 1,
) -> JobSet:
    """Build a JobSet from parallel arrays of arrivals and works.

    Parameters
    ----------
    arrivals_s:
        Request arrival times in **seconds** (any non-decreasing or
        unordered sequence; jobs are sorted on construction).
    works_ms:
        Per-request **total** work in milliseconds of one core.  The
        serial setup/finalize nodes are carved out of this total (a
        trace records what the request cost, overheads included), so a
        replayed job's total work equals the recorded amount whenever
        it is at least ``setup + finalize + 1`` units.
    weights:
        Optional priorities; defaults to 1.0.
    units_per_ms, target_chunks, setup_units, finalize_units:
        Same shape parameters as
        :class:`~repro.workloads.generator.WorkloadSpec`.

    Time base: like the generator, one simulation time unit equals
    ``1 / units_per_ms`` milliseconds, so arrivals are converted with
    ``seconds * 1000 * units_per_ms``.
    """
    arrivals_s = np.asarray(arrivals_s, dtype=np.float64)
    works_ms = np.asarray(works_ms, dtype=np.float64)
    if arrivals_s.shape != works_ms.shape or arrivals_s.ndim != 1:
        raise ValueError(
            f"arrivals {arrivals_s.shape} and works {works_ms.shape} must "
            "be parallel 1-D arrays"
        )
    if arrivals_s.size == 0:
        raise ValueError("a trace must contain at least one request")
    if not np.all(np.isfinite(arrivals_s) & (arrivals_s >= 0)):
        raise ValueError("arrival_s must be finite and non-negative")
    if not np.all(np.isfinite(works_ms) & (works_ms > 0)):
        raise ValueError("work_ms must be finite and positive")
    if units_per_ms <= 0:
        raise ValueError(f"units_per_ms must be positive, got {units_per_ms}")
    if target_chunks < 1:
        raise ValueError(f"target_chunks must be >= 1, got {target_chunks}")
    if min(setup_units, finalize_units) < 1:
        raise ValueError(
            f"setup_units and finalize_units must be >= 1, got "
            f"{setup_units} and {finalize_units}"
        )
    if weights is None:
        weights_arr = np.ones_like(works_ms)
    else:
        weights_arr = np.asarray(weights, dtype=np.float64)
        if weights_arr.shape != works_ms.shape:
            raise ValueError("weights must parallel the trace arrays")

    overhead = setup_units + finalize_units
    units = np.maximum(overhead + 1, np.rint(works_ms * units_per_ms))
    if not np.all(units < 2.0**63):
        raise ValueError("work_ms too large: units must fit in int64")
    arrival_units = arrivals_s * 1000.0 * units_per_ms
    # JobSet order: by arrival, ties by trace position.
    order = np.argsort(arrival_units, kind="stable")
    return to_jobset(
        _parallel_for_flat(
            units.astype(np.int64)[order] - overhead,
            arrival_units[order],
            weights=weights_arr[order],
            target_chunks=target_chunks,
            setup_units=setup_units,
            finalize_units=finalize_units,
        )
    )


def load_trace_csv(
    path: PathLike,
    units_per_ms: float = 4.0,
    target_chunks: int = 32,
) -> JobSet:
    """Load a request log from CSV: ``arrival_s, work_ms[, weight]``.

    A first line whose fields do not parse as numbers is treated as a
    header and skipped.  Blank lines are ignored.
    """
    arrivals: List[float] = []
    works: List[float] = []
    weights: List[float] = []
    saw_weight_column = False
    with open(path, newline="") as fh:
        for row_num, row in enumerate(csv.reader(fh)):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                values = [float(cell) for cell in row[:3]]
            except ValueError:
                if row_num == 0:
                    continue  # header
                raise ValueError(
                    f"{path}: line {row_num + 1}: non-numeric field in {row!r}"
                )
            if len(values) < 2:
                raise ValueError(
                    f"{path}: line {row_num + 1}: need at least "
                    f"arrival_s, work_ms -- got {row!r}"
                )
            arrivals.append(values[0])
            works.append(values[1])
            if len(values) >= 3:
                saw_weight_column = True
                weights.append(values[2])
            else:
                weights.append(1.0)
    if not arrivals:
        raise ValueError(f"{path}: trace contains no requests")
    return jobset_from_trace(
        arrivals,
        works,
        weights if saw_weight_column else None,
        units_per_ms=units_per_ms,
        target_chunks=target_chunks,
    )


def save_trace_csv(jobset: JobSet, path: PathLike, units_per_ms: float = 4.0) -> None:
    """Write an instance back out as an ``arrival_s, work_ms, weight`` CSV.

    The DAG structure is *not* preserved (traces record sizes, not
    shapes); round-tripping reconstructs parallel-for jobs of the same
    total work.  For exact round trips use
    :func:`repro.dag.serialization.save_jobset`.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_s", "work_ms", "weight"])
        for job in jobset:
            writer.writerow(
                [
                    job.arrival / (1000.0 * units_per_ms),
                    job.work / units_per_ms,
                    job.weight,
                ]
            )
