"""The arbitrary speedup-curves model (Section 8 contrast substrate).

The paper's related-work section contrasts the DAG model against the
*arbitrary speedup curves* model -- jobs as sequences of phases, each
with a work amount and a speedup function ``Gamma(p)`` giving the
processing rate on ``p`` processors -- and argues the two are
fundamentally different: a DAG's realizable parallelism depends on
*which* nodes ran, not just how much work was done, so neither model
simulates the other.  The conclusion invites exploring the connection.

This subpackage makes that comparison executable:

* :mod:`~repro.speedup.model` -- speedup functions (linear-capped,
  power-law, sqrt), phased jobs, job sets;
* :mod:`~repro.speedup.engine` -- an exact event-driven simulator with
  FIFO-greedy and EQUI (equal-split) allocation policies;
* :mod:`~repro.speedup.convert` -- the natural DAG -> speedup-curves
  conversion (phases from the infinite-processor parallelism profile),
  plus the experiment hook that *measures the conversion error* --
  exact for chains, divergent for irregular DAGs, which is the paper's
  model-separation claim in numbers (bench ``ext-speedup``).
"""

from repro.speedup.model import (
    LinearCapped,
    Phase,
    PowerLaw,
    Sequential,
    SpeedupFunction,
    SpeedupJob,
    SpeedupJobSet,
    Sqrt,
)
from repro.speedup.convert import dag_to_speedup_job, jobset_to_speedup

__all__ = [
    "SpeedupFunction",
    "LinearCapped",
    "Sequential",
    "PowerLaw",
    "Sqrt",
    "Phase",
    "SpeedupJob",
    "SpeedupJobSet",
    "dag_to_speedup_job",
    "jobset_to_speedup",
]
