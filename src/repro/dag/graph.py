"""Immutable job-DAG container and its builder.

A :class:`JobDag` stores, for each node, an integer processing time (in
*work units* -- the amount of computation a speed-1 processor finishes in
one unit of time) and the list of successor node ids.  The structure is
validated once at construction time (acyclicity, positive work, in-range
edges) and is immutable afterwards, so schedulers can share a single DAG
instance across repeated simulations without defensive copies.

The representation is deliberately index-based (parallel tuples indexed by
node id) rather than object-based: simulations touch every node several
times per run and flat tuples keep that hot path allocation-free, per the
"be easy on the memory" guidance for numerical Python.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


class DagValidationError(ValueError):
    """Raised when a DAG under construction violates a structural rule.

    The offending condition (cycle, non-positive work, dangling edge,
    duplicate edge) is described in the exception message.
    """


class JobDag:
    """An immutable directed acyclic graph of computation nodes.

    Parameters
    ----------
    works:
        ``works[v]`` is the processing time of node ``v`` in integer work
        units; must be positive.
    successors:
        ``successors[v]`` lists the node ids that become closer to ready
        when ``v`` completes.  Edges must reference valid ids and the
        resulting digraph must be acyclic.

    Notes
    -----
    Instances are hashable by identity and safe to share between threads
    and between repeated simulation runs; all mutable execution state
    lives in the simulation engines, never on the DAG.
    """

    __slots__ = (
        "_works",
        "_successors",
        "_predecessor_counts",
        "_roots",
        "_total_work",
        "_span",
        "_topo_order",
    )

    def __init__(
        self,
        works: Sequence[int],
        successors: Sequence[Sequence[int]],
    ) -> None:
        if len(works) != len(successors):
            raise DagValidationError(
                f"works has {len(works)} entries but successors has "
                f"{len(successors)}; they must be parallel arrays"
            )
        if len(works) == 0:
            raise DagValidationError("a job DAG must contain at least one node")

        n = len(works)
        for v, w in enumerate(works):
            if not isinstance(w, (int,)) or isinstance(w, bool):
                raise DagValidationError(
                    f"node {v} has non-integer work {w!r}; work is measured "
                    "in integer work units"
                )
            if w <= 0:
                raise DagValidationError(f"node {v} has non-positive work {w}")

        pred_counts = [0] * n
        for v, succs in enumerate(successors):
            seen = set()
            for u in succs:
                if not 0 <= u < n:
                    raise DagValidationError(
                        f"edge {v} -> {u} references a node id outside [0, {n})"
                    )
                if u == v:
                    raise DagValidationError(f"self-loop on node {v}")
                if u in seen:
                    raise DagValidationError(f"duplicate edge {v} -> {u}")
                seen.add(u)
                pred_counts[u] += 1

        self._works: Tuple[int, ...] = tuple(int(w) for w in works)
        self._successors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(s) for s in successors
        )
        self._predecessor_counts: Tuple[int, ...] = tuple(pred_counts)
        self._roots: Tuple[int, ...] = tuple(
            v for v in range(n) if pred_counts[v] == 0
        )
        if not self._roots:
            raise DagValidationError("DAG has no root node; it must be cyclic")

        self._topo_order: Tuple[int, ...] = self._compute_topo_order()
        self._total_work: int = sum(self._works)
        self._span: int = self._compute_span()

    @classmethod
    def from_csr(cls, works, edge_offsets, edge_targets) -> "JobDag":
        """Trusted construction from CSR arrays (no structural validation).

        ``works[v]`` is node ``v``'s work; node ``v``'s successors are
        ``edge_targets[edge_offsets[v]:edge_offsets[v+1]]``.  The caller
        guarantees the arrays describe a valid DAG: this is the path of
        :func:`repro.dag.flat.to_jobset`, whose arrays come from a
        flattened :class:`JobDag` or the vectorized generator.  Derived
        structure (in-degrees, roots, topological order, span) is still
        computed, and a cyclic input still raises
        :class:`DagValidationError`.
        """
        self = object.__new__(cls)
        n = len(works)
        if n == 0:
            raise DagValidationError("a job DAG must contain at least one node")
        works_t = tuple(int(w) for w in works)
        offsets = [int(o) for o in edge_offsets]
        targets = [int(t) for t in edge_targets]
        successors = tuple(
            tuple(targets[offsets[v] : offsets[v + 1]]) for v in range(n)
        )
        pred_counts = [0] * n
        for u in targets:
            pred_counts[u] += 1
        self._works = works_t
        self._successors = successors
        self._predecessor_counts = tuple(pred_counts)
        self._roots = tuple(v for v in range(n) if pred_counts[v] == 0)
        if not self._roots:
            raise DagValidationError("DAG has no root node; it must be cyclic")
        self._topo_order = self._compute_topo_order()
        self._total_work = sum(works_t)
        self._span = self._compute_span()
        return self

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the DAG."""
        return len(self._works)

    @property
    def works(self) -> Tuple[int, ...]:
        """Per-node processing times in work units."""
        return self._works

    @property
    def successors(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node successor id lists."""
        return self._successors

    @property
    def predecessor_counts(self) -> Tuple[int, ...]:
        """Per-node in-degrees (number of direct predecessors)."""
        return self._predecessor_counts

    @property
    def roots(self) -> Tuple[int, ...]:
        """Nodes with no predecessors -- ready the moment the job arrives."""
        return self._roots

    @property
    def n_edges(self) -> int:
        """Total number of precedence edges."""
        return sum(len(s) for s in self._successors)

    def work_of(self, node: int) -> int:
        """Processing time of ``node`` in work units."""
        return self._works[node]

    def successors_of(self, node: int) -> Tuple[int, ...]:
        """Successor ids of ``node``."""
        return self._successors[node]

    # ------------------------------------------------------------------
    # Derived scalar parameters (Section 2 of the paper)
    # ------------------------------------------------------------------

    @property
    def total_work(self) -> int:
        """Work ``W``: execution time of the job on one speed-1 processor."""
        return self._total_work

    @property
    def span(self) -> int:
        """Critical-path length ``P``: the longest weighted path.

        ``P`` lower-bounds the execution time of the job under *any*
        scheduler at speed 1 (the job cannot finish faster than its
        longest chain of sequential dependences).
        """
        return self._span

    @property
    def parallelism(self) -> float:
        """Average parallelism ``W / P`` -- the maximum useful speedup."""
        return self._total_work / self._span

    def topological_order(self) -> Tuple[int, ...]:
        """A topological ordering of node ids (stable across calls)."""
        return self._topo_order

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _compute_topo_order(self) -> Tuple[int, ...]:
        """Kahn's algorithm; raises :class:`DagValidationError` on cycles."""
        n = self.n_nodes
        remaining = list(self._predecessor_counts)
        frontier = [v for v in range(n) if remaining[v] == 0]
        order: List[int] = []
        head = 0
        while head < len(frontier):
            v = frontier[head]
            head += 1
            order.append(v)
            for u in self._successors[v]:
                remaining[u] -= 1
                if remaining[u] == 0:
                    frontier.append(u)
        if len(order) != n:
            raise DagValidationError(
                f"DAG contains a cycle ({n - len(order)} nodes unreachable "
                "from the roots under topological elimination)"
            )
        return tuple(order)

    def _compute_span(self) -> int:
        """Longest weighted path via a single topological sweep."""
        dist = [0] * self.n_nodes
        best = 0
        for v in self._topo_order:
            finish = dist[v] + self._works[v]
            if finish > best:
                best = finish
            for u in self._successors[v]:
                if finish > dist[u]:
                    dist[u] = finish
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobDag(n_nodes={self.n_nodes}, work={self.total_work}, "
            f"span={self.span})"
        )


class DagBuilder:
    """Mutable builder that assembles and validates a :class:`JobDag`.

    Example
    -------
    >>> b = DagBuilder()
    >>> root = b.add_node(2)
    >>> left, right = b.add_node(3), b.add_node(4)
    >>> b.add_edge(root, left); b.add_edge(root, right)
    >>> dag = b.build()
    >>> dag.total_work, dag.span
    (9, 6)
    """

    def __init__(self) -> None:
        self._works: List[int] = []
        self._successors: List[List[int]] = []

    @property
    def n_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._works)

    def add_node(self, work: int) -> int:
        """Add a node with the given integer processing time; returns its id."""
        if not isinstance(work, int) or isinstance(work, bool) or work <= 0:
            raise DagValidationError(
                f"node work must be a positive integer, got {work!r}"
            )
        self._works.append(work)
        self._successors.append([])
        return len(self._works) - 1

    def add_nodes(self, works: Iterable[int]) -> List[int]:
        """Add several nodes at once; returns their ids in order."""
        return [self.add_node(w) for w in works]

    def add_edge(self, src: int, dst: int) -> None:
        """Add a precedence edge ``src -> dst`` (``dst`` waits for ``src``)."""
        n = len(self._works)
        if not (0 <= src < n and 0 <= dst < n):
            raise DagValidationError(
                f"edge {src} -> {dst} references an unknown node "
                f"(only {n} nodes exist)"
            )
        self._successors[src].append(dst)

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add several edges at once."""
        for src, dst in edges:
            self.add_edge(src, dst)

    def build(self) -> JobDag:
        """Validate and freeze the graph into an immutable :class:`JobDag`."""
        return JobDag(self._works, self._successors)


def merge_dags(
    dags: Sequence[JobDag],
    extra_edges: Optional[Iterable[Tuple[int, int]]] = None,
) -> JobDag:
    """Disjoint-union several DAGs into one, with optional bridging edges.

    Node ids of ``dags[i]`` are offset by the total node count of the
    preceding DAGs; ``extra_edges`` are expressed in the offset id space.
    Used by the series/parallel composition builders.
    """
    works: List[int] = []
    successors: List[List[int]] = []
    for dag in dags:
        offset = len(works)
        works.extend(dag.works)
        successors.extend([u + offset for u in succ] for succ in dag.successors)
    if extra_edges is not None:
        for src, dst in extra_edges:
            successors[src].append(dst)
    return JobDag(works, successors)
