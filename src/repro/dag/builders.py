"""Shape constructors for common job-DAG topologies.

Every builder returns a validated :class:`~repro.dag.graph.JobDag`.  The
shapes cover the workloads the paper exercises and the standard dynamic
multithreading patterns:

* :func:`parallel_for` -- the paper's experimental jobs ("each job ...
  is parallelized using parallel for loops", Section 6);
* :func:`adversarial_fork` -- the single-fork job used in the Section 5
  lower-bound construction (one root node that enables ``m/10``
  independent unit tasks);
* :func:`fork_join`, :func:`balanced_tree`, :func:`map_reduce`,
  :func:`chain`, :func:`diamond`, :func:`parallel_chains` -- classic
  fork-join program skeletons;
* :func:`random_layered_dag` -- randomized layered DAGs for property
  tests and stress workloads;
* :func:`series_compose` / :func:`parallel_compose` -- series-parallel
  composition of existing DAGs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.dag.graph import DagBuilder, DagValidationError, JobDag, merge_dags


def single_node(work: int) -> JobDag:
    """A purely sequential job consisting of one node.

    With single-node DAGs the model degenerates to classic sequential-job
    scheduling, which the tests use to cross-check against closed-form
    single-machine results.
    """
    b = DagBuilder()
    b.add_node(work)
    return b.build()


def chain(works: Sequence[int]) -> JobDag:
    """A sequential chain: node ``i`` precedes node ``i + 1``.

    ``span == total_work`` -- a chain admits no parallelism.
    """
    if len(works) == 0:
        raise DagValidationError("chain requires at least one node")
    b = DagBuilder()
    ids = b.add_nodes(works)
    for prev, nxt in zip(ids, ids[1:]):
        b.add_edge(prev, nxt)
    return b.build()


def fork_join(
    fork_work: int,
    child_works: Sequence[int],
    join_work: int,
) -> JobDag:
    """A single fork-join diamond: fork node, independent children, join node.

    Models one ``spawn``/``sync`` block: the fork node spawns every child;
    the join node waits for all of them.
    """
    if len(child_works) == 0:
        raise DagValidationError("fork_join requires at least one child")
    b = DagBuilder()
    fork = b.add_node(fork_work)
    children = b.add_nodes(child_works)
    join = b.add_node(join_work)
    for c in children:
        b.add_edge(fork, c)
        b.add_edge(c, join)
    return b.build()


def diamond(work: int = 1) -> JobDag:
    """The four-node diamond with uniform node work (smallest true DAG).

    Handy as a minimal non-chain, non-fork test fixture.
    """
    return fork_join(work, [work, work], work)


def parallel_for(
    total_body_work: int,
    grain: int,
    setup_work: int = 1,
    finalize_work: int = 1,
) -> JobDag:
    """A parallel-for-loop job: setup -> ceil(W/g) chunks of <= g work -> finalize.

    This is the job shape of the paper's Section 6 experiments.  The loop
    body of ``total_body_work`` units is divided into chunks of at most
    ``grain`` units; all chunks are mutually independent.

    Parameters
    ----------
    total_body_work:
        Work units in the loop body (excluding setup/finalize).
    grain:
        Maximum chunk size; the last chunk holds the remainder.
    setup_work, finalize_work:
        Work of the serial prologue and epilogue nodes.
    """
    if total_body_work <= 0:
        raise DagValidationError("parallel_for requires positive body work")
    if grain <= 0:
        raise DagValidationError("parallel_for grain must be positive")
    grain = int(grain)
    n_full, rem = divmod(int(total_body_work), grain)
    chunk_works = [grain] * n_full + ([rem] if rem else [])
    return fork_join(int(setup_work), chunk_works, int(finalize_work))


def parallel_chains(
    chain_lengths: Sequence[int],
    node_work: int = 1,
    fork_work: int = 1,
    join_work: int = 1,
) -> JobDag:
    """Fork into several sequential chains of differing lengths, then join.

    Produces jobs whose ready-node count varies over time (chains drain at
    different rates), which exercises schedulers beyond flat parallel-for.
    """
    if len(chain_lengths) == 0:
        raise DagValidationError("parallel_chains requires at least one chain")
    b = DagBuilder()
    fork = b.add_node(fork_work)
    join_preds: List[int] = []
    for length in chain_lengths:
        if length <= 0:
            raise DagValidationError("chain lengths must be positive")
        prev = fork
        for _ in range(length):
            node = b.add_node(node_work)
            b.add_edge(prev, node)
            prev = node
        join_preds.append(prev)
    join = b.add_node(join_work)
    for p in join_preds:
        b.add_edge(p, join)
    return b.build()


def balanced_tree(
    depth: int,
    branching: int,
    node_work: int = 1,
    with_reduction: bool = True,
) -> JobDag:
    """A spawn tree of the given depth and branching factor.

    Models recursive divide-and-conquer: a root spawns ``branching``
    children, each of which spawns ``branching`` grandchildren, down to
    ``depth`` levels.  With ``with_reduction`` a mirrored combine tree is
    appended, giving the DAG of a full recursive computation; without it
    the leaves terminate the job.
    """
    if depth < 0:
        raise DagValidationError("tree depth must be non-negative")
    if branching <= 0:
        raise DagValidationError("branching factor must be positive")
    b = DagBuilder()
    # Divide phase: levels[d] holds the node ids at depth d.
    levels: List[List[int]] = [[b.add_node(node_work)]]
    for _ in range(depth):
        nxt: List[int] = []
        for parent in levels[-1]:
            for _ in range(branching):
                child = b.add_node(node_work)
                b.add_edge(parent, child)
                nxt.append(child)
        levels.append(nxt)
    if with_reduction and depth > 0:
        # Combine phase mirrors the divide phase: one combiner per divide
        # node, fed by the combiners (or leaves) of its children.
        prev_combiners = levels[-1]
        for d in range(depth - 1, -1, -1):
            combiners: List[int] = []
            for i, _parent in enumerate(levels[d]):
                comb = b.add_node(node_work)
                for child in prev_combiners[i * branching : (i + 1) * branching]:
                    b.add_edge(child, comb)
                combiners.append(comb)
            prev_combiners = combiners
    return b.build()


def map_reduce(
    map_works: Sequence[int],
    reduce_fanin: int,
    reduce_work: int = 1,
    source_work: int = 1,
) -> JobDag:
    """A map stage followed by a tree reduction.

    ``len(map_works)`` independent map tasks hang off a source node; the
    reduction combines them ``reduce_fanin`` at a time in a balanced tree
    until a single sink remains.
    """
    if len(map_works) == 0:
        raise DagValidationError("map_reduce requires at least one map task")
    if reduce_fanin < 2:
        raise DagValidationError("reduce fan-in must be at least 2")
    b = DagBuilder()
    source = b.add_node(source_work)
    frontier = []
    for w in map_works:
        node = b.add_node(w)
        b.add_edge(source, node)
        frontier.append(node)
    while len(frontier) > 1:
        nxt: List[int] = []
        for i in range(0, len(frontier), reduce_fanin):
            group = frontier[i : i + reduce_fanin]
            if len(group) == 1:
                nxt.extend(group)
                continue
            red = b.add_node(reduce_work)
            for g in group:
                b.add_edge(g, red)
            nxt.append(red)
        frontier = nxt
    return b.build()


def adversarial_fork(
    m: int,
    child_work: int = 1,
    root_work: int = 1,
    fanout: Optional[int] = None,
) -> JobDag:
    """The Section 5 lower-bound job: a root enabling ``m // 10`` unit tasks.

    Quoting the paper: "A job consists of one task which is the predecessor
    of ``m/10`` independent tasks" with total work ``m/10 + 1``.  When work
    stealing fails to steal, the job executes sequentially in ``m/10 + 1``
    time steps instead of the 2 steps an ideal scheduler needs, which is
    the engine of the :math:`\\Omega(\\log n)` lower bound.

    Parameters
    ----------
    m:
        The machine size used by the construction; the fan-out defaults
        to the paper's ``max(1, m // 10)``.
    fanout:
        Override the fan-out (must not exceed ``m`` or OPT's 2-step
        schedule stops existing); the empirical lower-bound experiment
        uses ``m // 2`` to make the asymptotic constant visible at
        small ``m``.
    """
    if m < 1:
        raise DagValidationError("adversarial_fork requires m >= 1")
    if fanout is None:
        fanout = max(1, m // 10)
    if not 1 <= fanout <= m:
        raise DagValidationError(f"fanout must lie in [1, m={m}], got {fanout}")
    b = DagBuilder()
    root = b.add_node(root_work)
    for _ in range(fanout):
        child = b.add_node(child_work)
        b.add_edge(root, child)
    return b.build()


def random_layered_dag(
    rng: np.random.Generator,
    n_nodes: int,
    n_layers: int,
    edge_probability: float = 0.3,
    min_work: int = 1,
    max_work: int = 10,
) -> JobDag:
    """A random layered DAG for property tests and stress workloads.

    Nodes are partitioned into ``n_layers`` layers; each node in layer
    ``i > 0`` receives at least one incoming edge from layer ``i - 1``
    (guaranteeing connectivity to the roots) and additional edges from the
    previous layer with probability ``edge_probability``.  Node works are
    uniform integers in ``[min_work, max_work]``.

    Parameters
    ----------
    rng:
        Explicit numpy random generator; no global RNG state is touched,
        keeping runs reproducible per the repository's determinism rule.
    """
    if n_nodes < 1:
        raise DagValidationError("random_layered_dag requires n_nodes >= 1")
    if not 1 <= n_layers <= n_nodes:
        raise DagValidationError("need 1 <= n_layers <= n_nodes")
    if not 0.0 <= edge_probability <= 1.0:
        raise DagValidationError("edge_probability must lie in [0, 1]")
    if not 1 <= min_work <= max_work:
        raise DagValidationError("need 1 <= min_work <= max_work")

    # Assign each node a layer; force at least one node per layer by
    # seeding layers round-robin, then distributing the rest randomly.
    layer_of = np.empty(n_nodes, dtype=np.int64)
    layer_of[:n_layers] = np.arange(n_layers)
    if n_nodes > n_layers:
        layer_of[n_layers:] = rng.integers(0, n_layers, size=n_nodes - n_layers)
    works = rng.integers(min_work, max_work + 1, size=n_nodes)

    layers: List[List[int]] = [[] for _ in range(n_layers)]
    for v in range(n_nodes):
        layers[layer_of[v]].append(v)

    b = DagBuilder()
    ids = b.add_nodes(int(w) for w in works)
    for li in range(1, n_layers):
        prev, cur = layers[li - 1], layers[li]
        for v in cur:
            # Bernoulli edges from every node of the previous layer ...
            mask = rng.random(len(prev)) < edge_probability
            parents = [prev[i] for i in np.flatnonzero(mask)]
            # ... plus one guaranteed parent so no mid-layer node floats free.
            if not parents:
                parents = [prev[int(rng.integers(0, len(prev)))]]
            for p in parents:
                b.add_edge(ids[p], ids[v])
    return b.build()


def series_compose(first: JobDag, second: JobDag) -> JobDag:
    """Run ``first`` to completion, then ``second`` (series composition).

    Every sink of ``first`` gains an edge to every root of ``second``.
    Work adds; span adds.
    """
    offset = first.n_nodes
    sinks = [v for v in range(first.n_nodes) if not first.successors[v]]
    bridging = [(s, r + offset) for s in sinks for r in second.roots]
    return merge_dags([first, second], bridging)


def parallel_compose(
    left: JobDag,
    right: JobDag,
    fork_work: Optional[int] = None,
    join_work: Optional[int] = None,
) -> JobDag:
    """Run ``left`` and ``right`` concurrently (parallel composition).

    Without fork/join work the result is the disjoint union (multiple
    roots).  With ``fork_work``/``join_work`` a serial fork node precedes
    both sub-DAGs and a join node succeeds them, matching a
    ``spawn { left } ; spawn { right } ; sync`` block.
    """
    union = merge_dags([left, right])
    if fork_work is None and join_work is None:
        return union

    b = DagBuilder()
    fork = b.add_node(fork_work if fork_work is not None else 1)
    ids = b.add_nodes(union.works)
    for v, succs in enumerate(union.successors):
        for u in succs:
            b.add_edge(ids[v], ids[u])
    for r in union.roots:
        b.add_edge(fork, ids[r])
    join = b.add_node(join_work if join_work is not None else 1)
    for v in range(union.n_nodes):
        if not union.successors[v]:
            b.add_edge(ids[v], join)
    return b.build()


def wide_then_narrow(
    wide_count: int,
    wide_work: int,
    narrow_count: int,
    narrow_work: int,
    source_work: int = 1,
) -> JobDag:
    """A Montage-style stage pair: wide fan-out feeding a narrow stage.

    Scientific workflows commonly alternate a massively parallel stage
    (e.g. per-tile reprojection) with a narrow aggregation stage (e.g.
    background fitting): ``wide_count`` independent tasks all feed each
    of ``narrow_count`` second-stage tasks (a complete bipartite
    dependency).  The shape stresses schedulers differently from
    fork-join: the barrier between stages drains parallelism abruptly.
    """
    if wide_count < 1 or narrow_count < 1:
        raise DagValidationError("both stages need at least one task")
    b = DagBuilder()
    source = b.add_node(source_work)
    wide = []
    for _ in range(wide_count):
        v = b.add_node(wide_work)
        b.add_edge(source, v)
        wide.append(v)
    for _ in range(narrow_count):
        u = b.add_node(narrow_work)
        for v in wide:
            b.add_edge(v, u)
    return b.build()


def staged_pipeline(
    stage_widths: Sequence[int],
    node_work: int = 1,
    source_work: int = 1,
) -> JobDag:
    """A layered workflow: stage ``i+1`` waits for all of stage ``i``.

    ``stage_widths[i]`` independent ``node_work``-unit tasks per stage,
    with full barriers between stages -- the skeleton of epigenomics/
    bioinformatics pipelines and of bulk-synchronous-parallel programs.
    Parallelism over time follows ``stage_widths`` exactly, so the shape
    is ideal for exercising schedulers against *known* parallelism
    profiles (the tests pin span = ``len(stages) + 1`` node rounds).
    """
    if not stage_widths:
        raise DagValidationError("need at least one stage")
    if any(w < 1 for w in stage_widths):
        raise DagValidationError("every stage needs at least one task")
    b = DagBuilder()
    prev = [b.add_node(source_work)]
    for width in stage_widths:
        stage = []
        for _ in range(width):
            v = b.add_node(node_work)
            for p in prev:
                b.add_edge(p, v)
            stage.append(v)
        prev = stage
    return b.build()
