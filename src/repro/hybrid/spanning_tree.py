"""Spanning trees by unwinding random walks (Theorem 1.3).

§4.3 of the paper: every overlay edge created during ``CreateExpander``
remembers the walk that produced it.  A depth-first traversal (Euler tour)
of the final overlay's BFS tree is therefore a path ``P_{L'}`` whose edges
can be *replaced* by the walks that realise them, level by level, until
only level-0 edges remain — a path ``P_0`` in the prepared graph that
visits every node.  Loop-erasing ``P_0`` (every node keeps the edge over
which it is **first** reached) yields a spanning tree; delegated edges of
the reduced graph ``H`` are expanded through their delegation centre so
the resulting tree uses only edges of ``G``.

Implementation notes (``docs/deviations.md``, "Spanning trees: a lazy
unwinding stream"):

- The level-by-level replacement is realised as a **lazy generator
  stream**: expansion recursion yields oriented level-0 traversals one at
  a time and stops as soon as every node has been visited.  This matters:
  materialising ``P_0`` is *multiplicatively* expensive — each level
  multiplies path length by the non-lazy trace length — a point on which
  Lemma 4.11's additive accounting is optimistic (measured in experiment
  E9, ``benchmarks/bench_e9_spanning_tree.py``).  The covering prefix, by contrast, behaves
  like a covering random walk of the base graph and is short.
- Loop-erasure is performed directly over ``G``-edges (delegation centres
  are expanded inside the stream), which makes the first-arrival edges a
  spanning tree of ``G`` immediately — the same walk the paper's
  two-phase "repair" processes, expressed over ``G``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.bfs import build_bfs_forest
from repro.core.child_sibling import RootedTree
from repro.core.euler import euler_tour_forest
from repro.graphs.analysis import adjacency_sets, is_connected
from repro.graphs.portgraph import SELF_LOOP
from repro.hybrid.degree_reduction import reduce_degree
from repro.hybrid.overlay import (
    HybridOverlayParams,
    HybridOverlayResult,
    build_hybrid_overlay,
)
from repro.hybrid.spanner import build_spanner
from repro.net.hybrid import HybridLedger

__all__ = ["SpanningTreeResult", "spanning_tree_hybrid", "UnwindBudgetExceeded"]


class UnwindBudgetExceeded(RuntimeError):
    """The expansion stream exceeded its step budget before covering all
    nodes (should not happen at calibrated parameters; the budget guards
    against pathological inputs)."""


@dataclass
class SpanningTreeResult:
    """A spanning tree of ``G`` recovered from walk provenance.

    Attributes
    ----------
    root:
        The tour's starting node (root of the overlay BFS tree).
    parent:
        ``(n,)`` parent array of the spanning tree (root points to
        itself); every ``{v, parent[v]}`` is an edge of ``G``.
    tree_edges:
        The ``n - 1`` undirected tree edges.
    stream_steps:
        Level-0 stream entries consumed before full coverage.
    occurrences:
        Per-node visit counts within the consumed stream prefix
        (Lemma 4.11's quantity, measured on the covering prefix).
    overlay:
        The underlying Theorem 4.1 overlay (with trace provenance).
    ledger:
        Hybrid-model round/capacity accounting.
    """

    root: int
    parent: np.ndarray
    tree_edges: set[tuple[int, int]]
    stream_steps: int
    occurrences: np.ndarray
    overlay: HybridOverlayResult
    ledger: HybridLedger = field(default_factory=HybridLedger)


def _tree_edge_ids(overlay_graph, tree: RootedTree) -> dict[tuple[int, int], int]:
    """Map each directed tree edge to an overlay edge id realising it."""
    ids: dict[tuple[int, int], int] = {}
    ports = overlay_graph.ports
    edge_ids = overlay_graph.port_edge_ids
    for child, parent in enumerate(tree.parent.tolist()):
        if parent == child:
            continue
        row = ports[child]
        hits = np.nonzero(row == parent)[0]
        if hits.size == 0:
            raise ValueError(f"tree edge {child}->{parent} not present in overlay")
        eid = int(edge_ids[child, hits[0]])
        ids[(child, parent)] = eid
        ids[(parent, child)] = eid
    return ids


class _WalkUnwinder:
    """Recursive lazy expansion of overlay edges down to level 0."""

    def __init__(self, overlay: HybridOverlayResult, delegation: dict) -> None:
        self.registries = overlay.level_registries
        self.base_registry = overlay.base_registry
        self.delegation = delegation

    def expand(self, level: int, edge_id: int, src: int, dst: int) -> Iterator[tuple[int, int]]:
        """Yield oriented ``G``-edges realising overlay edge ``src → dst``
        at the given level (level 0 = prepared base graph)."""
        if level == 0:
            base = self.base_registry[edge_id]
            if {src, dst} != {base.u, base.v}:
                raise ValueError("base edge endpoints do not match traversal")
            centre = self.delegation.get(frozenset((src, dst)))
            if centre is None:
                yield (src, dst)
            else:
                yield (src, centre)
                yield (centre, dst)
            return

        entry = self.registries[level - 1][edge_id]
        nodes = entry.node_trace
        eids = entry.edge_trace
        if nodes is None or eids is None:
            raise ValueError("overlay was built without record_traces=True")
        steps = eids.shape[0]
        if src == entry.origin and dst == entry.endpoint:
            for i in range(steps):
                eid = int(eids[i])
                if eid == SELF_LOOP:
                    continue
                yield from self.expand(level - 1, eid, int(nodes[i]), int(nodes[i + 1]))
        elif src == entry.endpoint and dst == entry.origin:
            for i in reversed(range(steps)):
                eid = int(eids[i])
                if eid == SELF_LOOP:
                    continue
                yield from self.expand(level - 1, eid, int(nodes[i + 1]), int(nodes[i]))
        else:
            raise ValueError(
                f"traversal ({src}->{dst}) does not match overlay edge "
                f"({entry.origin}, {entry.endpoint})"
            )


def _tour_edges(parent: np.ndarray, root_of: np.ndarray) -> list[tuple[int, int]]:
    """The Euler tour of a tree as its sequence of directed edges.

    Rebuilt from the tour's entry/exit columns: position
    ``first_entry[v]`` traverses ``(parent(v), v)`` and ``exit_entry[v]``
    traverses ``(v, parent(v))``; the root (sentinel ``-1``) has neither.
    """
    tour = euler_tour_forest(parent, root_of)
    child = np.flatnonzero(tour.first_entry >= 0)
    tails = np.empty(2 * child.shape[0], dtype=np.int64)
    heads = np.empty_like(tails)
    tails[tour.first_entry[child]] = parent[child]
    heads[tour.first_entry[child]] = child
    tails[tour.exit_entry[child]] = child
    heads[tour.exit_entry[child]] = parent[child]
    return list(zip(tails.tolist(), heads.tolist()))


def spanning_tree_hybrid(
    graph,
    rng: np.random.Generator | None = None,
    overlay_params: HybridOverlayParams | None = None,
    force_spanner: bool | None = None,
    gap_threshold: float | None = 0.04,
    max_stream_steps: int | None = None,
) -> SpanningTreeResult:
    """Theorem 1.3: compute a spanning tree of the connected graph ``G``.

    Parameters
    ----------
    graph:
        Connected input (networkx graph or adjacency sets).
    force_spanner:
        ``True``/``False`` forces/disables the §4.2 spanner + degree
        reduction preprocessing; by default it engages automatically when
        the input degree exceeds ``max(8, 2 log₂ n)``.
    gap_threshold:
        Adaptive evolution stop for the overlay (few long-walk evolutions
        suffice and keep walk provenance shallow).
    max_stream_steps:
        Budget for the level-0 expansion stream; defaults to
        ``512 · n · ⌈log₂ n⌉²``.

    Raises
    ------
    ValueError
        If the input graph is disconnected.
    UnwindBudgetExceeded
        If the stream budget runs out before covering all nodes.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    adj = adjacency_sets(graph)
    n = len(adj)
    if n < 1:
        raise ValueError("need at least one node")
    if not is_connected(adj):
        raise ValueError("spanning tree requires a connected input graph")
    ledger = HybridLedger()

    max_degree = max((len(a) for a in adj), default=0)
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    if force_spanner is None:
        force_spanner = max_degree > max(8, 2 * log_n)

    delegation: dict = {}
    base_adj = adj
    if force_spanner:
        spanner = build_spanner(graph, rng=rng)
        ledger.charge("spanner_broadcast", local_rounds=spanner.rounds)
        reduced = reduce_degree(spanner)
        ledger.charge("degree_reduction", local_rounds=reduced.rounds)
        delegation = reduced.delegation
        base_adj = reduced.adj

    overlay = build_hybrid_overlay(
        base_adj,
        rng=rng,
        params=overlay_params,
        record_traces=True,
        gap_threshold=gap_threshold,
    )
    ledger.merge(overlay.ledger, prefix="overlay/")
    # Trace annotation multiplies message sizes by ℓ "submessages": the
    # paper charges O(log^5 n) global capacity for this (§4.3).
    ledger.charge(
        "trace_annotation",
        global_rounds=0,
        global_capacity=overlay.params.delta * overlay.params.ell**2,
    )

    bfs = build_bfs_forest(overlay.final_graph)
    if len(bfs.roots) != 1:
        raise ValueError("overlay is disconnected; cannot span")
    ledger.charge("overlay_bfs", global_rounds=bfs.rounds)
    tree = RootedTree(root=bfs.roots[0], parent=bfs.parent.copy())

    tour = _tour_edges(tree.parent, bfs.root_of)
    ledger.charge("euler_tour", global_rounds=2 * log_n)

    edge_ids = _tree_edge_ids(overlay.final_graph, tree)
    unwinder = _WalkUnwinder(overlay, delegation)
    top_level = len(overlay.levels) - 1

    if max_stream_steps is None:
        max_stream_steps = 512 * n * log_n * log_n

    root = tree.root
    visited = np.zeros(n, dtype=bool)
    visited[root] = True
    num_visited = 1
    parent = np.arange(n, dtype=np.int64)
    occurrences = np.zeros(n, dtype=np.int64)
    occurrences[root] = 1
    steps = 0
    current = root

    for u, v in tour:
        for a, b in unwinder.expand(top_level, edge_ids[(u, v)], u, v):
            if a != current:
                raise AssertionError(
                    f"stream discontinuity: at {current}, edge ({a}, {b})"
                )
            current = b
            steps += 1
            occurrences[b] += 1
            if not visited[b]:
                visited[b] = True
                parent[b] = a
                num_visited += 1
            if steps > max_stream_steps:
                raise UnwindBudgetExceeded(
                    f"covered {num_visited}/{n} nodes in {steps} stream steps"
                )
        if num_visited == n:
            break
        current = v  # the expansion of (u, v) ends exactly at v
    if num_visited != n:
        raise AssertionError("Euler tour stream ended before covering all nodes")

    tree_edges = {
        (min(v, int(parent[v])), max(v, int(parent[v])))
        for v in range(n)
        if v != root
    }
    ledger.charge("loop_erasure", global_rounds=2 * log_n)
    return SpanningTreeResult(
        root=root,
        parent=parent,
        tree_edges=tree_edges,
        stream_steps=steps,
        occurrences=occurrences,
        overlay=overlay,
        ledger=ledger,
    )
