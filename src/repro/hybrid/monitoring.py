"""Network monitoring on the overlay (§1.4, via [27]).

The paper's second corollary: *"Every monitoring problem presented in
[27] can be solved in time O(log n), w.h.p., instead of O(log² n)
deterministically.  These problems include monitoring the graph's node
and edge count [and] its bipartiteness…"*

Once a well-formed tree exists over the network, each monitoring query is
one aggregation (``O(log n)`` rounds) over locally computable inputs:

- **node count** — sum of ones;
- **edge count** — sum of degrees, halved;
- **degree extremes** — max/min aggregation;
- **bipartiteness** — 2-colour by BFS-layer parity (already known from
  the overlay construction's BFS), then aggregate a single conflict bit
  over the *local* edges.

Every monitor returns the measured value and its round charge; the X2
bench compares the totals against the deterministic ``O(log² n)``
baseline of [27] (represented by the supernode-merging round cost, since
[27] runs on that machinery).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bfs import build_bfs_forest
from repro.core.child_sibling import RootedTree
from repro.core.primitives import TreePrimitives
from repro.graphs.analysis import adjacency_sets

__all__ = ["MonitorReport", "NetworkMonitor", "ROOTING_MODES"]


@dataclass
class MonitorReport:
    """One monitoring query's answer and cost."""

    value: object
    rounds: int


#: How a monitor builds its aggregation tree when none is supplied: the
#: same mode set as the pipeline's rooting step (single source of
#: truth).  ``"reference"`` runs the centralised BFS oracle; the others
#: execute the real rooting protocol on the NCC0 simulator at the chosen
#: tier.  All three build the identical tree (min-id root, min-id parent
#: tie-break), so every monitor answer and round charge agrees —
#: smoke-tested in ``tests/hybrid/test_monitoring.py``.
from repro.core.pipeline import ROOTING_MODES  # noqa: E402


class NetworkMonitor:
    """Monitoring queries over a graph with an established overlay tree.

    Parameters
    ----------
    graph:
        The monitored network (local edges).
    tree:
        A well-formed tree over the same nodes (from the Theorem 1.1
        pipeline); if omitted, a BFS tree of ``graph`` is built — the
        round charges then reflect that tree's height.
    rooting:
        One of :data:`ROOTING_MODES`; selects the execution tier used to
        build the BFS tree when ``tree`` is omitted (ignored otherwise).
        The message-level tiers flood for ``diameter(graph)`` rounds —
        monitoring runs on arbitrary graphs, where the paper's
        ``log n ≥ diameter`` budget need not hold.
    """

    def __init__(
        self, graph, tree: RootedTree | None = None, rooting: str = "reference"
    ) -> None:
        if rooting not in ROOTING_MODES:
            raise ValueError(f"rooting must be one of {ROOTING_MODES}, got {rooting!r}")
        self.adj = adjacency_sets(graph)
        if tree is None:
            tree = self._build_tree(rooting)
        if tree.n != len(self.adj):
            raise ValueError("tree and graph disagree on the node count")
        self.tree = tree
        self.prims = TreePrimitives(tree)

    def _build_tree(self, rooting: str) -> RootedTree:
        if rooting == "reference":
            bfs = build_bfs_forest(self.adj)
            if len(bfs.roots) != 1:
                raise ValueError("monitoring requires a connected network")
            return RootedTree(root=bfs.roots[0], parent=bfs.parent.copy())

        from repro.core.protocol_tree import run_protocol_rooting
        from repro.core.soa_rooting import run_soa_rooting
        from repro.graphs.analysis import diameter, is_connected
        from repro.graphs.portgraph import PortGraph

        if not is_connected(self.adj):
            raise ValueError("monitoring requires a connected network")
        n = len(self.adj)
        edges = [
            (v, u) for v in range(n) for u in sorted(self.adj[v]) if u > v
        ]
        ends_a = np.array([v for v, _ in edges], dtype=np.int64)
        ends_b = np.array([u for _, u in edges], dtype=np.int64)
        delta = max((len(a) for a in self.adj), default=1) or 1
        pg = PortGraph.from_edge_multiset(
            n=n, delta=delta, endpoints_a=ends_a, endpoints_b=ends_b
        )
        runner = {"protocol": run_protocol_rooting, "soa": run_soa_rooting}[rooting]
        result = runner(pg, flood_rounds=max(1, diameter(self.adj)))
        return RootedTree(root=result.root, parent=result.parent.copy())

    # ------------------------------------------------------------------
    def node_count(self) -> MonitorReport:
        """Exact number of live nodes."""
        res = self.prims.count_nodes()
        return MonitorReport(value=res.value, rounds=res.rounds)

    def edge_count(self) -> MonitorReport:
        """Exact number of local edges (sum of degrees / 2)."""
        degrees = [len(a) for a in self.adj]
        res = self.prims.aggregate(degrees, lambda a, b: a + b)
        return MonitorReport(value=res.value // 2, rounds=res.rounds)

    def max_degree(self) -> MonitorReport:
        degrees = [len(a) for a in self.adj]
        res = self.prims.aggregate(degrees, max)
        return MonitorReport(value=res.value, rounds=res.rounds)

    def min_degree(self) -> MonitorReport:
        degrees = [len(a) for a in self.adj]
        res = self.prims.aggregate(degrees, min)
        return MonitorReport(value=res.value, rounds=res.rounds)

    # ------------------------------------------------------------------
    def is_bipartite(self) -> MonitorReport:
        """Bipartiteness of the *local* network.

        Nodes 2-colour themselves by BFS-layer parity (``O(diam)`` local
        rounds charged as the BFS the overlay construction already ran),
        then aggregate one conflict bit: a monochromatic local edge
        witnesses an odd cycle.  Correct for connected graphs by the
        standard argument (BFS-layer colouring is proper iff the graph
        is bipartite).
        """
        from repro.graphs.analysis import bfs_distances

        dist = bfs_distances(self.adj, self.tree.root)
        if (dist < 0).any():
            raise ValueError("monitoring requires a connected network")
        colour = dist % 2
        conflict = [
            any(colour[u] == colour[v] for u in self.adj[v]) for v in range(len(self.adj))
        ]
        res = self.prims.aggregate(conflict, lambda a, b: a or b)
        bfs_rounds = int(dist.max())
        return MonitorReport(value=not res.value, rounds=bfs_rounds + res.rounds)

    # ------------------------------------------------------------------
    def all_monitors(self) -> dict[str, MonitorReport]:
        """Run the full monitoring battery (one aggregation each)."""
        return {
            "node_count": self.node_count(),
            "edge_count": self.edge_count(),
            "max_degree": self.max_degree(),
            "min_degree": self.min_degree(),
            "is_bipartite": self.is_bipartite(),
        }
