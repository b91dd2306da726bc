"""Message-level ``CreateExpander`` in the NCC0 model.

This engine executes the algorithm of §2.1 node-by-node on the
:class:`repro.net.network.SyncNetwork` simulator, with every token
forwarding and acceptance reply materialised as an ``O(log n)``-bit
message subject to the NCC0 capacity (messages beyond the budget are
dropped by the network, as the model prescribes).

It exists to validate the claims the fast vectorised engine cannot:

- **Theorem 1.1's communication bound** — each node sends ``O(log n)``
  messages per round and ``O(log² n)`` in total (E4);
- **Lemma 3.2 in vivo** — at the calibrated parameters no message is
  actually dropped, i.e. the w.h.p. congestion bound holds (E5);
- **engine agreement** — the final graphs of both engines are benign with
  statistically matching conductance (integration tests).

Round layout: evolution ``i`` occupies rounds ``[i·(ℓ+2), (i+1)·(ℓ+2))``:
``ℓ`` token-forwarding rounds, one acceptance round, one reply/rebuild
round.  All nodes know ``(ℓ, Δ, Λ, L)``, so the schedule needs no
coordination (§2.1).  Self-loop forwards stay inside the node and use no
network capacity, matching the model (a node "sending to itself" is local
computation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import ExpanderParams
from repro.core.walks import sample_port_targets
from repro.net.message import Message
from repro.net.network import CapacityPolicy, NetworkMetrics, ProtocolNode, SyncNetwork
from repro.graphs.portgraph import PortGraph
from repro.runtime import RunContext

__all__ = [
    "ExpanderNode",
    "ProtocolRunResult",
    "run_protocol_expander",
    "run_expander_on_network",
    "prepare_network_inputs",
    "collect_final_graph",
]


class ExpanderNode(ProtocolNode):
    """One NCC0 node executing ``CreateExpander``.

    State per evolution: the node's current port list (partner ids,
    ``self`` for self-loops), the tokens it currently holds, and the edges
    recorded for the next evolution graph.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: list[int],
        params: ExpanderParams,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(node_id)
        self.params = params
        self.rng = rng
        # MakeBenign, locally: copy each incident edge Λ times, pad with
        # self-loops to degree Δ (laziness follows from 2·Λ·d ≤ Δ).
        ports = [u for u in sorted(neighbors) for _ in range(params.lam)]
        if len(ports) > params.delta // 2:
            raise ValueError(
                f"node {node_id}: Λ·deg = {len(ports)} exceeds Δ/2 = {params.delta // 2}"
            )
        ports += [node_id] * (params.delta - len(ports))
        self.ports = ports
        self._next_origin_edges: list[int] = []  # partners via own accepted tokens
        self._next_accept_edges: list[int] = []  # partners via accepted foreign tokens
        self.evolutions_done = 0
        self.accepted_log: list[tuple[int, int]] = []  # (origin, acceptor=self)

    # ------------------------------------------------------------------
    def _phase(self, round_no: int) -> tuple[int, int]:
        span = self.params.ell + 2
        return round_no // span, round_no % span

    def _forward(self, origins: list[int]) -> list[Message]:
        """Send each token along a uniformly random port.

        One row-mode draw of :func:`repro.core.walks.sample_port_targets`
        for all resident tokens — the same stream the SoA tier's flat
        per-round draw consumes under a shared generator.
        """
        if not origins:
            return []
        _, targets = sample_port_targets(
            np.asarray(self.ports, dtype=np.int64), self.rng, count=len(origins)
        )
        return [
            Message(self.node_id, port, "token", origin)
            for port, origin in zip(targets.tolist(), origins)
        ]

    def on_round(self, round_no: int, inbox: list[Message]) -> list[Message]:
        evolution, step = self._phase(round_no)
        if evolution >= self.params.num_evolutions:
            return []
        params = self.params

        if step == 0:
            # Launch Δ/8 own tokens (a fresh evolution starts).
            return self._forward([self.node_id] * params.tokens_per_node)

        tokens = [m.payload for m in inbox if m.kind == "token"]

        if step < params.ell:
            return self._forward(tokens)

        if step == params.ell:
            # Acceptance: answer up to 3Δ/8 tokens, chosen uniformly.
            if len(tokens) > params.accept_cap:
                chosen = self.rng.choice(len(tokens), size=params.accept_cap, replace=False)
                tokens = [tokens[i] for i in sorted(chosen.tolist())]
            out = []
            for origin in tokens:
                self._next_accept_edges.append(origin)
                self.accepted_log.append((origin, self.node_id))
                out.append(Message(self.node_id, origin, "accept", self.node_id))
            return out

        # step == ell + 1: collect replies, rebuild ports, pad self-loops.
        for m in inbox:
            if m.kind == "accept":
                self._next_origin_edges.append(m.payload)
        partners = self._next_origin_edges + self._next_accept_edges
        if len(partners) > params.delta:
            raise AssertionError(
                f"node {self.node_id} assembled {len(partners)} ports > Δ"
            )
        self.ports = partners + [self.node_id] * (params.delta - len(partners))
        self._next_origin_edges = []
        self._next_accept_edges = []
        self.evolutions_done = evolution + 1
        return []

    def is_idle(self) -> bool:
        return self.evolutions_done >= self.params.num_evolutions


@dataclass
class ProtocolRunResult:
    """Outcome of a message-level ``CreateExpander`` run."""

    final_graph: PortGraph
    metrics: NetworkMetrics
    params: ExpanderParams
    rounds: int


def prepare_network_inputs(
    graph,
    params: ExpanderParams | None,
    capacity: CapacityPolicy | None,
) -> tuple[int, list[list[int]], ExpanderParams, CapacityPolicy]:
    """Shared preparation for the network-driven expander runners.

    Computes node count, adjacency lists, calibrated parameters, and the
    NCC0 capacity policy from an undirected networkx graph.  Used by both
    the object runner below and the SoA runner in
    :mod:`repro.core.batch_protocol`.
    """
    from repro.core.benign import undirected_edge_list

    n, edges = undirected_edge_list(graph)
    if params is None:
        degree = np.zeros(n, dtype=np.int64)
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        params = ExpanderParams.recommended(n, max_degree=int(degree.max(initial=1)))
    if capacity is None:
        capacity = CapacityPolicy.ncc0(n, params.delta)

    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    return n, neighbors, params, capacity


def collect_final_graph(nodes, n: int, delta: int) -> PortGraph:
    """Assemble the final evolution graph from the nodes' port lists.

    The port lists held by the nodes after the last rebuild are the
    authoritative final graph.  If an 'accept' reply was dropped by the
    network the two endpoints disagree (the acceptor holds the edge, the
    origin does not) — exactly the knowledge-graph asymmetry the model
    permits; at calibrated parameters no drops occur and the graph is a
    symmetric multigraph (asserted by the tests).
    """
    ports = np.empty((n, delta), dtype=np.int64)
    for v, node in nodes.items():
        ports[v, :] = node.ports
    return PortGraph(ports=ports)


def run_expander_on_network(
    node_factory,
    graph,
    params: ExpanderParams | None = None,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    *,
    rng_mode: str = "spawn",
    ctx: RunContext | None = None,
) -> ProtocolRunResult:
    """Shared scaffold for node-driven ``CreateExpander`` runs.

    ``node_factory(node_id, neighbors, params, rng)`` builds one protocol
    node; the scaffold owns parameter calibration, the RNG discipline,
    the round budget and final-graph assembly.  A resolved ``ctx``
    (:class:`~repro.runtime.context.RunContext`) is threaded into the
    network (delivery engine, tracer, workers, fault hook).

    ``rng_mode`` selects the randomness discipline:

    - ``"spawn"`` (default, the historical stream): every node draws from
      its own ``rng.spawn()`` child, the network from the last;
    - ``"shared"``: ``rng.spawn(2)`` yields one *protocol* generator that
      every node shares (drawing in node-iteration order) and one network
      generator.  Because sequential ``Generator.random(k)`` draws
      concatenate into one stream, this is exactly the discipline of the
      SoA tier's single flat draw per round — which is what makes
      :func:`repro.core.batch_protocol.run_soa_expander` bit-for-bit
      equal to :class:`ExpanderNode` runs under matched seeds.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if rng_mode not in ("spawn", "shared"):
        raise ValueError(f"rng_mode must be 'spawn' or 'shared', got {rng_mode!r}")
    n, neighbors, params, capacity = prepare_network_inputs(graph, params, capacity)

    if rng_mode == "spawn":
        child_rngs = rng.spawn(n + 1)
        node_rng = lambda v: child_rngs[v]  # noqa: E731
        net_rng = child_rngs[n]
    else:
        proto_rng, net_rng = rng.spawn(2)
        node_rng = lambda v: proto_rng  # noqa: E731
    nodes = {
        v: node_factory(v, neighbors[v], params, node_rng(v)) for v in range(n)
    }
    network = SyncNetwork(nodes, capacity, net_rng, ctx=ctx)
    total_rounds = params.num_evolutions * (params.ell + 2)
    metrics = network.run(max_rounds=total_rounds + 1)

    final = collect_final_graph(nodes, n, params.delta)
    return ProtocolRunResult(
        final_graph=final,
        metrics=metrics,
        params=params,
        rounds=metrics.rounds,
    )


def run_protocol_expander(
    graph,
    params: ExpanderParams | None = None,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    *,
    ctx: RunContext | None = None,
) -> ProtocolRunResult:
    """Execute ``CreateExpander`` message-by-message on ``graph``.

    ``graph`` is an undirected networkx graph (a directed knowledge graph
    should be bidirected first — one extra round, which
    :func:`repro.core.pipeline.build_well_formed_tree` charges).  Returns
    the final evolution graph assembled from the acceptors' edge records,
    plus full network metrics.  ``ctx`` is threaded into the network, as
    in :func:`run_expander_on_network`; ``ctx.engine`` selects the
    delivery engine (``"legacy"`` is the per-message oracle; both engines
    produce identical executions under the same seed).
    """
    return run_expander_on_network(ExpanderNode, graph, params, rng, capacity, ctx=ctx)
