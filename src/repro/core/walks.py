"""Vectorised random-walk token engine.

Every evolution of ``CreateExpander`` (§2.1) forwards ``Δ/8`` tokens per
node along uniformly random ports for ``ℓ`` rounds.  This module advances
*all* tokens of a round simultaneously with numpy gathers, making
``n ≈ 10⁵`` experiments practical.

Two optional instrumentation channels exist because two different parts of
the reproduction need them:

- **congestion counters** (Lemma 3.2): the per-round maximum number of
  tokens resident at any node, to verify the ``≤ 3Δ/8`` w.h.p. load bound
  that underpins the NCC0 message-capacity argument;
- **edge traces** (Theorem 1.3): the sequence of *edge ids* each token
  traverses, so the spanning-tree algorithm can unwind overlay edges back
  to base-graph edges.  Self-loop steps record ``SELF_LOOP`` (-1) and are
  skipped during unwinding (the token did not move).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.portgraph import SELF_LOOP, PortGraph

__all__ = ["WalkResult", "run_token_walks", "sample_port_targets"]


def sample_port_targets(
    ports: np.ndarray,
    rng: np.random.Generator,
    positions: np.ndarray | None = None,
    count: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One uniformly random port draw per token — the §2.1 forwarding step.

    Two call modes:

    - **matrix mode** (``positions`` given): ``ports`` is the full
      ``(n, Δ)`` port matrix and the draw advances every token in the
      system at once — the fast engine's inner loop.  Uses
      ``rng.integers`` (unchanged from the original engine, preserving
      seeded histories);
    - **row mode** (``count`` given): ``ports`` is a single node's
      ``(Δ,)`` port row and the draw forwards the ``count`` tokens
      currently resident at that node — the object expander node's
      inner loop, whose shared-generator stream the SoA tier's flat draw
      reproduces.  Uses ``⌊uniform·Δ⌋`` instead: at per-node call
      granularity the ``Generator.integers`` wrapper overhead dominates
      the whole protocol run, and the scaled-uniform draw is
      equidistributed up to float rounding (≈``2⁻⁵³·Δ`` bias, far below
      anything the chi-square suites could detect).

    Returns ``(choices, targets)``: the port index each token picked and
    the node it lands on.
    """
    delta = ports.shape[-1]
    if positions is not None:
        choices = rng.integers(0, delta, size=positions.shape[0])
        # One flat gather: cheaper than numpy's two-index fancy indexing.
        return choices, ports.ravel()[positions * delta + choices]
    if count is None:
        raise ValueError("row mode requires count; matrix mode requires positions")
    choices = (rng.random(count) * delta).astype(np.int64)
    return choices, ports[choices]


@dataclass
class WalkResult:
    """Outcome of running a batch of token random walks.

    Attributes
    ----------
    origins:
        ``(m,)`` array — the node that started each token.
    endpoints:
        ``(m,)`` array — where each token is after ``length`` steps.
    max_load_per_round:
        ``(length,)`` array — the maximum number of tokens resident at a
        single node after each forwarding round (Lemma 3.2 check).
    node_traces:
        Optional ``(m, length + 1)`` array of the node sequence of each
        token (column 0 is the origin).
    edge_traces:
        Optional ``(m, length)`` array of the edge id used at each step
        (``SELF_LOOP`` where the token stayed put via a self-loop port).
    """

    origins: np.ndarray
    endpoints: np.ndarray
    max_load_per_round: np.ndarray
    node_traces: np.ndarray | None = field(default=None)
    edge_traces: np.ndarray | None = field(default=None)

    @property
    def num_tokens(self) -> int:
        return int(self.origins.shape[0])


def run_token_walks(
    graph: PortGraph,
    tokens_per_node: int,
    length: int,
    rng: np.random.Generator,
    record_traces: bool = False,
    starts: np.ndarray | None = None,
) -> WalkResult:
    """Run ``tokens_per_node`` independent ``length``-step walks per node.

    Parameters
    ----------
    graph:
        The benign :class:`PortGraph` to walk on.
    tokens_per_node:
        How many tokens each node launches (``Δ/8`` in the paper).  Ignored
        if ``starts`` is given.
    length:
        Walk length ``ℓ``.
    rng:
        Source of randomness; all port choices are drawn from it.
    record_traces:
        If True, record full node and edge-id traces (needed for
        Theorem 1.3's unwinding; costs ``O(m·ℓ)`` memory).
    starts:
        Optional explicit ``(m,)`` array of starting nodes, overriding the
        uniform ``tokens_per_node``-per-node launch (used by the stitching
        engine and by tests).

    Notes
    -----
    A walk step from node ``v`` picks one of ``v``'s ``Δ`` ports uniformly;
    self-loop ports leave the token in place, which is exactly the lazy
    walk the analysis assumes.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    ports = graph.ports
    n, delta = ports.shape
    if starts is None:
        if tokens_per_node < 0:
            raise ValueError("tokens_per_node must be >= 0")
        origins = np.repeat(np.arange(n, dtype=np.int64), tokens_per_node)
    else:
        origins = np.asarray(starts, dtype=np.int64)
    m = origins.shape[0]

    positions = origins.copy()
    max_load = np.zeros(length, dtype=np.int64)
    node_traces = None
    edge_traces = None
    if record_traces:
        node_traces = np.empty((m, length + 1), dtype=np.int64)
        node_traces[:, 0] = origins
        edge_traces = np.full((m, length), SELF_LOOP, dtype=np.int64)
        if graph.port_edge_ids is None:
            raise ValueError("record_traces requires port_edge_ids on the graph")

    for step in range(length):
        if m > 0:
            choices, targets = sample_port_targets(ports, rng, positions=positions)
            if record_traces:
                edge_traces[:, step] = graph.port_edge_ids[positions, choices]
            positions = targets
            max_load[step] = np.bincount(positions, minlength=n).max()
        if record_traces:
            node_traces[:, step + 1] = positions

    return WalkResult(
        origins=origins,
        endpoints=positions,
        max_load_per_round=max_load,
        node_traces=node_traces,
        edge_traces=edge_traces,
    )
