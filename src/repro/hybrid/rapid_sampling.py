"""Rapid sampling — stitching short walks into long ones (Lemma 4.2).

The hybrid variant of ``CreateExpander`` (Theorem 4.1) needs walks of
length ``ℓ = Θ(Λ²) = Θ(log² n)`` but may only spend ``O(log m + log log n)``
rounds.  Lemma 4.2 ([17, 9, 37]) simulates length-``ℓ`` walks in
``O(log ℓ)`` rounds by *stitching*:

1. every token performs ``s₀`` ordinary forwarding steps (``s₀ = 2`` in
   the paper);
2. in each stitching round, every node randomly splits the tokens it
   currently holds into **red** and **blue** halves and pairs each red
   token with a distinct blue token.  The red token teleports to the blue
   token's *origin* and the blue token is discarded.

Because the walk graph is regular, reversing a random walk preserves its
distribution, so a red walk (``o₁ → v``) concatenated with a reversed blue
walk (``v → o₂``) is a uniform walk of doubled length from ``o₁`` —
discarding the blue token keeps the surviving walks independent.  A token
survives all ``log₂(ℓ/s₀)`` stitching rounds with probability
``≈ s₀/ℓ``, so nodes start ``(ℓ/s₀)``-fold more tokens than they need.

Full node/edge traces are maintained through the stitching (the reversed
blue trace is appended to the red trace) so the spanning-tree unwinding of
Theorem 1.3 works unchanged on stitched walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.walks import run_token_walks
from repro.graphs.portgraph import PortGraph
from repro.net.vectorops import group_argsort

__all__ = ["StitchedWalkResult", "stitched_walks"]


@dataclass
class StitchedWalkResult:
    """Surviving stitched walks.

    ``origins[k] → endpoints[k]`` are distributed as independent
    ``length``-step random walks; ``rounds`` counts the communication
    rounds used (``s₀`` plain steps plus one per stitching phase), which
    is ``O(log ℓ)``.
    """

    origins: np.ndarray
    endpoints: np.ndarray
    length: int
    rounds: int
    max_load_per_round: np.ndarray
    node_traces: np.ndarray | None = None
    edge_traces: np.ndarray | None = None

    @property
    def num_tokens(self) -> int:
        return int(self.origins.shape[0])


def stitched_walks(
    graph: PortGraph,
    tokens_per_node: int,
    target_length: int,
    rng: np.random.Generator,
    initial_steps: int = 2,
    record_traces: bool = False,
) -> StitchedWalkResult:
    """Sample walks of ``target_length`` steps in ``O(log ℓ)`` rounds.

    ``target_length`` must equal ``initial_steps · 2^k`` for integer
    ``k ≥ 0`` (lengths double per stitching round).  Each node starts
    ``tokens_per_node`` tokens; roughly ``tokens_per_node · initial_steps
    / target_length`` survive per node on average, so callers oversample
    accordingly.

    Raises
    ------
    ValueError
        If ``target_length`` is not ``initial_steps`` times a power of 2.
    """
    if initial_steps < 1:
        raise ValueError("initial_steps must be >= 1")
    if target_length < initial_steps:
        raise ValueError("target_length must be >= initial_steps")
    ratio = target_length // initial_steps
    if initial_steps * ratio != target_length or ratio & (ratio - 1):
        raise ValueError(
            f"target_length must be initial_steps * 2^k, got "
            f"{target_length} with initial_steps={initial_steps}"
        )
    num_stitches = ratio.bit_length() - 1

    walk = run_token_walks(
        graph,
        tokens_per_node=tokens_per_node,
        length=initial_steps,
        rng=rng,
        record_traces=record_traces,
    )
    origins = walk.origins
    positions = walk.endpoints
    node_traces = walk.node_traces
    edge_traces = walk.edge_traces
    loads = [walk.max_load_per_round]

    for _ in range(num_stitches):
        reds, blues = _pair_tokens(positions, rng)
        if record_traces:
            red_nodes = node_traces[reds]
            blue_nodes = node_traces[blues, ::-1]
            # The blue trace starts where the red one ends; drop the
            # duplicated junction node.
            node_traces = np.concatenate([red_nodes, blue_nodes[:, 1:]], axis=1)
            edge_traces = np.concatenate(
                [edge_traces[reds], edge_traces[blues, ::-1]], axis=1
            )
        positions = origins[blues]
        origins = origins[reds]
        load = (
            np.bincount(positions, minlength=graph.n).max()
            if positions.size
            else 0
        )
        loads.append(np.array([load], dtype=np.int64))

    return StitchedWalkResult(
        origins=origins,
        endpoints=positions,
        length=target_length,
        rounds=initial_steps + num_stitches,
        max_load_per_round=np.concatenate(loads),
        node_traces=node_traces if record_traces else None,
        edge_traces=edge_traces if record_traces else None,
    )


def _pair_tokens(
    positions: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Randomly pair tokens resident at the same node.

    Returns ``(red_indices, blue_indices)`` of equal length; position
    ``k`` of the two arrays forms one red/blue pair (both tokens sit at
    the same node).  Within each node's token group the red/blue split and
    the pairing are uniformly random; odd tokens out are discarded, as in
    the paper.
    """
    m = positions.shape[0]
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    counts = np.bincount(positions)
    perm = rng.permutation(m)
    order = perm[group_argsort(positions[perm], counts.shape[0])]
    # ``order`` lists each node's tokens as one run, nodes ascending; the
    # run of node v starts at ``starts[v]``.  Its first ``half[v]`` slots
    # are red and the next ``half[v]`` blue, so the pairs are read from
    # the run starts alone, with no per-token rank or mask.
    half = counts // 2
    starts = np.cumsum(counts) - counts
    red_start = np.cumsum(half) - half
    slot = np.arange(int(half.sum()), dtype=np.int64) + np.repeat(starts - red_start, half)
    return order[slot], order[slot + np.repeat(half, half)]
