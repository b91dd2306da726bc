"""Elkin–Neiman sparse spanner construction (§4.2, Step 1).

Theorem 1.2 must handle inputs of *unbounded* degree, but the overlay
construction wants degree ``O(log n)``.  The first step is a spanner
``S(G)`` with ``O(log n)`` outdegree per node, built with the
exponential-random-shift technique of Miller et al. as refined by Elkin
and Neiman, truncated to each component's size ``m``:

1. every node draws ``r_v ~ Exp(1/2)``, discarding values ``> 2 ln m``;
2. values are broadcast for ``2 ln m + 1`` rounds — in CONGEST it
   suffices for each node to forward, each round, only the value of the
   source ``u`` currently maximising ``m_u(v) = r_u − d(u, v)``;
3. ``v`` adds a directed edge to ``p_u(v)`` (its predecessor towards
   ``u``) for every heard source with ``m_u(v) ≥ m(v) − 1``;
4. every node of degree below the threshold ``c log n`` adds *all* its
   incident edges.

**Documented deviation** (``docs/deviations.md``, "Spanner: inactive
nodes keep all their edges"): nodes that end up *inactive*
(heard no non-negative value) also add all their incident edges.  Lemma
4.5 shows inactive nodes have degree ``< c log n`` w.h.p., so this is
w.h.p. the same rule — but it makes the connectivity proof of Lemma 4.8
hold *deterministically*, which downstream algorithms (and tests) rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.analysis import adjacency_sets

__all__ = ["SpannerResult", "build_spanner"]


@dataclass
class SpannerResult:
    """Directed spanner ``S(G)`` with construction metadata.

    Attributes
    ----------
    out_edges:
        ``out_edges[v]`` is the set of spanner targets of ``v`` (every
        ``(v, u)`` is an edge of the input graph).
    active:
        Boolean per node: heard some ``m_u(v) ≥ 0``.
    added_all:
        Boolean per node: fell back to adding every incident edge
        (low degree or inactive).
    shifts:
        The random values ``r_v`` (``-inf`` where discarded).
    rounds:
        CONGEST rounds consumed (the truncated broadcast).
    """

    out_edges: list[set[int]]
    active: np.ndarray
    added_all: np.ndarray
    shifts: np.ndarray
    rounds: int

    def undirected_adjacency(self) -> list[set[int]]:
        """The spanner viewed as an undirected graph."""
        n = len(self.out_edges)
        adj: list[set[int]] = [set() for _ in range(n)]
        for v, targets in enumerate(self.out_edges):
            for u in targets:
                adj[v].add(u)
                adj[u].add(v)
        return adj

    def max_outdegree(self) -> int:
        return max((len(t) for t in self.out_edges), default=0)

    def num_directed_edges(self) -> int:
        return sum(len(t) for t in self.out_edges)


def build_spanner(
    graph,
    rng: np.random.Generator,
    component_bound: int | None = None,
    degree_threshold: int | None = None,
) -> SpannerResult:
    """Construct the Elkin–Neiman spanner of ``graph``.

    Parameters
    ----------
    graph:
        Any graph accepted by :func:`repro.graphs.analysis.adjacency_sets`
        (treated as undirected; may be disconnected — the construction is
        purely local, so components are independent).
    rng:
        Randomness for the exponential shifts.
    component_bound:
        Known upper bound ``m`` on component sizes; broadcasts run for
        ``⌊2 ln m⌋ + 1`` rounds (Theorem 1.2's ``O(log m)`` term).
        Defaults to ``n``.
    degree_threshold:
        The ``c log n`` fallback threshold of step 4.  Defaults to
        ``max(8, ⌈2 log₂ n⌉)`` — the calibrated value under which spanner
        outdegrees stay ``O(log n)`` across the test matrix.
    """
    adj = adjacency_sets(graph)
    n = len(adj)
    if n == 0:
        return SpannerResult(
            out_edges=[],
            active=np.zeros(0, dtype=bool),
            added_all=np.zeros(0, dtype=bool),
            shifts=np.zeros(0),
            rounds=0,
        )
    m = component_bound if component_bound is not None else n
    m = max(2, m)
    if degree_threshold is None:
        degree_threshold = max(8, math.ceil(2 * math.log2(max(2, n))))
    limit = 2.0 * math.log(m)
    rounds = int(limit) + 1

    shifts = rng.exponential(scale=2.0, size=n)  # Exp(beta=1/2) has mean 2
    shifts[shifts > limit] = -math.inf

    # heard[v]: source u -> (best value r_u - d(u, v), predecessor).
    heard: list[dict[int, tuple[float, int]]] = [dict() for _ in range(n)]
    for v in range(n):
        if shifts[v] > -math.inf:
            heard[v][v] = (float(shifts[v]), v)

    for _round in range(rounds):
        # Each node forwards only its current maximiser (CONGEST: one
        # O(log n)-bit message per edge per round).
        outbox: list[tuple[int, int, float] | None] = [None] * n
        for v in range(n):
            if heard[v]:
                u, (val, _pred) = max(
                    heard[v].items(), key=lambda item: (item[1][0], -item[0])
                )
                outbox[v] = (u, v, val)
        for v in range(n):
            msg = outbox[v]
            if msg is None:
                continue
            u, sender, val = msg
            arriving = val - 1.0
            for w in adj[v]:
                prev = heard[w].get(u)
                if prev is None or arriving > prev[0]:
                    heard[w][u] = (arriving, sender)

    out_edges: list[set[int]] = [set() for _ in range(n)]
    active = np.zeros(n, dtype=bool)
    added_all = np.zeros(n, dtype=bool)
    for v in range(n):
        best = max((val for val, _pred in heard[v].values()), default=-math.inf)
        active[v] = best >= 0.0
        low_degree = len(adj[v]) < degree_threshold
        if low_degree or not active[v]:
            out_edges[v] |= adj[v]
            added_all[v] = True
        if active[v]:
            for _u, (val, pred) in heard[v].items():
                if val >= best - 1.0 and pred != v:
                    out_edges[v].add(pred)
    return SpannerResult(
        out_edges=out_edges,
        active=active,
        added_all=added_all,
        shifts=shifts,
        rounds=rounds,
    )
