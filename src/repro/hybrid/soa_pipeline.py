"""Columnar §4 pipeline: SoA spanner → degree reduction → hybrid overlay.

The per-node hybrid pipeline (:mod:`repro.hybrid.spanner` →
:mod:`repro.hybrid.degree_reduction` → :mod:`repro.hybrid.overlay` →
:mod:`repro.hybrid.components`) keeps its state in ``list[set]`` /
``dict`` structures and pays one Python operation per (node, neighbour,
round) — which caps churn-rebuild loops at small ``n``.  This module is
the structure-of-arrays port, the fourth protocol family on the SoA tier
after rooting, the expander, and the synchroniser:

- the Elkin–Neiman broadcast runs as a real :class:`SoASpannerClass`
  population on :class:`~repro.net.network.SyncNetwork` — the emitted
  ``(source, value)`` columns travel through the exact same
  ``_deliver_flat`` tail as every other tier, and the "heard" maps of all
  nodes live in one flat ``(node, source, value, predecessor)`` table
  merged with segment reductions;
- degree reduction, the benign preparation, the BFS/flooding tail, and
  the Theorem 4.1 well-forming (batched child–sibling conversion, forest
  Euler tours positioned by one combined pointer-jumping ranking, heap
  writeback — :func:`repro.core.euler.well_formed_forest_columns`)
  are pure column transforms (lexsort + ``reduceat``);
- the evolutions reuse :class:`~repro.hybrid.overlay.HybridExpanderBuilder`
  (already array-native) with a :class:`SoAHybridLedger` injected so the
  token-congestion accounting stays columnar end to end.

Everything here is **bit-for-bit** equal to the per-node path under a
shared seed: the spanner draws the identical ``rng.exponential`` column,
the broadcast's max/tie-break discipline matches the per-node ``max`` key
``(value, -source)``, strict-improvement merging reproduces the per-node
"first arrival wins ties" rule, and the overlay consumes the generator in
the identical order.  ``tests/hybrid/test_soa_pipeline.py`` pins the
equality (edge sets, degrees, ledgers, labels, parents) over a seed
matrix, and ``benchmarks/bench_s5_hybrid_scaling.py`` measures the
speedup with a hard assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.bfs import BFSForest
from repro.core.euler import well_formed_forest_columns
from repro.graphs.portgraph import PortGraph
from repro.net.batch import KINDS, BySender, MessageBatch
from repro.net.hybrid import HybridLedger
from repro.net.network import CapacityPolicy, SyncNetwork
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.net.vectorops import group_argsort
from repro.runtime import context_or_default

__all__ = [
    "CSRAdjacency",
    "SoAHybridLedger",
    "SoASpannerClass",
    "SpannerColumns",
    "build_spanner_soa",
    "ReducedColumns",
    "reduce_degree_soa",
    "BaseEdgeColumns",
    "build_hybrid_overlay_soa",
    "flood_min_ids_columns",
    "distributed_bfs_columns",
    "build_bfs_forest_soa",
    "connected_components_hybrid_soa",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (sort + run-length dedup).

    ``np.unique`` routes int64 columns through a hash table; for the
    edge-key columns here the plain sort is measurably faster and the
    sortedness is needed downstream anyway.
    """
    if values.shape[0] == 0:
        return values
    values = np.sort(values)
    keep = np.concatenate([[True], values[1:] != values[:-1]])
    return values[keep]


# ----------------------------------------------------------------------
# Columnar adjacency
# ----------------------------------------------------------------------
@dataclass
class CSRAdjacency:
    """Simple-graph adjacency as CSR columns (both directions present).

    ``indices[indptr[v]:indptr[v + 1]]`` are ``v``'s neighbours sorted
    ascending — the columnar replacement for ``list[set[int]]``.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return int(self.indptr.shape[0] - 1)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.degrees().max(initial=0))

    @classmethod
    def from_edges(cls, n: int, a: np.ndarray, b: np.ndarray) -> "CSRAdjacency":
        """CSR from undirected edge columns (self-loops and duplicate
        pairs removed)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        key = _sorted_unique(src * np.int64(n) + dst)
        src = key // n
        dst = key % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr=indptr, indices=dst)

    @classmethod
    def from_graph(cls, graph) -> "CSRAdjacency":
        """Normalise any graph the per-node path accepts into CSR columns.

        :class:`~repro.graphs.portgraph.PortGraph` inputs are converted
        with one vectorized pass over the port matrix; everything else
        falls back through
        :func:`repro.graphs.analysis.adjacency_sets`.
        """
        if isinstance(graph, CSRAdjacency):
            return graph
        if isinstance(graph, PortGraph):
            n, delta = graph.ports.shape
            src = np.repeat(np.arange(n, dtype=np.int64), delta)
            dst = graph.ports.reshape(-1)
            return cls.from_edges(n, src, dst)
        from repro.graphs.analysis import adjacency_sets

        adj = adjacency_sets(graph)
        n = len(adj)
        counts = np.fromiter((len(s) for s in adj), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for v, neigh in enumerate(adj):
            indices[indptr[v] : indptr[v + 1]] = sorted(neigh)
        return cls(indptr=indptr, indices=indices)

    def induced_by(self, alive: np.ndarray) -> "CSRAdjacency":
        """Subgraph induced by the ``alive`` mask, relabelled to
        ``0..alive.sum()-1`` (position among the survivors).

        The one survivor-extraction used by both churn-rebuild entry
        points (:func:`repro.graphs.churn.rebuild_survivor_overlay` and
        :func:`repro.scenarios.runner.run_churn_rebuild_scenario`), so
        the kill-set choice is the only thing that differs between them.
        """
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        dst = self.indices
        keep = (dst > src) & alive[src] & alive[dst]
        relabel = np.cumsum(alive, dtype=np.int64) - 1
        return CSRAdjacency.from_edges(
            int(alive.sum()), relabel[src[keep]], relabel[dst[keep]]
        )

    def neighbor_gather(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(senders, targets)``: every (node, neighbour) pair for the
        given nodes, node order preserved (the multi-range CSR gather)."""
        counts = self.indptr[nodes + 1] - self.indptr[nodes]
        total = int(counts.sum())
        if total == 0:
            return _EMPTY, _EMPTY
        ends = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        targets = self.indices[np.repeat(self.indptr[nodes], counts) + offsets]
        return np.repeat(nodes, counts), targets

    def to_sets(self) -> list[set[int]]:
        """Materialise ``list[set]`` adjacency (test/debug interop)."""
        return [
            set(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())
            for v in range(self.n)
        ]


# ----------------------------------------------------------------------
# Columnar ledger
# ----------------------------------------------------------------------
class SoAHybridLedger:
    """Columnar :class:`~repro.net.hybrid.HybridLedger` counterpart.

    Charges accumulate in parallel int64 columns (amortised-doubling
    append) instead of a list of tuples, so per-evolution accounting at
    scale costs O(1) Python work per phase and the aggregate reductions
    (:attr:`total_rounds`, :attr:`max_global_capacity`) are single numpy
    reductions.  The :attr:`phases` view, :meth:`merge`, and
    :meth:`summary` match :class:`HybridLedger` exactly, so the two are
    interchangeable everywhere a ledger is consumed (and
    ``summary()``-equal for matched runs — the S5 equivalence bar).
    """

    __slots__ = ("_names", "_cols", "_len")

    def __init__(self) -> None:
        self._names: list[str] = []
        self._cols = np.zeros((3, 8), dtype=np.int64)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def charge(
        self,
        name: str,
        local_rounds: int = 0,
        global_rounds: int = 0,
        global_capacity: int = 0,
    ) -> None:
        """Record a phase's communication cost (HybridLedger contract)."""
        if min(local_rounds, global_rounds, global_capacity) < 0:
            raise ValueError("charges must be non-negative")
        if self._len == self._cols.shape[1]:
            grown = np.zeros((3, 2 * self._cols.shape[1]), dtype=np.int64)
            grown[:, : self._len] = self._cols
            self._cols = grown
        self._cols[:, self._len] = (local_rounds, global_rounds, global_capacity)
        self._names.append(name)
        self._len += 1

    def merge(self, other, prefix: str = "") -> None:
        """Absorb another ledger's phases (columnar or per-node)."""
        for name, lr, gr, gc in other.phases:
            self.charge(f"{prefix}{name}", lr, gr, gc)

    @property
    def phases(self) -> list[tuple[str, int, int, int]]:
        cols = self._cols[:, : self._len]
        return [
            (name, int(cols[0, i]), int(cols[1, i]), int(cols[2, i]))
            for i, name in enumerate(self._names)
        ]

    @property
    def total_rounds(self) -> int:
        cols = self._cols[:, : self._len]
        if self._len == 0:
            return 0
        return int(np.maximum(cols[0], cols[1]).sum())

    @property
    def max_global_capacity(self) -> int:
        if self._len == 0:
            return 0
        return int(self._cols[2, : self._len].max())

    def summary(self) -> dict[str, int]:
        return {
            "phases": self._len,
            "total_rounds": self.total_rounds,
            "max_global_capacity": self.max_global_capacity,
        }

    def to_ledger(self) -> HybridLedger:
        """Materialise a plain :class:`HybridLedger` (interop)."""
        ledger = HybridLedger()
        ledger.merge(self)
        return ledger


# ----------------------------------------------------------------------
# Segment helpers (shared by the broadcast and the finalisation)
# ----------------------------------------------------------------------
def _segment_starts(keys: np.ndarray) -> np.ndarray:
    """Start offsets of equal-key runs in a sorted key column."""
    if keys.shape[0] == 0:
        return _EMPTY
    return np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))


def _first_max_per_segment(
    values: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Row index of the first maximum of each segment.

    Rows within a segment keep their column order, so "first maximum"
    realises the per-node tie-breaks: smallest source for the broadcast
    argmax (rows are source-sorted) and earliest arrival for merges (rows
    are arrival-ordered).
    """
    m = values.shape[0]
    seg_id = np.zeros(m, dtype=np.int64)
    seg_id[starts[1:]] = 1
    seg_id = np.cumsum(seg_id)
    maxima = np.maximum.reduceat(values, starts)
    candidates = np.where(values == maxima[seg_id], np.arange(m, dtype=np.int64), m)
    return np.minimum.reduceat(candidates, starts)


# ----------------------------------------------------------------------
# SoA spanner (Elkin–Neiman broadcast as a protocol-class population)
# ----------------------------------------------------------------------
class SoASpannerClass(SoAProtocolClass):
    """All nodes of the truncated Elkin–Neiman broadcast (§4.2 step 1).

    State is one flat *heard table* — parallel columns ``(node, source,
    value, predecessor)`` sorted by ``(node, source)`` — replacing the
    per-node ``dict`` maps.  Each round the population:

    1. merges the delivered :class:`~repro.net.soa.SoAInbox` (payload =
       source id, second lane = the IEEE-754 bits of the value; the
       arriving value is the sender's stored value minus one) — strict
       improvement only, earliest arrival winning ties, exactly the
       per-node update rule;
    2. emits, per node with a non-empty heard set, the current maximiser
       ``(value, smallest source)`` to every neighbour — senders ascending,
       the canonical SoA emission order.

    Values travel bit-exactly (float64 ↔ int64 view), so the broadcast is
    bit-for-bit the per-node one.
    """

    KIND = "spanner"

    def __init__(self, adj: CSRAdjacency, shifts: np.ndarray, rounds: int) -> None:
        super().__init__(adj.n)
        self.adj = adj
        self.rounds = rounds
        self._emitted = 0
        seeded = np.flatnonzero(shifts > -math.inf)
        # Heard table sorted by the combined key node·n + source.
        self.h_key = seeded * np.int64(self.n) + seeded
        self.h_val = shifts[seeded].astype(np.float64, copy=True)
        self.h_pred = seeded.copy()
        # Incrementally tracked per-node argmax (value, then smallest
        # source) — heard values only ever improve, so the running
        # maximum is exact and emission never rescans the table.
        self.best_val = np.full(adj.n, -math.inf)
        self.best_src = np.full(adj.n, -1, dtype=np.int64)
        self.best_val[seeded] = self.h_val
        self.best_src[seeded] = seeded
        # Last broadcast maximiser per node (dirty-bit emission).
        self._sent_val = np.full(adj.n, -math.inf)
        self._sent_src = np.full(adj.n, -1, dtype=np.int64)

    @property
    def h_node(self) -> np.ndarray:
        return self.h_key // np.int64(self.n)

    @property
    def h_src(self) -> np.ndarray:
        return self.h_key % np.int64(self.n)

    # -- heard-table operations ----------------------------------------
    def _merge_inbox(self, inbox: SoAInbox) -> None:
        if len(inbox) == 0:
            return
        a_node = inbox.receivers
        a_src = inbox.payloads
        a_val = inbox.payloads2.view(np.float64) - 1.0
        a_pred = inbox.senders
        # Reduce the round's arrivals per (node, source): max value, tie →
        # earliest arrival.  The inbox is receiver-sorted with canonical
        # (sender-ascending) order inside each group, and the stable
        # argsort keeps it, so "first row of the segment" is the smallest
        # sender — the per-node "first arrival wins ties" rule.
        key = a_node * np.int64(self.n) + a_src
        order = group_argsort(key, self.n * self.n)
        key, a_val, a_pred = key[order], a_val[order], a_pred[order]
        starts = _segment_starts(key)
        pick = _first_max_per_segment(a_val, starts)
        key, a_val, a_pred = key[pick], a_val[pick], a_pred[pick]
        nodes = key // np.int64(self.n)

        # Fold the round's candidates into the running per-node argmax.
        # Raw (pre-merge) candidates are safe: a candidate that loses to
        # an existing entry carries a value ≤ that entry ≤ the tracked
        # best, so it can only win the comparison when it genuinely ties
        # the best with a smaller source — exactly the recomputed
        # tie-break.
        node_starts = _segment_starts(nodes)
        best_rows = _first_max_per_segment(a_val, node_starts)
        c_node = nodes[node_starts]
        c_src = key[best_rows] % np.int64(self.n)
        c_val = a_val[best_rows]
        better = (c_val > self.best_val[c_node]) | (
            (c_val == self.best_val[c_node]) & (c_src < self.best_src[c_node])
        )
        upd = np.flatnonzero(better)
        if upd.shape[0]:
            self.best_val[c_node[upd]] = c_val[upd]
            self.best_src[c_node[upd]] = c_src[upd]

        # Drop every arrival below the edge threshold ``best(v) - 1``.
        # ``best`` only grows and a row's stored value only grows towards
        # a fixed arrival stream, so a sub-threshold entry can never
        # qualify for step 3 again — skipping it (and later pruning the
        # table against the grown threshold) leaves the final edge
        # selection bit-for-bit unchanged while keeping the table at
        # O(sources within 1 of the max) per node instead of
        # O(degree · rounds).  The filter runs *after* the best update:
        # a round's own arrivals may raise the threshold.
        keep = np.flatnonzero(a_val >= self.best_val[nodes] - 1.0)
        if keep.shape[0] != key.shape[0]:
            key, a_val, a_pred = key[keep], a_val[keep], a_pred[keep]

        # Merge into the key-sorted heard table without re-sorting it:
        # matched keys improve in place only when strictly greater (the
        # per-node ``arriving > prev`` rule), new keys are inserted at
        # their sorted positions.
        h = self.h_key.shape[0]
        pos = np.searchsorted(self.h_key, key)
        if h:
            matched = (pos < h) & (self.h_key[np.minimum(pos, h - 1)] == key)
        else:
            matched = np.zeros(key.shape[0], dtype=bool)
        improve = np.flatnonzero(matched & (a_val > self.h_val[np.minimum(pos, max(h - 1, 0))]))
        if improve.shape[0]:
            rows = pos[improve]
            self.h_val[rows] = a_val[improve]
            self.h_pred[rows] = a_pred[improve]
        fresh = np.flatnonzero(~matched)
        if fresh.shape[0]:
            at = pos[fresh]
            self.h_key = np.insert(self.h_key, at, key[fresh])
            self.h_val = np.insert(self.h_val, at, a_val[fresh])
            self.h_pred = np.insert(self.h_pred, at, a_pred[fresh])

        # Prune table rows the grown threshold has disqualified.
        alive = np.flatnonzero(self.h_val >= self.best_val[self.h_node] - 1.0)
        if alive.shape[0] != self.h_key.shape[0]:
            self.h_key = self.h_key[alive]
            self.h_val = self.h_val[alive]
            self.h_pred = self.h_pred[alive]

    def _emit(self) -> MessageBatch | None:
        # Dirty-bit broadcast: a node whose maximiser is unchanged since
        # its last emission would repeat the identical ``(source,
        # value − 1)`` message, and the strict-improvement merge is
        # idempotent under repeats — so suppressing it leaves every heard
        # table (hence the spanner) bit-for-bit unchanged while the
        # message volume collapses once the wave has passed.  The
        # per-node oracle re-sends plainly each round; tests pin the
        # outputs equal, not the traffic.
        nodes = np.flatnonzero(
            (self.best_val > -math.inf)
            & (
                (self.best_val != self._sent_val)
                | (self.best_src != self._sent_src)
            )
        )
        if nodes.shape[0] == 0:
            return None
        self._sent_val[nodes] = self.best_val[nodes]
        self._sent_src[nodes] = self.best_src[nodes]
        senders, receivers = self.adj.neighbor_gather(nodes)
        if receivers.shape[0] == 0:
            return None
        # Both lanes are the sender's maximiser: per-sender lanes over the
        # node columns, read by the network at this round's delivery.
        return MessageBatch(
            senders=senders,
            receivers=receivers,
            kinds=KINDS.code(self.KIND),
            payloads=BySender(self.best_src),
            payloads2=BySender(self.best_val.view(np.int64)),
        )

    # -- protocol-class contract ---------------------------------------
    def on_round_soa(self, round_no: int, inbox: SoAInbox) -> MessageBatch | None:
        self._merge_inbox(inbox)
        if self._emitted >= self.rounds:
            return None
        self._emitted += 1
        return self._emit()

    def is_idle(self) -> bool:
        return self._emitted >= self.rounds


@dataclass
class SpannerColumns:
    """Directed spanner ``S(G)`` as flat edge columns.

    ``src → dst`` rows are unique and lexsorted — the columnar counterpart
    of :class:`~repro.hybrid.spanner.SpannerResult`'s ``list[set]``
    (``to_result`` materialises that form for interop/tests).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    active: np.ndarray
    added_all: np.ndarray
    shifts: np.ndarray
    rounds: int

    def max_outdegree(self) -> int:
        if self.src.shape[0] == 0:
            return 0
        return int(np.bincount(self.src, minlength=self.n).max())

    def num_directed_edges(self) -> int:
        return int(self.src.shape[0])

    def to_result(self):
        from repro.hybrid.spanner import SpannerResult

        out_edges: list[set[int]] = [set() for _ in range(self.n)]
        for v, u in zip(self.src.tolist(), self.dst.tolist()):
            out_edges[v].add(u)
        return SpannerResult(
            out_edges=out_edges,
            active=self.active.copy(),
            added_all=self.added_all.copy(),
            shifts=self.shifts.copy(),
            rounds=self.rounds,
        )


def build_spanner_soa(
    graph,
    rng: np.random.Generator,
    component_bound: int | None = None,
    degree_threshold: int | None = None,
    ctx=None,
) -> SpannerColumns:
    """Columnar Elkin–Neiman spanner, bit-for-bit equal to
    :func:`repro.hybrid.spanner.build_spanner` under a shared seed.

    The broadcast itself runs as a :class:`SoASpannerClass` population on
    :class:`~repro.net.network.SyncNetwork` (unbounded capacity — CONGEST
    local edges carry one message per edge per round and never consult
    the delivery RNG, so the only draw is the shifts column, identical to
    the per-node path's).
    """
    adj = CSRAdjacency.from_graph(graph)
    n = adj.n
    if n == 0:
        return SpannerColumns(
            n=0,
            src=_EMPTY,
            dst=_EMPTY,
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

    shifts = rng.exponential(scale=2.0, size=n)
    shifts[shifts > limit] = -math.inf

    population = SoASpannerClass(adj, shifts, rounds)
    network = SyncNetwork(
        population,
        CapacityPolicy.unbounded(),
        np.random.default_rng(0),  # never consumed: no capacity truncation
        ctx=ctx,
    )
    for _ in range(rounds + 1):
        network.run_round()

    # ---- finalisation (§4.2 steps 3–4) -------------------------------
    h_node, h_val = population.h_node, population.h_val
    best = np.full(n, -math.inf)
    starts = _segment_starts(h_node)
    if starts.shape[0]:
        best[h_node[starts]] = np.maximum.reduceat(h_val, starts)
    active = best >= 0.0
    degrees = adj.degrees()
    added_all = (degrees < degree_threshold) | ~active
    # Active nodes adopt the predecessor of every source within 1 of
    # their maximum; fallback nodes adopt every incident edge.
    sel = active[h_node] & (h_val >= best[h_node] - 1.0) & (population.h_pred != h_node)
    pred_src = h_node[sel]
    pred_dst = population.h_pred[sel]
    fb_nodes = np.flatnonzero(added_all)
    fb_src, fb_dst = adj.neighbor_gather(fb_nodes)
    key = _sorted_unique(
        np.concatenate([pred_src, fb_src]) * np.int64(n)
        + np.concatenate([pred_dst, fb_dst])
    )
    return SpannerColumns(
        n=n,
        src=key // n,
        dst=key % n,
        active=active,
        added_all=added_all,
        shifts=shifts,
        rounds=rounds,
    )


# ----------------------------------------------------------------------
# Columnar degree reduction (§4.2 step 2)
# ----------------------------------------------------------------------
@dataclass
class ReducedColumns:
    """The bounded-degree graph ``H`` as flat columns with provenance.

    ``edge_a < edge_b`` rows are unique and lexsorted; ``centre[i]`` is
    the delegation centre of the chain edge (``-1`` for genuine spanner
    edges — the columnar encoding of ``None``).  ``adj`` is the CSR view
    the overlay preparation and equivalence tests consume.
    """

    edge_a: np.ndarray
    edge_b: np.ndarray
    centre: np.ndarray
    adj: CSRAdjacency
    rounds: int = 2

    @property
    def n(self) -> int:
        return self.adj.n

    def max_degree(self) -> int:
        return self.adj.max_degree()

    def expand_edge(self, a: int, b: int) -> list[tuple[int, int]]:
        """Oriented ``G``-edge path realising the ``H``-edge ``a → b``
        (columnar lookup; matches :meth:`ReducedGraph.expand_edge`)."""
        lo, hi = (a, b) if a < b else (b, a)
        key = lo * np.int64(self.n) + hi
        keys = self.edge_a * np.int64(self.n) + self.edge_b
        pos = int(np.searchsorted(keys, key))
        if pos >= keys.shape[0] or keys[pos] != key:
            return [(a, b)]
        centre = int(self.centre[pos])
        if centre < 0:
            return [(a, b)]
        return [(a, centre), (centre, b)]

    def to_reduced(self):
        from repro.hybrid.degree_reduction import ReducedGraph

        delegation = {
            frozenset((int(a), int(b))): (None if c < 0 else int(c))
            for a, b, c in zip(
                self.edge_a.tolist(), self.edge_b.tolist(), self.centre.tolist()
            )
        }
        return ReducedGraph(
            adj=self.adj.to_sets(), delegation=delegation, rounds=self.rounds
        )


def reduce_degree_soa(spanner: SpannerColumns) -> ReducedColumns:
    """Columnar edge delegation, equal to
    :func:`repro.hybrid.degree_reduction.reduce_degree`.

    Per delegation centre ``v`` (in-neighbours ``w₁ < … < w_k``): the
    smallest in-neighbour keeps ``{v, w₁}`` (genuine, centre ``-1``) and
    consecutive in-neighbours chain through ``v``.  A genuine edge always
    wins over a chain realisation of the same pair, and among chain
    centres the smallest wins — exactly the per-node dict's insertion
    discipline (``None`` unconditional, first-wins otherwise, outer loop
    ascending), realised here as a min-reduction because ``-1`` sorts
    below every centre id.
    """
    n = spanner.n
    # In-edge view sorted by (dst, src): rows are already unique.
    order = np.lexsort((spanner.src, spanner.dst))
    iv = spanner.dst[order]
    iw = spanner.src[order]
    starts = _segment_starts(iv)
    is_start = np.zeros(iv.shape[0], dtype=bool)
    is_start[starts] = True

    kept_a, kept_b = iv[starts], iw[starts]  # {v, w1}, genuine
    chain_rows = np.flatnonzero(~is_start)
    chain_a = iw[chain_rows - 1]
    chain_b = iw[chain_rows]
    chain_c = iv[chain_rows]

    a = np.concatenate([kept_a, chain_a])
    b = np.concatenate([kept_b, chain_b])
    centre = np.concatenate(
        [np.full(kept_a.shape[0], -1, dtype=np.int64), chain_c]
    )
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = lo * np.int64(n) + hi
    order = np.lexsort((centre, key))
    key_s, centre_s = key[order], centre[order]
    starts = _segment_starts(key_s)
    edge_key = key_s[starts]
    return ReducedColumns(
        edge_a=edge_key // n,
        edge_b=edge_key % n,
        centre=centre_s[starts],
        adj=CSRAdjacency.from_edges(n, edge_key // n, edge_key % n)
        if edge_key.shape[0]
        else CSRAdjacency(
            indptr=np.zeros(n + 1, dtype=np.int64), indices=_EMPTY
        ),
    )


# ----------------------------------------------------------------------
# Columnar hybrid overlay (Theorem 4.1 preparation + builder reuse)
# ----------------------------------------------------------------------
class BaseEdgeColumns:
    """Lazy ``list[BaseEdge]`` view over flat base-edge columns.

    The columnar preparation's counterpart of the per-node registry: the
    ``(u, v)`` columns already sit in the per-node emission order (node
    ascending, partner ascending, ``copies`` consecutive repeats), so
    materialising :class:`~repro.core.benign.BaseEdge` objects happens
    only when something actually indexes the registry (the spanning-tree
    unwinding, tests) — never on the build path.
    """

    __slots__ = ("us", "vs")

    def __init__(self, us: np.ndarray, vs: np.ndarray) -> None:
        self.us = us
        self.vs = vs

    def __len__(self) -> int:
        return int(self.us.shape[0])

    def __getitem__(self, idx):
        from repro.core.benign import BaseEdge

        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        i = int(idx)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"base edge {idx} out of range for {len(self)}")
        u, v = int(self.us[i]), int(self.vs[i])
        return BaseEdge(u=u, v=v, source=(u, v))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _benign_base_soa(
    reduced: ReducedColumns, delta: int
) -> tuple[PortGraph, BaseEdgeColumns]:
    """Columnar hybrid preparation (copy edges into the port slack,
    self-loops to Δ) — the vectorized twin of the per-node
    ``_benign_from_bounded_degree`` (identical edge order: node
    ascending, partner ascending, copies consecutive)."""
    max_degree = reduced.max_degree()
    copies = max(1, delta // (4 * max(1, max_degree)))
    ends_a = np.repeat(reduced.edge_a, copies)
    ends_b = np.repeat(reduced.edge_b, copies)
    graph = PortGraph.from_edge_multiset(
        n=reduced.n, delta=delta, endpoints_a=ends_a, endpoints_b=ends_b
    )
    return graph, BaseEdgeColumns(ends_a, ends_b)


def build_hybrid_overlay_soa(
    reduced: ReducedColumns,
    rng: np.random.Generator | None = None,
    params=None,
    record_traces: bool = False,
    m_bound: int | None = None,
    gap_threshold: float | None = None,
    track_gap: bool = False,
):
    """Columnar Theorem 4.1: hybrid overlay on a reduced graph.

    Bit-for-bit equal to
    :func:`repro.hybrid.overlay.build_hybrid_overlay` on the same input
    under a shared seed — the preparation is a pure column transform and
    the evolutions reuse the (already array-native)
    :class:`~repro.hybrid.overlay.HybridExpanderBuilder`, with a
    :class:`SoAHybridLedger` accumulating the per-evolution
    token-congestion charges columnarly.
    """
    from repro.hybrid.overlay import (
        HybridExpanderBuilder,
        HybridOverlayParams,
        HybridOverlayResult,
    )

    if rng is None:
        rng = np.random.default_rng(0)
    n = reduced.n
    max_degree = reduced.max_degree()
    if params is None:
        params = HybridOverlayParams.recommended(n, max_degree, m_bound=m_bound)
    if max_degree > params.delta // 2:
        raise ValueError(
            f"input degree {max_degree} exceeds delta/2 = {params.delta // 2}; "
            "reduce the degree first (repro.hybrid.degree_reduction)"
        )
    base, base_registry = _benign_base_soa(reduced, params.delta)
    builder = HybridExpanderBuilder(
        base, params, rng, record_traces=record_traces, ledger=SoAHybridLedger()
    )
    builder.run(gap_threshold=gap_threshold, track_gap=track_gap)
    return HybridOverlayResult(
        final_graph=builder.current,
        history=builder.history,
        levels=builder.levels,
        base_registry=base_registry,
        level_registries=builder.level_registries,
        params=params,
        ledger=builder.ledger,
    )


# ----------------------------------------------------------------------
# Columnar flooding + BFS tail
# ----------------------------------------------------------------------
def flood_min_ids_columns(adj: CSRAdjacency) -> tuple[np.ndarray, int]:
    """Columnar min-id flooding; identical ``(root_of, rounds)`` to
    :func:`repro.core.bfs.flood_min_ids` (the final no-change round is
    counted, as a synchronous network would need it for quiescence)."""
    n = adj.n
    best = np.arange(n, dtype=np.int64)
    rounds = 0
    has_neighbors = np.flatnonzero(np.diff(adj.indptr) > 0)
    if has_neighbors.shape[0] == 0:
        return best, 1 if n else 0
    starts = _segment_starts(
        np.repeat(has_neighbors, np.diff(adj.indptr)[has_neighbors])
    )
    while True:
        neigh_min = np.minimum.reduceat(best[adj.indices], starts)
        nxt = best.copy()
        nxt[has_neighbors] = np.minimum(nxt[has_neighbors], neigh_min)
        rounds += 1
        if np.array_equal(nxt, best):
            return best, rounds
        best = nxt


def distributed_bfs_columns(
    adj: CSRAdjacency, roots: list[int]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Columnar level-synchronous BFS; identical output to
    :func:`repro.core.bfs.distributed_bfs` (smallest-id parent
    tie-break, rounds counted per frontier iteration)."""
    n = adj.n
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int64)
    frontier = np.asarray(roots, dtype=np.int64)
    parent[frontier] = frontier
    depth[frontier] = 0
    rounds = 0
    while frontier.shape[0]:
        rounds += 1
        src, tgt = adj.neighbor_gather(frontier)
        undiscovered = parent[tgt] < 0
        src, tgt = src[undiscovered], tgt[undiscovered]
        if tgt.shape[0] == 0:
            break
        order = np.lexsort((src, tgt))
        src, tgt = src[order], tgt[order]
        starts = _segment_starts(tgt)
        new_nodes = tgt[starts]
        new_parents = src[starts]
        parent[new_nodes] = new_parents
        depth[new_nodes] = depth[new_parents] + 1
        frontier = new_nodes
    return parent, depth, rounds


def build_bfs_forest_soa(graph) -> BFSForest:
    """Columnar :func:`repro.core.bfs.build_bfs_forest`: flood minimum
    ids, then BFS from each component's minimum-id node."""
    adj = CSRAdjacency.from_graph(graph)
    root_of, flood_rounds = flood_min_ids_columns(adj)
    roots = np.unique(root_of).tolist()
    parent, depth, bfs_rounds = distributed_bfs_columns(adj, roots)
    return BFSForest(
        parent=parent,
        depth=depth,
        root_of=root_of,
        roots=roots,
        rounds=flood_rounds + bfs_rounds,
    )


# ----------------------------------------------------------------------
# Theorem 1.2, columnar end to end
# ----------------------------------------------------------------------
def connected_components_hybrid_soa(
    graph,
    rng: np.random.Generator | None = None,
    m_bound: int | None = None,
    overlay_params=None,
    record_traces: bool = False,
    *,
    ctx=None,
):
    """Columnar Theorem 1.2 pipeline (spanner → reduction → overlay →
    flood/BFS → well-forming).

    Returns a :class:`~repro.hybrid.components.ComponentsResult` whose
    ``spanner`` / ``reduced`` fields carry the columnar representations
    (:class:`SpannerColumns`, :class:`ReducedColumns` — same data, flat
    columns) and whose ``ledger`` is a :class:`SoAHybridLedger`.  Labels,
    forests, overlay graphs, and ledger summaries are bit-for-bit the
    per-node :func:`~repro.hybrid.components.connected_components_hybrid`
    outputs under a shared seed.

    ``ctx.tracer`` (or an ambient :func:`repro.obs.capture` scope)
    records each stage boundary as a ``cat="stage"`` span annotated with the
    stage's round charge — observation only, after the stage returns, so
    traced and untraced runs are bit-for-bit identical.
    """
    from repro.hybrid.components import ComponentsResult
    from repro.obs import maybe_span, resolve_tracer

    if rng is None:
        rng = np.random.default_rng(0)
    ctx = context_or_default(ctx)
    tracer = resolve_tracer(ctx.tracer)
    ledger = SoAHybridLedger()

    with maybe_span(tracer, "spanner_broadcast", cat="stage", tier="soa") as sp:
        spanner = build_spanner_soa(graph, rng=rng, component_bound=m_bound, ctx=ctx)
        if sp is not None:
            sp.attrs["rounds"] = int(spanner.rounds)
    ledger.charge("spanner_broadcast", local_rounds=spanner.rounds)

    with maybe_span(tracer, "degree_reduction", cat="stage", tier="soa") as sp:
        reduced = reduce_degree_soa(spanner)
        if sp is not None:
            sp.attrs["rounds"] = int(reduced.rounds)
    ledger.charge("degree_reduction", local_rounds=reduced.rounds)

    with maybe_span(tracer, "overlay_evolutions", cat="stage", tier="soa"):
        overlay = build_hybrid_overlay_soa(
            reduced,
            rng=rng,
            params=overlay_params,
            record_traces=record_traces,
            m_bound=m_bound,
        )
    ledger.merge(overlay.ledger, prefix="overlay/")

    with maybe_span(tracer, "min_id_flood_and_bfs", cat="stage", tier="soa") as sp:
        bfs = build_bfs_forest_soa(overlay.final_graph)
        if sp is not None:
            sp.attrs["rounds"] = int(bfs.rounds)
    ledger.charge("min_id_flood_and_bfs", global_rounds=bfs.rounds)

    with maybe_span(tracer, "well_forming", cat="stage", tier="soa") as sp:
        forest = well_formed_forest_columns(bfs)
        if sp is not None:
            sp.attrs["rounds"] = int(forest.rounds)
    ledger.charge("well_forming", global_rounds=forest.rounds)

    return ComponentsResult(
        labels=bfs.root_of,
        forest=forest,
        bfs=bfs,
        spanner=spanner,
        reduced=reduced,
        overlay=overlay,
        ledger=ledger,
    )
