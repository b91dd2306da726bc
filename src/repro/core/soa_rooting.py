"""SoA rooting: min-id flooding + BFS with *one* Python call per round.

The hot-path execution tier of the rooting phase (§2.1, footnote 8).
The object tier (:class:`~repro.core.protocol_tree._RootingNode`) pays
one Python call per node per round; at ``n ≥ 10⁵`` that call overhead —
not message work — dominates the simulation (rooting does almost no per-node compute,
making it the most call-bound phase of the pipeline).  Here the entire
population is one :class:`~repro.net.soa.SoAProtocolClass` whose state
lives in shared numpy columns:

- ``best``   — the smallest id heard so far (min-id flooding),
- ``parent`` / ``depth`` — the BFS tree under construction,
- ``announced`` — whether the node has broadcast its depth yet,
- a CSR adjacency (``indptr`` / ``flat``: sorted distinct neighbours),

and one :meth:`~SoARootingClass.on_round_soa` call advances all ``n``
nodes: the flooding fold is a ``minimum.reduceat`` over receiver
segments, parent adoption is a lexicographic ``(depth, offerer)`` segment
minimum, and the round's outgoing traffic is emitted as a single
:class:`~repro.net.batch.MessageBatch` in canonical order (ascending
sender, sorted-neighbour emission order — exactly the flat buffer the
object tier produces).

Because rooting nodes draw no randomness of their own and the SoA batch
enters :class:`~repro.net.network.SyncNetwork`'s vectorized delivery in
the identical canonical order, :func:`run_soa_rooting` is **bit-for-bit**
equal to :func:`~repro.core.protocol_tree.run_protocol_rooting` (and
hence to the reference BFS): same ``(root, parent, depth)``, same
metrics, same round count under the same seed — enforced over a 20-seed
matrix by ``tests/core/test_soa_engines.py``.  What changes is the
constant: a practical ``n = 10⁶`` rooting run
(``benchmarks/bench_s3_soa_scaling.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.portgraph import PortGraph
from repro.net.batch import BySender, MessageBatch
from repro.net.network import CapacityPolicy, SyncNetwork
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.runtime import RunContext

from repro.core.protocol_tree import (
    BFS_OFFER,
    MIN_ID,
    TreeProtocolResult,
    _resolve_defaults,
)

__all__ = [
    "SoARootingClass",
    "collect_soa_result",
    "csr_neighbors",
    "run_soa_rooting",
]


def csr_neighbors(graph: PortGraph) -> tuple[np.ndarray, np.ndarray]:
    """Distinct-neighbour adjacency of a port graph in CSR form.

    Returns ``(indptr, flat)`` with ``flat[indptr[v]:indptr[v+1]]`` the
    sorted distinct non-self neighbours of ``v`` — the vectorized
    equivalent of ``sorted(set(neighbors))`` that the object rooting
    nodes compute, built without any per-node Python loop (which is what
    keeps ``n = 10⁶`` setup times sane).
    """
    n = graph.n
    ports = graph.ports
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.delta)
    cols = ports.ravel()
    mask = rows != cols
    # One sortable key per (node, neighbour) pair; sorting + adjacent-dedup
    # both removes parallel edges and yields the per-node sorted neighbour
    # order (cheaper than np.unique's hash path at this size).
    keys = np.sort(rows[mask] * n + cols[mask])
    if keys.shape[0]:
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    owners = keys // n
    flat = keys % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return indptr, flat


class SoARootingClass(SoAProtocolClass):
    """Every node of the flooding + BFS protocol, in columnar form.

    Mirrors :class:`~repro.core.protocol_tree._RootingNode` exactly —
    same round schedule (flood through round ``flood_rounds`` with the
    final wave's inbox still folded in, then BFS), same min-offerer
    tie-break (a lexicographic ``(depth, offerer)`` minimum over offer
    packets carrying both on the two payload lanes) — just over all nodes
    at once.
    """

    def __init__(self, indptr: np.ndarray, flat: np.ndarray, flood_rounds: int) -> None:
        n = indptr.shape[0] - 1
        super().__init__(n)
        self.indptr = indptr
        self.flat = flat
        self.flood_rounds = flood_rounds
        self.degrees = np.diff(indptr)
        ids = np.arange(n, dtype=np.int64)
        self._ids = ids
        self.best = ids.copy()
        self.parent = np.full(n, -1, dtype=np.int64)
        self.depth = np.full(n, -1, dtype=np.int64)
        self.announced = np.zeros(n, dtype=bool)
        # The flooding batch's sender/receiver columns never change (node
        # v announces to its distinct neighbours every flood round), and
        # its payload is the per-sender lane ``BySender(best)``: the
        # network reads ``best`` once, at the sorted senders, so a flood
        # round builds no m-length column at all.
        self._flood_senders = np.repeat(ids, self.degrees)
        self._done = False

    # ------------------------------------------------------------------
    def on_round_soa(self, round_no: int, inbox: SoAInbox) -> MessageBatch | None:
        parent = self.parent
        depth = self.depth
        n = self.n
        out: MessageBatch | None = None

        if round_no <= self.flood_rounds:
            # Flooding fold — the round-``flood_rounds`` inbox (the last
            # wave) is still processed, the same boundary rule as the
            # object tier.  The minimum is written straight into
            # ``best``: the staged payloads are a fresh gather of it,
            # never a view.
            heard = inbox.of_kind(MIN_ID)
            if len(heard):
                best = self.best
                nodes, mins = heard.min_by_receiver(heard.payloads)
                if nodes.shape[0] == n:
                    # Every node heard something: ``nodes`` is arange(n).
                    np.minimum(best, mins, out=best)
                else:
                    best[nodes] = np.minimum(best[nodes], mins)
            if round_no < self.flood_rounds:
                senders = self._flood_senders
                return MessageBatch._raw(
                    senders, self.flat, MIN_ID, BySender(self.best)
                )
            roots = self.best == self._ids
            parent[roots] = self._ids[roots]
            depth[roots] = 0

        offers = inbox.of_kind(BFS_OFFER)
        if len(offers):
            # Lexicographic (depth, offerer) minimum per receiver: one
            # combined key (offerer < n) reduces both lanes at once.
            keys = offers.payloads * n + offers.payloads2
            nodes, best_keys = offers.min_by_receiver(keys)
            adopt = parent[nodes] < 0
            if adopt.any():
                nodes = nodes[adopt]
                best_keys = best_keys[adopt]
                parent[nodes] = best_keys % n
                depth[nodes] = best_keys // n + 1

        announce = np.flatnonzero((parent >= 0) & ~self.announced)
        if announce.shape[0]:
            self.announced[announce] = True
            # Emit each announcer's row of the CSR (canonical order:
            # ascending announcer id, sorted neighbours), dropping the
            # port back to the parent.
            lengths = self.degrees[announce]
            total = int(lengths.sum())
            if total:
                seg_starts = np.zeros(announce.shape[0], dtype=np.int64)
                np.cumsum(lengths[:-1], out=seg_starts[1:])
                within = np.arange(total, dtype=np.int64) - np.repeat(
                    seg_starts, lengths
                )
                senders = np.repeat(announce, lengths)
                receivers = self.flat[np.repeat(self.indptr[announce], lengths) + within]
                keep = receivers != parent[senders]
                senders = senders[keep]
                receivers = receivers[keep]
                if senders.shape[0]:
                    out = MessageBatch._raw(
                        senders,
                        receivers,
                        BFS_OFFER,
                        BySender(depth),
                        BySender(self._ids),
                    )
        self._done = bool(self.announced.all())
        return out

    def is_idle(self) -> bool:
        return self._done


def run_soa_rooting(
    graph: PortGraph,
    flood_rounds: int,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    max_rounds: int | None = None,
    *,
    ctx: RunContext | None = None,
) -> TreeProtocolResult:
    """SoA counterpart of :func:`~repro.core.protocol_tree.run_protocol_rooting`.

    Drop-in: same inputs, same :class:`TreeProtocolResult`, bit-for-bit
    identical ``(root, parent, depth)``, metrics, and round count under
    the same seed — only the execution tier (one call for all nodes over
    shared columns) differs.  A resolved ``ctx``
    (:class:`~repro.runtime.context.RunContext`) configures the network:
    ``ctx.fault_hook`` installs a message adversary and ``ctx.tracer``
    records a per-round trace (:mod:`repro.obs`) without perturbing the
    run.  The SoA tier runs
    exclusively on the vectorized delivery engine; a ``"legacy"``
    context raises.
    """
    rng, capacity, max_rounds = _resolve_defaults(
        graph, flood_rounds, rng, capacity, max_rounds
    )
    cls = SoARootingClass(*csr_neighbors(graph), flood_rounds)
    network = SyncNetwork(cls, capacity, rng, ctx=ctx)
    metrics = network.run(max_rounds=max_rounds)
    return collect_soa_result(cls, metrics)


def collect_soa_result(cls: SoARootingClass, metrics) -> TreeProtocolResult:
    """Columnar result validation (the object tier's ``_collect_result``
    without the per-node loop); shared with the asynchrony path."""
    parent = cls.parent
    depth = cls.depth
    if (parent < 0).any():
        missing = int((parent < 0).sum())
        raise RuntimeError(f"BFS did not span: {missing} nodes unreached")
    roots = np.flatnonzero(parent == np.arange(cls.n, dtype=np.int64))
    if roots.shape[0] != 1:
        raise RuntimeError(f"expected a unique root, got {roots.tolist()}")
    return TreeProtocolResult(
        root=int(roots[0]),
        parent=parent,
        depth=depth,
        metrics=metrics,
        rounds=metrics.rounds,
    )
