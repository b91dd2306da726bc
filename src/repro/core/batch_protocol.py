"""Structure-of-arrays ``CreateExpander`` — the hot path on the NCC0 net.

This is the same protocol as :mod:`repro.core.protocol` (§2.1 executed
message-by-message under real capacity enforcement), but the whole
population is one :class:`repro.net.soa.SoAProtocolClass`: a round's
tokens leave every node as one :class:`repro.net.batch.MessageBatch`
(holder + origin columns) instead of per-token ``Message`` objects, and
the vectorized delivery engine moves the whole round through flat numpy
buffers.

Semantics are identical to the object nodes — same round schedule
(``ℓ`` forwarding rounds, one acceptance round, one reply/rebuild round
per evolution), same randomness shape (one uniform port draw per resident
token, one uniform acceptance subset per over-full node), same NCC0 drop
behaviour.  Under a shared generator the run is bit-for-bit the object
run (:func:`repro.core.protocol.run_expander_on_network` with
``rng_mode="shared"``).  What changes is the constant factor: no Python
object per message and no Python call per node.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ExpanderParams
from repro.core.protocol import ProtocolRunResult, prepare_network_inputs
from repro.graphs.portgraph import PortGraph
from repro.net.batch import KINDS, MessageBatch
from repro.net.network import CapacityPolicy, SyncNetwork
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.net.vectorops import group_argsort
from repro.runtime import RunContext

__all__ = [
    "SoAExpanderClass",
    "run_soa_expander",
]

TOKEN = KINDS.code("token")
ACCEPT = KINDS.code("accept")


class SoAExpanderClass(SoAProtocolClass):
    """Every NCC0 node of ``CreateExpander``, in structure-of-arrays form.

    The hot-path tier of the expander protocol: the whole population's
    ports live in one ``(n, Δ)`` matrix, a round's resident tokens are
    the inbox's flat ``(holder, origin)`` columns, and one call forwards
    / accepts / rebuilds for all nodes.  The randomness discipline is one
    flat ``rng.random(m)`` port draw per forwarding round plus one
    ``rng.choice`` per over-full acceptor in ascending node order —
    exactly the stream object :class:`~repro.core.protocol.ExpanderNode`
    populations consume under ``rng_mode="shared"`` (sequential
    ``Generator.random(k)`` calls concatenate into one stream), so
    :func:`run_soa_expander` is **bit-for-bit** equal to the object run
    with a shared generator: same final port matrix, same accepted-edge
    log, same metrics, same rounds.
    """

    def __init__(
        self,
        n: int,
        neighbors: list[list[int]],
        params: ExpanderParams,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(n)
        self.params = params
        self.rng = rng
        delta = params.delta
        # MakeBenign, population-wide: copy each incident edge Λ times,
        # pad with self-loops to degree Δ (same per-node layout — sorted
        # neighbours, copies adjacent — as the object nodes).
        deg = np.fromiter((len(nb) for nb in neighbors), dtype=np.int64, count=n)
        copied = deg * params.lam
        if (copied > delta // 2).any():
            worst = int(np.argmax(copied))
            raise ValueError(
                f"node {worst}: Λ·deg = {int(copied[worst])} exceeds "
                f"Δ/2 = {delta // 2}"
            )
        ids = np.arange(n, dtype=np.int64)
        self.ports = np.repeat(ids[:, None], delta, axis=1)
        if copied.sum():
            flat = np.concatenate(
                [
                    np.repeat(np.sort(np.asarray(nb, dtype=np.int64)), params.lam)
                    for nb in neighbors
                ]
            )
            rows = np.repeat(ids, copied)
            starts = np.cumsum(copied) - copied
            cols = np.arange(flat.shape[0], dtype=np.int64) - starts[rows]
            self.ports[rows, cols] = flat
        self.evolutions_done = 0
        #: Per-evolution ``(acceptors, origins)`` columns — the columnar
        #: counterpart of the object nodes' ``accepted_log``.
        self.accepted_log: list[tuple[np.ndarray, np.ndarray]] = []
        self._accept_nodes = self._accept_partners = _EMPTY_COL
        self._reply_nodes = self._reply_partners = _EMPTY_COL
        self._span = params.ell + 2
        self._ell = params.ell
        self._delta = delta
        self._accept_cap = params.accept_cap
        self._num_evolutions = params.num_evolutions
        self._own_tokens = np.repeat(ids, params.tokens_per_node)

    # ------------------------------------------------------------------
    def _forward(self, holders: np.ndarray, origins: np.ndarray) -> MessageBatch | None:
        """One uniformly random port draw per resident token, all nodes at
        once (the flat-stream equivalent of the object nodes' row mode)."""
        m = holders.shape[0]
        if m == 0:
            return None
        choices = (self.rng.random(m) * self._delta).astype(np.int64)
        return MessageBatch._raw(holders, self.ports[holders, choices], TOKEN, origins)

    def on_round_soa(self, round_no: int, inbox: SoAInbox) -> MessageBatch | None:
        evolution, step = divmod(round_no, self._span)
        if evolution >= self._num_evolutions:
            return None

        if step == 0:
            # Launch Δ/8 own tokens (a fresh evolution starts).
            return self._forward(self._own_tokens, self._own_tokens)

        if step < self._ell:
            tok = inbox.of_kind(TOKEN)
            return self._forward(tok.receivers, tok.payloads)

        if step == self._ell:
            # Acceptance: every holder answers up to 3Δ/8 of its tokens,
            # chosen uniformly — one ``rng.choice`` per over-full holder,
            # ascending (= the shared-generator node order).
            tok = inbox.of_kind(TOKEN)
            m = len(tok)
            if m == 0:
                return None
            holders = tok.receivers
            origins = tok.payloads
            seg_starts, _ = tok.segments()
            seg_counts = np.diff(np.append(seg_starts, m))
            over = seg_counts > self._accept_cap
            if over.any():
                keep = np.ones(m, dtype=bool)
                for si in np.flatnonzero(over).tolist():
                    s = int(seg_starts[si])
                    cnt = int(seg_counts[si])
                    chosen = self.rng.choice(
                        cnt, size=self._accept_cap, replace=False
                    )
                    seg_keep = np.zeros(cnt, dtype=bool)
                    seg_keep[chosen] = True
                    keep[s : s + cnt] = seg_keep
                holders = holders[keep]
                origins = origins[keep]
            self._accept_nodes = holders.copy()
            self._accept_partners = origins.copy()
            self.accepted_log.append((self._accept_nodes, self._accept_partners))
            return MessageBatch._raw(
                self._accept_nodes, self._accept_partners, ACCEPT, self._accept_nodes
            )

        # step == ell + 1: collect replies, rebuild the port matrix.
        rep = inbox.of_kind(ACCEPT)
        if len(rep):
            self._reply_nodes = rep.receivers
            self._reply_partners = rep.payloads
        # Per node: reply partners first, then accepted-token partners —
        # the object nodes' concatenation order, recovered here by a
        # stable sort over [replies ‖ accepts].
        part_nodes = np.concatenate([self._reply_nodes, self._accept_nodes])
        part_vals = np.concatenate([self._reply_partners, self._accept_partners])
        order = group_argsort(part_nodes, self.n)
        sn = part_nodes[order]
        counts = np.bincount(sn, minlength=self.n)
        if counts.max(initial=0) > self._delta:
            worst = int(np.argmax(counts))
            raise AssertionError(
                f"node {worst} assembled {int(counts[worst])} ports > Δ"
            )
        ids = np.arange(self.n, dtype=np.int64)
        self.ports = np.repeat(ids[:, None], self._delta, axis=1)
        if sn.shape[0]:
            starts = np.cumsum(counts) - counts
            cols = np.arange(sn.shape[0], dtype=np.int64) - starts[sn]
            self.ports[sn, cols] = part_vals[order]
        self._accept_nodes = self._accept_partners = _EMPTY_COL
        self._reply_nodes = self._reply_partners = _EMPTY_COL
        self.evolutions_done = evolution + 1
        return None

    def is_idle(self) -> bool:
        return self.evolutions_done >= self._num_evolutions


_EMPTY_COL = np.empty(0, dtype=np.int64)


def run_soa_expander(
    graph,
    params: ExpanderParams | None = None,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    *,
    ctx: RunContext | None = None,
) -> ProtocolRunResult:
    """Execute ``CreateExpander`` as one SoA protocol class on ``graph``.

    Drop-in counterpart of
    :func:`repro.core.protocol.run_protocol_expander`: same inputs, same
    :class:`ProtocolRunResult`, same schedule and capacity policy.  The
    randomness discipline is the shared-generator one (``rng.spawn(2)``
    into a protocol stream and a network stream), so the run is
    bit-for-bit identical to
    ``run_expander_on_network(ExpanderNode, ..., rng_mode="shared")``
    under the same seed — pinned by ``tests/core/test_soa_engines.py``.
    Against the default per-node-spawned object run the comparison is
    structural (schedule, metrics shape, benign invariants).  A resolved
    ``ctx`` (:class:`~repro.runtime.context.RunContext`) is threaded into
    the network (tracer, fault hook); SoA classes run on the
    vectorized delivery engine only, so a ``"legacy"`` context raises.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, neighbors, params, capacity = prepare_network_inputs(graph, params, capacity)
    proto_rng, net_rng = rng.spawn(2)
    cls = SoAExpanderClass(n, neighbors, params, proto_rng)
    network = SyncNetwork(cls, capacity, net_rng, ctx=ctx)
    total_rounds = params.num_evolutions * (params.ell + 2)
    metrics = network.run(max_rounds=total_rounds + 1)
    return ProtocolRunResult(
        final_graph=PortGraph(ports=cls.ports.copy()),
        metrics=metrics,
        params=params,
        rounds=metrics.rounds,
    )
