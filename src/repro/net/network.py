"""Synchronous capacity-limited network simulator (NCC0 semantics).

§1.1 of the paper: *"if more messages than allowed are sent to a node, the
node receives an arbitrary subset (and the rest is simply dropped by the
network)"*.  The simulator enforces both directions of the
``O(log n)``-messages-per-round bound:

- a node attempting to **send** more than ``capacity.max_send`` messages
  has a uniformly random subset of that size delivered to the network (the
  rest never leave the node);
- a node addressed by more than ``capacity.max_receive`` messages
  **receives** a uniformly random subset of that size.

Every round records metrics (max sent/received per node, drop counts,
totals) so experiments can report the communication quantities Theorem 1.1
bounds: ``O(log n)`` messages per node per round and ``O(log² n)`` total
per node.

Two delivery engines
--------------------
``RunContext.engine`` (``SyncNetwork(..., ctx=...)``) selects how a
round's traffic moves:

- ``"vectorized"`` (default) packs the round into flat sender/receiver
  index buffers, truncates over-capacity groups with one permutation draw
  (:func:`repro.net.vectorops.segmented_keep_indices`), and accumulates
  per-node counters with ``np.bincount``;
- ``"legacy"`` walks per-message Python loops — slower, but written
  plainly enough to serve as the differential-testing oracle.

Both engines follow one **canonical RNG discipline** (documented in
``docs/engine.md``): traffic is enumerated in node-insertion order, a
truncation permutation is drawn only when some group actually exceeds its
cap, and self-addressed messages bypass the network entirely.  Under the
same seed the two engines therefore deliver *identical* inboxes and
metrics, which ``tests/net/test_engine_equivalence.py`` enforces.

Populations come in two representations: a dict of :class:`ProtocolNode`
objects exchanging per-message objects (the plainly written oracle, on
either engine), or one :class:`~repro.net.soa.SoAProtocolClass` holding
every node's state in columns and emitting one
:class:`~repro.net.batch.MessageBatch` per round (the hot path, on the
vectorized engine).  Both feed the same flat delivery tail, so SoA
populations never materialise Python message objects — which is what
makes large-``n`` runs practical.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro import sanitize as _sanitize
from repro.net.batch import BySender, MessageBatch
from repro.net.message import Message
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.net.vectorops import group_argsort, segmented_keep_indices

#: Valid values of ``RunContext.engine`` for a network — authoritative
#: in :mod:`repro.runtime.context`, re-exported here for compatibility.
from repro.runtime import ENGINES, RunContext, context_or_default

__all__ = [
    "CapacityPolicy",
    "NetworkMetrics",
    "NodeCounts",
    "RoundMetricsView",
    "ProtocolNode",
    "SoAProtocolClass",
    "SoAInbox",
    "SyncNetwork",
    "ENGINES",
]


def _fault_keep_indices(keep, m_total: int) -> np.ndarray:
    """Normalise a fault hook's return value to ascending keep-indices.

    One contract for both delivery engines: a hook may return either a
    **boolean keep-mask** over the round's remote messages (length must
    equal the message count) or ascending integer **keep-indices** (the
    shape :func:`repro.net.vectorops.segmented_keep_indices` produces, so
    truncation-style hooks compose without a mask detour).  Anything else
    — wrong mask length, out-of-range or non-ascending indices, a float
    array — raises instead of silently corrupting the round: an integer
    array fed to ``np.flatnonzero`` (the old mask-only decode) would have
    been misread as a mask, dropping different messages *and* miscounting
    ``metrics.fault_drops``.
    """
    keep = np.asarray(keep)
    if keep.ndim != 1:
        raise ValueError(
            f"fault hook must return a 1-d keep-mask or keep-indices, "
            f"got shape {keep.shape}"
        )
    if keep.dtype == np.bool_:
        if keep.shape[0] != m_total:
            raise ValueError(
                f"fault hook keep-mask has length {keep.shape[0]}, "
                f"expected the round's {m_total} remote messages"
            )
        return np.flatnonzero(keep)
    if not np.issubdtype(keep.dtype, np.integer):
        raise TypeError(
            "fault hook must return a boolean keep-mask or integer "
            f"keep-indices, got dtype {keep.dtype}"
        )
    if keep.shape[0]:
        if int(keep[0]) < 0 or int(keep[-1]) >= m_total:
            raise ValueError(
                f"fault hook keep-indices out of range for {m_total} messages"
            )
        if keep.shape[0] > 1 and bool((keep[1:] <= keep[:-1]).any()):
            raise ValueError(
                "fault hook keep-indices must be strictly ascending "
                "(canonical message order)"
            )
    return keep


def _segments(recv_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, nodes)`` of the receiver segments of a sorted round."""
    seg_nodes = np.flatnonzero(recv_counts)
    seg_starts = np.zeros(seg_nodes.shape[0], dtype=np.int64)
    np.cumsum(recv_counts[seg_nodes][:-1], out=seg_starts[1:])
    return seg_starts, seg_nodes


class _Lanes:
    """A round's packed message lanes besides senders and receivers.

    ``kinds`` is a kind column (or ``None``, with the single
    ``round_kind`` code), ``pay``/``pay2`` the payload lanes and ``objs``
    the message objects of an object round.  They are read once, at the
    staged rows.
    """

    __slots__ = ("kinds", "round_kind", "pay", "pay2", "objs")

    def __init__(self, kinds, round_kind, pay, pay2, objs) -> None:
        self.kinds, self.round_kind = kinds, round_kind
        self.pay, self.pay2, self.objs = pay, pay2, objs

    def at(self, sel: np.ndarray, snd_s: np.ndarray) -> tuple:
        """``(kinds, payloads, payloads2, objs)`` at rows ``sel``.

        A :class:`BySender` lane is read at the sorted senders ``snd_s``
        instead, into a fresh array: the protocol's next write to its
        node column cannot reach the staged inbox.  Both gathers are
        ``np.take``, which for a 1-d int64 lane is faster than fancy
        indexing and returns the same fresh array.
        """

        def rows(lane):
            if lane is None:
                return None
            if type(lane) is BySender:
                return np.take(lane.column, snd_s)
            return np.take(lane, sel)

        objs = self.objs
        if objs is not None:
            objs = [objs[i] for i in sel.tolist()]
        return rows(self.kinds), rows(self.pay), rows(self.pay2), objs


class _Round:
    """A round's traffic in flight, as parallel columns.

    ``rcv``/``snd`` are the receiver and sender-index columns, ``rows``
    their positions in the packed lanes (``None``: all rows, in order).
    Rows can leave the round before they are cut out of the columns:
    :meth:`hold` marks the rows still in flight by ascending indices
    ``kept`` (the fault hook's survivors) or a boolean ``mask`` (the
    hook's, or the remote rows of a round whose self-addressed rows are
    still in the columns), and ``size`` counts them.  A round delivered
    from the cached layout, or one whose caps do not bind, never needs
    them as columns of their own.  ``counts`` maps ``"snd"``/``"rcv"``
    to the in-flight rows' ``(bincount, max)``.
    """

    __slots__ = ("rcv", "snd", "rows", "kept", "mask", "size", "counts")

    def __init__(self, rcv, snd, rows=None) -> None:
        self.rcv, self.snd, self.rows = rcv, snd, rows
        self.kept = self.mask = None
        self.size = rcv.shape[0]
        self.counts = {}

    def __len__(self) -> int:
        return self.size

    def hold(self, kept=None, mask=None) -> None:
        """Keep only rows ``kept`` (or ``mask``'s) in flight, uncut."""
        self.kept, self.mask = kept, mask
        self.size = int(np.count_nonzero(mask)) if kept is None else kept.shape[0]

    def take(self, sel: np.ndarray) -> "_Round":
        """Rows ``sel`` (ascending) of the columns, as a round of their own."""
        rows = sel if self.rows is None else self.rows[sel]
        return _Round(self.rcv[sel], self.snd[sel], rows)

    def cut(self) -> "_Round":
        """The round with the held-out rows cut out of the columns."""
        if self.size == self.rcv.shape[0]:
            return self
        return self.take(np.flatnonzero(self.mask) if self.kept is None else self.kept)

    def keep_mask(self) -> np.ndarray:
        """The fault hook's survivors as a boolean mask over the columns."""
        if self.mask is None:
            self.mask = np.zeros(self.rcv.shape[0], dtype=bool)
            self.mask[self.kept] = True
        return self.mask


class _Local:
    """A round's self-addressed rows, left in the entry columns.

    ``remote`` marks the other rows of the entry columns, ``snd`` is the
    entry sender column (a local row's receiver index is its sender),
    ``size`` counts the local rows and ``counts`` is their per-node
    bincount.  ``key`` is the grouping key ``(receiver << 1) | remote``
    over every entry row, when the split computed it.
    """

    __slots__ = ("remote", "snd", "size", "counts", "key")

    def __init__(self, remote, snd, size) -> None:
        self.remote, self.snd, self.size = remote, snd, size
        self.counts = self.key = None


class _RoundLayout:
    """Cross-round cache of the delivery tail's receiver-sorted layout.

    Steady-state protocols (flooding over a fixed adjacency — the SoA
    rooting workload) re-emit the *same* sender/receiver column objects
    round after round.  An entry holds the layout of such a pair of
    *entry* columns — the arrays the protocol emitted, before the fault
    hook: the stable receiver sort permutation, the send/receive
    bincounts and maxima and, once a round delivered every message, the
    sorted receivers, sorted senders and segment offsets.

    The cache is only a source of counts and order for the delivery
    phases (see ``_deliver_flat``).  Fault-hook drops are a keep mask
    over the cached permutation: a stable sort of a subsequence is that
    subsequence of the stable sort, so the delivered columns are the
    ones a fresh sort of the survivors would give.  Rounds with
    self-addressed traffic, a binding capacity, an out-of-range receiver
    or object-tier traffic neither store nor read an entry, and with
    ``layout_reuse=False`` no round does.

    An entry is keyed by the column *object* but trusted only after a
    value comparison against a defensive copy taken at store time (the
    alias-write guard, ``_verify_entry``).
    """

    __slots__ = (
        "rcv",
        "rcv_copy",
        "order",
        "rcv_s",
        "recv_counts",
        "recv_max",
        "seg",
        "snd",
        "snd_copy",
        "snd_s",
        "sent_counts",
        "sent_max",
    )

    def __init__(self) -> None:
        self.rcv = self.snd = None

    def store(self, rcv, snd, order, recv, sent) -> None:
        """Key a new entry on the entry columns, freezing both: a direct
        in-place write to a re-emitted column errors at once, and writes
        through other views of the same base are caught by the value
        comparison at the next round."""
        rcv.flags.writeable = False
        snd.flags.writeable = False
        self.rcv, self.rcv_copy, self.order = rcv, rcv.copy(), order
        self.snd, self.snd_copy = snd, snd.copy()
        self.recv_counts, self.recv_max = recv
        self.sent_counts, self.sent_max = sent
        self.rcv_s = self.snd_s = self.seg = None


@dataclass(frozen=True)
class CapacityPolicy:
    """Per-node per-round message budgets.  ``None`` disables a bound
    (used by the unbounded-communication baselines)."""

    max_send: int | None
    max_receive: int | None

    @classmethod
    def ncc0(cls, n: int, delta: int) -> "CapacityPolicy":
        """The NCC0 budget used throughout the reproduction.

        The paper allows ``O(log n)`` messages per round; the concrete
        constant is tied to the algorithm's degree parameter
        ``Δ = Θ(log n)`` — a node may need to answer up to ``3Δ/8``
        tokens plus forward ``Δ/8`` of its own in one round, so the
        capacity is set to ``Δ`` (send and receive).
        """
        del n  # the budget is expressed through delta = Theta(log n)
        return cls(max_send=delta, max_receive=delta)

    @classmethod
    def unbounded(cls) -> "CapacityPolicy":
        return cls(max_send=None, max_receive=None)


class NodeCounts:
    """Per-node message counters with lazy columnar accumulation.

    Behaves like the ``defaultdict(int)`` it replaces (missing keys read
    as 0 without inserting), but can additionally absorb whole per-node
    count *columns* in O(1) Python work (:meth:`add_column`) — the
    vectorized engines hand over their int64 accumulators instead of
    looping ``n`` dict writes.  The column is folded into the dict view
    only when some consumer actually reads per-node values, so runs that
    only look at scalar aggregates (every scaling bench) never pay the
    flush at all.
    """

    __slots__ = ("_dict", "_ids", "_counts")

    def __init__(self) -> None:
        self._dict: dict[int, int] = {}
        self._ids: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    # -- columnar side -------------------------------------------------
    def add_column(self, ids: np.ndarray, counts: np.ndarray) -> None:
        """Accumulate a per-node count column (``counts`` aligned to
        ``ids``).  Repeated calls with the *same* ``ids`` object — the
        steady state of one network handing over its accumulators — are a
        single vectorized add."""
        if self._counts is None:
            self._ids = ids
            self._counts = counts.copy()
        elif self._ids is ids:
            self._counts += counts
        else:  # pragma: no cover - networks never swap id arrays mid-run
            self._flush()
            self._ids = ids
            self._counts = counts.copy()

    def _flush(self) -> None:
        if self._counts is None:
            return
        ids, counts = self._ids, self._counts
        self._ids = self._counts = None
        d = self._dict
        nz = np.flatnonzero(counts)
        for k, v in zip(ids[nz].tolist(), counts[nz].tolist()):
            d[k] = d.get(k, 0) + v

    # -- mapping side (defaultdict(int)-compatible) --------------------
    def __getitem__(self, key: int) -> int:
        self._flush()
        return self._dict.get(key, 0)

    def __setitem__(self, key: int, value: int) -> None:
        self._flush()
        self._dict[key] = value

    def get(self, key: int, default: int = 0) -> int:
        self._flush()
        return self._dict.get(key, default)

    def __contains__(self, key) -> bool:
        self._flush()
        return key in self._dict

    def __iter__(self):
        self._flush()
        return iter(self._dict)

    def __len__(self) -> int:
        self._flush()
        return len(self._dict)

    def keys(self):
        self._flush()
        return self._dict.keys()

    def values(self):
        self._flush()
        return self._dict.values()

    def items(self):
        self._flush()
        return self._dict.items()

    def __eq__(self, other) -> bool:
        self._flush()
        if isinstance(other, NodeCounts):
            other._flush()
            return self._dict == other._dict
        return self._dict == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._flush()
        return f"NodeCounts({self._dict!r})"


class RoundMetricsView:
    """Lazy per-round view over a traced run's ``net`` round table.

    :class:`NetworkMetrics` totals are cumulative — "how many fault
    drops happened *in round 7*" used to be unanswerable without hand
    instrumentation.  On a traced run the network records per-round
    deltas into a columnar :class:`repro.obs.RoundTrace`, and this view
    (the :class:`NodeCounts` idiom: a thin wrapper, columns cut lazily)
    exposes them via ``metrics.per_round``.  Untraced runs materialise
    nothing: ``metrics.per_round`` stays ``None``.

    Every accessor returns a numpy int64/float64 view of length
    ``len(view)`` = rounds recorded so far; index ``i`` is the delta for
    round ``rounds()[i]``.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def column(self, name: str) -> np.ndarray:
        return self._trace.column(name)

    def rounds(self) -> np.ndarray:
        return self.column("round")

    def inbox_sizes(self) -> np.ndarray:
        """Messages consumed from the staged inbox at each round start."""
        return self.column("inbox")

    def messages_sent(self) -> np.ndarray:
        return self.column("sent")

    def delivered(self) -> np.ndarray:
        """Messages staged for next-round delivery (local ones included)."""
        return self.column("delivered")

    def fault_drops(self) -> np.ndarray:
        return self.column("fault_drops")

    def send_drops(self) -> np.ndarray:
        return self.column("send_drops")

    def receive_drops(self) -> np.ndarray:
        return self.column("receive_drops")

    def layout_hits(self) -> np.ndarray:
        """1 where the round reused the cached receiver-sorted layout."""
        return self.column("layout_hit")

    def seconds(self) -> np.ndarray:
        return self.column("seconds")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundMetricsView(rounds={len(self)})"


@dataclass
class NetworkMetrics:
    """Aggregated communication statistics over a simulation.

    ``stopped_by_predicate`` / ``in_flight_at_stop`` record the early-stop
    bookkeeping of :meth:`SyncNetwork.run`: whether a ``stop_when``
    predicate ended the run, and how many messages were still in flight at
    that moment (0 when the predicate happened to fire on the round the
    network went quiescent anyway).

    ``fault_drops`` counts messages removed by an installed adversarial
    fault hook (see :class:`SyncNetwork`); it is deliberately *not* part
    of ``total_drops``, which keeps its §1.1 capacity-only meaning.
    """

    rounds: int = 0
    total_messages: int = 0
    send_drops: int = 0
    receive_drops: int = 0
    fault_drops: int = 0
    max_sent_per_round: int = 0
    max_received_per_round: int = 0
    stopped_by_predicate: bool = False
    in_flight_at_stop: int = 0
    sent_per_node: NodeCounts = field(default_factory=NodeCounts)
    received_per_node: NodeCounts = field(default_factory=NodeCounts)
    # Per-round deltas, populated only on traced runs (None otherwise —
    # no materialisation on the untraced path).  Excluded from equality
    # and from ``as_dict()``: the cross-tier equality surface is the
    # simulated totals, never the telemetry.
    per_round: "RoundMetricsView | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_drops(self) -> int:
        return self.send_drops + self.receive_drops

    def max_total_sent_by_any_node(self) -> int:
        """Largest whole-run send count of a single node — the quantity
        Theorem 1.1 bounds by ``O(log² n)``."""
        return max(self.sent_per_node.values(), default=0)

    def max_total_received_by_any_node(self) -> int:
        return max(self.received_per_node.values(), default=0)

    def as_dict(self) -> dict:
        """Snapshot of every aggregate (per-node dicts nonzero-filtered);
        the equality the engine-equivalence tests assert."""
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "send_drops": self.send_drops,
            "receive_drops": self.receive_drops,
            "fault_drops": self.fault_drops,
            "max_sent_per_round": self.max_sent_per_round,
            "max_received_per_round": self.max_received_per_round,
            "stopped_by_predicate": self.stopped_by_predicate,
            "in_flight_at_stop": self.in_flight_at_stop,
            "sent_per_node": {k: v for k, v in self.sent_per_node.items() if v},
            "received_per_node": {k: v for k, v in self.received_per_node.items() if v},
        }


class ProtocolNode:
    """Base class for nodes driven by :class:`SyncNetwork`.

    Subclasses implement :meth:`on_round`: consume the inbox delivered at
    the beginning of the round and return the messages to send.  A message
    sent in round ``i`` is received at the beginning of round ``i + 1``
    (§1.1).  Messages a node addresses to itself are handed back locally
    next round without touching the network (a self-loop forward is not
    communication).
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_round(self, round_no: int, inbox: list[Message]) -> Iterable[Message]:
        """Process this round's inbox; return outgoing messages."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when the node has no pending work; the simulator stops
        once every node is idle and no messages are in flight."""
        return True


class SyncNetwork:
    """Round-driven simulator with capacity enforcement and metrics.

    ``ctx`` (:class:`~repro.runtime.context.RunContext`, or the bare-call
    default of :func:`~repro.runtime.context.context_or_default`) selects
    the delivery engine, tracer and fault hook.

    ``ctx.fault_hook`` installs an oblivious message adversary in the
    delivery tail: a callable ``hook(round_no, senders, receivers) ->
    keep`` over the round's *remote* traffic in canonical order (real node ids,
    parallel columns), returning ``None`` for "no faults this round", a
    boolean keep-mask, or ascending integer keep-indices (both forms are
    validated and decoded identically by both engines — see
    ``_fault_keep_indices``).  The hook runs after the local split
    (self-addressed messages bypass the network and are immune) and
    before send-capacity truncation, and must not consume the delivery
    RNG — which is what keeps a faulted execution identical across
    engines and node tiers under a shared seed (see
    :mod:`repro.scenarios.spec`).
    """

    def __init__(
        self,
        nodes: dict[int, ProtocolNode] | SoAProtocolClass,
        capacity: CapacityPolicy,
        rng: np.random.Generator,
        *,
        ctx: RunContext | None = None,
    ) -> None:
        # One execution config (contract C8): the delivery engine,
        # tracer, fault hook and layout cache all come from ``ctx`` (the
        # bare-call default when omitted).
        ctx = context_or_default(ctx)
        engine = ctx.engine
        if engine == "soa":
            # "soa" names a node representation (tier), not a delivery
            # engine; SoA populations always ride the vectorized tail.
            engine = "vectorized"
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.ctx = ctx
        self.capacity = capacity
        self.rng = rng
        self.engine = engine
        self.fault_hook = ctx.fault_hook
        self.round_no = 0
        self._metrics = NetworkMetrics()
        if isinstance(nodes, SoAProtocolClass):
            # SoA tier: one object holds every node's state; delivery runs
            # through the same vectorized flat tail as object traffic.
            if engine != "vectorized":
                raise ValueError(
                    "SoA protocol classes require the vectorized engine"
                )
            self._soa = nodes
            self._soa_inbox = SoAInbox.empty()
            self.nodes = {}
            n = nodes.n
            self._n = n
            self._ids = np.arange(n, dtype=np.int64)
            self._index = {}
            self._contiguous = True
            # Per-node bookkeeping stays empty on the SoA path — run_round
            # short-circuits into _deliver_soa and never consults it.
            self._pending: dict[int, list[Message]] = {}
        else:
            self._soa = None
            self.nodes = nodes
            n = len(nodes)
            self._n = n
            self._ids = (
                np.fromiter(nodes.keys(), dtype=np.int64, count=n)
                if n
                else np.empty(0, dtype=np.int64)
            )
            self._index = {nid: i for i, nid in enumerate(nodes)}
            self._contiguous = bool(n) and bool((self._ids == np.arange(n)).all())
            if not self._contiguous:
                self._sort_order = np.argsort(self._ids, kind="stable")
                self._sorted_ids = self._ids[self._sort_order]
            self._pending = {nid: [] for nid in nodes}
        # Vectorized engines accumulate per-node totals in arrays and flush
        # them into the metrics dicts lazily (see the ``metrics`` property).
        self._sent_counts = np.zeros(n, dtype=np.int64)
        self._recv_counts = np.zeros(n, dtype=np.int64)
        self._counts_dirty = False
        self._pending_count = 0
        self._layout = _RoundLayout()
        # REPRO_SOA_LAYOUT_REUSE=0 turns the layout cache off: every
        # round counts and sorts afresh — the per-round re-sort control
        # arm of bench_s3's re-sort-elimination measurement.
        self._reuse_layouts = ctx.layout_reuse
        # ---- round-trace telemetry (C7: observes, never steers) -------
        # Resolution order: context > ambient capture()/activate()
        # tracer > REPRO_TRACE env singleton.  A context resolved
        # *outside* a capture() scope carries ``tracer=None``, so the
        # ambient session is still consulted at construction time.  Untraced runs
        # keep every probe at a single ``is None`` check and materialise
        # nothing.
        tr = ctx.tracer
        if tr is None:
            from repro.obs import resolve_tracer

            tr = resolve_tracer(None)
        self._tracer = tr
        self._round_trace = None
        self._layout_hit = False
        if tr is not None:
            tier = "soa" if self._soa is not None else "object"
            self._trace_clock = tr.clock
            self._round_trace = tr.table(
                "net",
                (
                    "round",
                    "inbox",
                    "sent",
                    "delivered",
                    "fault_drops",
                    "send_drops",
                    "receive_drops",
                    "layout_hit",
                ),
                meta={"tier": tier, "engine": engine, "n": n},
            )
            self._metrics.per_round = RoundMetricsView(self._round_trace)

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> NetworkMetrics:
        """The run's metrics; hands the vectorized per-node counters to
        the lazy ``sent_per_node`` / ``received_per_node`` column views
        (no per-node Python work — the dicts materialise only if read)."""
        if self._counts_dirty:
            self._metrics.sent_per_node.add_column(self._ids, self._sent_counts)
            self._metrics.received_per_node.add_column(self._ids, self._recv_counts)
            self._sent_counts[:] = 0
            self._recv_counts[:] = 0
            self._counts_dirty = False
        return self._metrics

    def pending_messages(self) -> int:
        """Messages in flight (delivered next round), local ones included."""
        return self._pending_count

    # ------------------------------------------------------------------
    # SoA inbox staging (synchroniser interposition point).
    # ------------------------------------------------------------------
    def take_staged_soa_inbox(self) -> SoAInbox:
        """Remove and return the staged next-round :class:`SoAInbox`.

        The interposition point for delay synchronisers
        (:mod:`repro.scenarios.soa_sync`): the columns a round's delivery
        staged can be pulled out, held in a delay queue, and re-staged via
        :meth:`stage_soa_inbox` before the next :meth:`run_round`.  SoA
        networks only.
        """
        if self._soa is None:
            raise ValueError("inbox staging is only available on SoA networks")
        inbox = self._soa_inbox
        self._soa_inbox = SoAInbox.empty()
        self._pending_count = 0
        return inbox

    def stage_soa_inbox(self, inbox: SoAInbox) -> None:
        """Install ``inbox`` as the next round's delivery (SoA networks)."""
        if self._soa is None:
            raise ValueError("inbox staging is only available on SoA networks")
        self._soa_inbox = inbox
        self._pending_count = len(inbox)

    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """Execute one synchronous round for every node.

        Nodes producing nothing are skipped by delivery entirely; a node's
        outgoing traffic is validated (no forged senders) before any of it
        enters the network.

        On a traced run (see :mod:`repro.obs`) the round is additionally
        recorded into the ``net`` round table as metric *deltas* around
        the unchanged inner round — tracing reads counters after the
        fact and never touches RNG streams or delivery order, so a
        traced execution is bit-for-bit the untraced one.
        """
        rt = self._round_trace
        if rt is None:
            self._run_round_inner()
            return
        clock = self._trace_clock
        start = clock()
        m = self._metrics
        inbox0 = self._pending_count
        msgs0 = m.total_messages
        fault0 = m.fault_drops
        send0 = m.send_drops
        recv0 = m.receive_drops
        self._layout_hit = False
        self._run_round_inner()
        rt.append(
            self.round_no - 1,
            inbox0,
            m.total_messages - msgs0,
            self._pending_count,
            m.fault_drops - fault0,
            m.send_drops - send0,
            m.receive_drops - recv0,
            1 if self._layout_hit else 0,
            clock() - start,
        )

    def _run_round_inner(self) -> None:
        if self._soa is not None:
            inbox = self._soa_inbox
            self._soa_inbox = SoAInbox.empty()
            produced = self._soa.on_round_soa(self.round_no, inbox)
            self._deliver_soa(produced)
            self.round_no += 1
            self._metrics.rounds = self.round_no
            return

        outputs: list[tuple[int, list[Message]]] = []
        pending = self._pending
        round_no = self.round_no
        for nid, node in self.nodes.items():
            inbox = pending[nid]
            pending[nid] = []
            produced = list(node.on_round(round_no, inbox) or [])
            if produced:
                for msg in produced:
                    if msg.sender != nid:
                        raise ValueError(
                            f"node {nid} attempted to forge a message from {msg.sender}"
                        )
                outputs.append((nid, produced))

        if self.engine == "legacy":
            self._deliver_legacy(outputs)
        else:
            self._deliver_vectorized(outputs)
        self.round_no += 1
        self._metrics.rounds = self.round_no

    # ------------------------------------------------------------------
    def _run_fault_hook(self, snd_ids: np.ndarray, rcv_ids: np.ndarray):
        """Invoke the adversary hook; under ``REPRO_SANITIZE=1`` verify it
        behaved obliviously.

        The hook contract (every tier, one seed, one fault stream) only
        holds if the hook neither draws from the delivery RNG — that
        would shift every subsequent truncation lottery — nor mutates the
        sender/receiver columns it is shown, which on the vectorized path
        are the live round columns (on an SoA round that re-emits cached
        columns, the frozen cached arrays themselves).
        """
        if not _sanitize.ENABLED:
            return self.fault_hook(self.round_no, snd_ids, rcv_ids)
        state_before = _sanitize.rng_state(self.rng)
        snd_before = snd_ids.copy()
        rcv_before = rcv_ids.copy()
        keep = self.fault_hook(self.round_no, snd_ids, rcv_ids)
        if _sanitize.rng_state(self.rng) != state_before:
            raise _sanitize.SanitizeError(
                "sanitize: fault hook consumed the delivery RNG in round "
                f"{self.round_no}; hooks must pre-spawn their own stream "
                "(rng.spawn) or compile their schedule up front"
            )
        if not (
            np.array_equal(snd_ids, snd_before)
            and np.array_equal(rcv_ids, rcv_before)
        ):
            raise _sanitize.SanitizeError(
                "sanitize: fault hook mutated the sender/receiver columns "
                f"in round {self.round_no}; hooks observe traffic and "
                "return keep indices or a mask, they never edit lanes"
            )
        return keep

    # ------------------------------------------------------------------
    # Legacy engine: per-message loops, the differential-testing oracle.
    # ------------------------------------------------------------------
    def _deliver_legacy(self, outputs) -> None:
        cap = self.capacity
        metrics = self._metrics
        index = self._index
        ids = self._ids

        # Phase 1 — enumerate remote traffic in canonical order; local
        # (self-addressed) messages bypass the network entirely.
        flat: list[Message] = []
        flat_senders: list[int] = []
        local: dict[int, list[Message]] = {}
        for nid, produced in outputs:
            for msg in produced:
                if msg.receiver == nid:
                    local.setdefault(nid, []).append(msg)
                else:
                    flat.append(msg)
                    flat_senders.append(index[nid])

        # Phase 1.5 — adversarial faults (same hook point as the
        # vectorized tail: remote traffic in canonical order, before any
        # capacity truncation, no delivery-RNG consumption).
        if self.fault_hook is not None and flat:
            snd_ids = ids[np.asarray(flat_senders, dtype=np.int64)]
            rcv_ids = np.fromiter(
                (m.receiver for m in flat), dtype=np.int64, count=len(flat)
            )
            keep = self._run_fault_hook(snd_ids, rcv_ids)
            if keep is not None:
                kept = _fault_keep_indices(keep, len(flat))
                if kept.size != len(flat):
                    metrics.fault_drops += len(flat) - kept.size
                    flat = [flat[i] for i in kept.tolist()]
                    flat_senders = [flat_senders[i] for i in kept.tolist()]

        # Phase 2 — send-capacity truncation (shared RNG discipline: one
        # permutation, drawn only when some sender is over budget).
        if cap.max_send is not None and flat:
            counts: defaultdict[int, int] = defaultdict(int)
            for idx in flat_senders:
                counts[idx] += 1
            if max(counts.values()) > cap.max_send:
                keep = segmented_keep_indices(
                    np.asarray(flat_senders, dtype=np.int64), cap.max_send, self.rng
                )
                metrics.send_drops += len(flat) - keep.size
                flat = [flat[i] for i in keep.tolist()]
                flat_senders = [flat_senders[i] for i in keep.tolist()]

        # Phase 3 — sent metrics, per message (oracle style).
        max_sent_counts: defaultdict[int, int] = defaultdict(int)
        for idx in flat_senders:
            max_sent_counts[idx] += 1
        for idx, count in max_sent_counts.items():
            metrics.sent_per_node[int(ids[idx])] += count
        metrics.total_messages += len(flat)
        metrics.max_sent_per_round = max(
            metrics.max_sent_per_round, max(max_sent_counts.values(), default=0)
        )

        # Phase 4 — receiver validation + grouping (canonical order kept).
        flat_receivers: list[int] = []
        for msg in flat:
            j = index.get(msg.receiver)
            if j is None:
                raise KeyError(f"message addressed to unknown node {msg.receiver}")
            flat_receivers.append(j)

        # Phase 5 — receive-capacity truncation, same shared discipline.
        if cap.max_receive is not None and flat:
            counts = defaultdict(int)
            for idx in flat_receivers:
                counts[idx] += 1
            if max(counts.values()) > cap.max_receive:
                keep = segmented_keep_indices(
                    np.asarray(flat_receivers, dtype=np.int64), cap.max_receive, self.rng
                )
                metrics.receive_drops += len(flat) - keep.size
                flat = [flat[i] for i in keep.tolist()]
                flat_receivers = [flat_receivers[i] for i in keep.tolist()]

        # Phase 6 — receive metrics + inbox assembly (local first, then
        # survivors in canonical arrival order).
        groups: dict[int, list[Message]] = {}
        for msg, idx in zip(flat, flat_receivers):
            groups.setdefault(idx, []).append(msg)
        max_received = 0
        for idx, msgs in groups.items():
            metrics.received_per_node[int(ids[idx])] += len(msgs)
            max_received = max(max_received, len(msgs))
        metrics.max_received_per_round = max(metrics.max_received_per_round, max_received)

        pending = self._pending
        for nid, msgs in local.items():
            pending[nid].extend(msgs)
        for idx, msgs in groups.items():
            pending[int(ids[idx])].extend(msgs)
        self._pending_count = len(flat) + sum(len(msgs) for msgs in local.values())

    # ------------------------------------------------------------------
    # Vectorized engine: flat index buffers + segment truncation.
    # ------------------------------------------------------------------
    def _deliver_vectorized(self, outputs) -> None:
        """Array-path delivery of object traffic (pack phase).

        The round's receivers are packed into one flat column in canonical
        order, next to the sender indices and the message objects
        themselves, and handed to :meth:`_deliver_flat` — the shared tail
        that also serves the SoA tier, so both representations consume the
        delivery RNG identically.
        """
        if not outputs:
            self._pending_count = 0
            return
        index = self._index
        objs: list[Message] = []
        senders: list[int] = []
        lengths: list[int] = []
        for nid, produced in outputs:
            objs.extend(produced)
            senders.append(index[nid])
            lengths.append(len(produced))
        rcv_all = np.fromiter(
            (m.receiver for m in objs), dtype=np.int64, count=len(objs)
        )
        snd_all = np.repeat(
            np.asarray(senders, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
        )
        self._deliver_flat(rcv_all, snd_all, _Lanes(None, None, None, None, objs))

    # ------------------------------------------------------------------
    # SoA engine entry: one batch carries the whole population's round.
    # ------------------------------------------------------------------
    def _deliver_soa(self, produced: MessageBatch | None) -> None:
        """Validate an SoA class's round batch and feed the shared tail.

        The class's emitted columns *are* the packed round: senders must
        already be in canonical order (ascending node index, per-sender
        emission order), which is what keeps truncation draws, metrics,
        and inbox sequences bit-for-bit equal to the object tier.
        """
        if produced is None or produced.receivers.shape[0] == 0:
            self._pending_count = 0
            return
        rcv_all = produced.receivers
        m = rcv_all.shape[0]
        senders = produced.senders
        if type(senders) is not np.ndarray:
            snd_all = np.full(m, int(senders), dtype=np.int64)
        else:
            snd_all = senders
        if snd_all.shape[0] != m:
            raise ValueError("SoA batch senders column must match receivers")
        if _sanitize.ENABLED or not (
            self._reuse_layouts and snd_all is self._layout.snd
        ):
            # Identity-stable sender columns were validated when cached;
            # the alias-write guard in _deliver_flat re-validates if the
            # values turn out to have changed underneath the identity.
            # Sanitize mode re-checks every round regardless.
            self._require_ascending_senders(snd_all)
        kinds = produced.kinds
        for what, lane in (
            ("kinds", kinds),
            ("payloads", produced.payloads),
            ("payloads2", produced.payloads2),
        ):
            self._require_lane(what, lane, m)
        if type(kinds) is np.ndarray:
            kind_all, round_kind = kinds, None
        else:
            kind_all, round_kind = None, int(kinds)
        lanes = _Lanes(kind_all, round_kind, produced.payloads, produced.payloads2, None)
        self._deliver_flat(rcv_all, snd_all, lanes)

    def _require_ascending_senders(self, snd_all: np.ndarray) -> None:
        if (
            int(snd_all[0]) < 0
            or int(snd_all[-1]) >= self._n
            or (snd_all[1:] < snd_all[:-1]).any()
        ):
            raise ValueError(
                "SoA batch senders must be node indices sorted ascending "
                "(the canonical emission order)"
            )

    def _require_lane(self, what: str, lane, m: int) -> None:
        """A message lane is read at row indices: an array lane must be
        1-d with one row per message.  A per-sender lane is read at node
        indices: its column must be a 1-d int64 array of length ``n``.
        O(1), every round."""
        if type(lane) is BySender:
            col = lane.column
            if not (
                isinstance(col, np.ndarray)
                and col.ndim == 1
                and col.dtype == np.int64
                and col.shape[0] == self._n
            ):
                raise ValueError(
                    f"SoA batch {what} lane: a BySender column must be a 1-d "
                    f"int64 array of length n={self._n}, got {type(col).__name__} "
                    f"shape={np.shape(col)} dtype={getattr(col, 'dtype', None)}"
                )
        elif isinstance(lane, np.ndarray) and lane.shape != (m,):
            raise ValueError(
                f"SoA batch {what} lane has shape {lane.shape}, expected "
                f"({m},): one row per message"
            )

    # ------------------------------------------------------------------
    # Shared delivery tail: the phases of _deliver_legacy over columns.
    # ------------------------------------------------------------------
    def _deliver_flat(self, rcv, snd, lanes: _Lanes) -> None:
        """Deliver one round packed as parallel columns.

        The phases are :meth:`_deliver_legacy`'s, each a method over one
        :class:`_Round`: local split, fault hook, send truncation,
        receiver validation, receive truncation, then accounting and
        staging.  The receiver-sorted columns become the next
        :class:`SoAInbox` whole — or, for object nodes, each node's inbox
        is a slice of the sorted message list.

        A round with self-addressed traffic keeps its local rows in the
        entry columns: the split counts both parts from one bincount and
        the order step sorts them under one key (:meth:`_split_local`,
        :meth:`_sorted`).  With ``layout_reuse``, an SoA round without
        self-addressed traffic counts on its entry columns and, when no
        capacity binds, takes its receiver order from the cached layout
        of those columns (:class:`_RoundLayout`): a value-verified hit,
        pristine or masked by the fault hook's drops, sorts nothing.
        Inboxes, metrics and the delivery RNG are the same either way.
        """
        if _sanitize.ENABLED:
            # int64 end to end: a narrowed lane (RL303's runtime twin)
            # silently wraps ids/payloads at scale.
            for what, lane in (
                ("receivers", rcv),
                ("senders", snd),
                ("kinds", lanes.kinds),
                ("payloads", lanes.pay),
                ("payloads2", lanes.pay2),
            ):
                _sanitize.check_int64(what, lane)
        cacheable = self._reuse_layouts and lanes.objs is None
        rcv_ok, snd_ok = self._verify_entry(rcv, snd) if cacheable else (False, False)
        rnd, local = self._split_local(_Round(rcv, snd), rcv_ok and snd_ok)
        self._apply_faults(rnd)
        entry = None
        if cacheable and local is None:
            entry = self._count_entry(rnd, rcv_ok, snd_ok)
        head = rnd
        cap = self.capacity
        rnd = self._truncate(rnd, "snd", cap.max_send, "send_drops")
        sent, m_sent = rnd.counts["snd"], len(rnd)
        self._validate_receivers(rnd)
        rnd = self._truncate(rnd, "rcv", cap.max_receive, "receive_drops")
        self._account(sent, m_sent, rnd, local)
        if not self._pending_count:
            return
        if entry is not None and rnd is head:
            self._stage(*self._cached_order(rnd, entry, rcv_ok, snd_ok), lanes)
        else:
            self._stage(*self._sorted(rnd, local), lanes)

    def _verify_entry(self, rcv, snd) -> tuple[bool, bool]:
        """The alias-write guard: is each column the cached entry's, by
        identity *and* value?

        Identity alone can lie: an emitter may mutate a re-emitted column
        through a *different view of the same base* (the frozen writeable
        flag only guards the cached view itself).  A side is therefore
        only trusted after a value comparison against the copy taken at
        store time; a mismatch counts and sorts afresh — never a silent
        misdelivery through a stale permutation.
        """
        lay = self._layout
        rcv_ok = rcv is lay.rcv and np.array_equal(rcv, lay.rcv_copy)
        snd_ok = snd is lay.snd and np.array_equal(snd, lay.snd_copy)
        if snd is lay.snd and not snd_ok:
            # _deliver_soa skipped its canonical-order check on the
            # identity hit; the values changed, so re-run it on them.
            self._require_ascending_senders(snd)
        return rcv_ok, snd_ok

    def _split_local(self, rnd: _Round, verified: bool):
        """Phase 1: self-addressed messages bypass the network.

        Returns the remote round and the local rows (:class:`_Local`),
        ``None`` when there are none — as on verified entry columns,
        which the round that stored them proved free of self-addressed
        traffic.

        The remote round stays the entry columns with the local rows
        held out (:meth:`_Round.hold`), counted by one bincount of the
        grouping key ``(receiver << 1) | is_remote``: its even bins are
        the local counts, its odd bins the remote receive counts, and
        the remote send counts are the senders' bincount less the local
        counts.  A later phase cuts the remote rows out only when it
        needs them as columns — a binding cap.  The fault hook needs
        them at once, and so do non-contiguous ids and an out-of-range
        receiver (phase 4 checks only the survivors): those rounds cut
        here.
        """
        if verified:
            return rnd, None
        snd, rcv = rnd.snd, rnd.rcv
        remote = rcv != (snd if self._contiguous else self._ids[snd])
        m_remote = int(np.count_nonzero(remote))
        if m_remote == rcv.shape[0]:
            return rnd, None
        local = _Local(remote, snd, rcv.shape[0] - m_remote)
        n = self._n
        if self.fault_hook is None and self._contiguous and self._in_range(rcv):
            key = rcv << 1
            key |= remote
            both = np.bincount(key, minlength=2 * n)
            local.counts, local.key = both[0::2], key
            recv = both[1::2]
            sent = np.bincount(snd, minlength=n) - local.counts
            rnd.counts = {"rcv": (recv, int(recv.max())), "snd": (sent, int(sent.max()))}
            rnd.hold(mask=remote)
            return rnd, local
        local.counts = np.bincount(snd[~remote], minlength=n)
        return rnd.take(np.flatnonzero(remote)), local

    def _apply_faults(self, rnd: _Round) -> None:
        """Phase 2: oblivious drops (crash isolation, partitions, link
        loss) over the remote rows in canonical order — the legacy
        engine's hook point, before capacity truncation, so every tier
        sees the same fault stream under a shared seed.  The drops stay
        pending in ``rnd.kept``."""
        m = len(rnd)
        if self.fault_hook is None or not m:
            return
        snd_ids = rnd.snd if self._contiguous else self._ids[rnd.snd]
        keep = self._run_fault_hook(snd_ids, rnd.rcv)
        if keep is None:
            return
        kept = _fault_keep_indices(keep, m)
        if kept.size < m:
            self._metrics.fault_drops += m - kept.size
            keep = np.asarray(keep)
            rnd.hold(kept, keep if keep.dtype == np.bool_ else None)

    def _count_entry(self, rnd: _Round, rcv_ok: bool, snd_ok: bool):
        """Count a cacheable round on its entry columns.

        A verified side's counts come from the cache, the other's from
        one bincount; the fault hook's drops (few, where the survivors
        are many) are subtracted.  Sets ``rnd.counts`` and returns the
        entry's ``(recv, sent)`` counts for the cache — or ``None``,
        counting nothing, when a receiver is out of range: such a round
        is never cached, and phase 4 checks only its survivors.
        """
        lay = self._layout
        if rcv_ok:
            recv = lay.recv_counts, lay.recv_max
        elif not self._in_range(rnd.rcv):
            return None
        else:
            recv = self._count(rnd.rcv)
        sent = (lay.sent_counts, lay.sent_max) if snd_ok else self._count(rnd.snd)
        rnd.counts = {"rcv": recv, "snd": sent}
        if rnd.kept is not None:
            drop = np.flatnonzero(~rnd.keep_mask())
            for key, (counts, _) in rnd.counts.items():
                col = getattr(rnd, key)
                counts = counts - np.bincount(col[drop], minlength=self._n)
                rnd.counts[key] = counts, int(counts.max())
        return recv, sent

    def _truncate(self, rnd: _Round, key: str, cap: int | None, drops: str) -> _Round:
        """Phases 3 and 5, the §1.1 rule in one direction: each sender
        (``key="snd"``) or receiver (``"rcv"``) over ``cap`` keeps a
        uniformly random ``cap`` of its rows, the rest add to the metric
        ``drops``.  One permutation draw, and only when some group binds:
        the RNG discipline every engine shares.  The result carries its
        rows' counts in ``counts[key]``."""
        if key not in rnd.counts:
            rnd = rnd.cut()
            rnd.counts[key] = self._count(getattr(rnd, key))
        if cap is None or rnd.counts[key][1] <= cap:
            return rnd
        rnd = rnd.cut()
        col = getattr(rnd, key)
        keep = segmented_keep_indices(col, cap, self.rng)
        metrics = self._metrics
        setattr(metrics, drops, getattr(metrics, drops) + col.shape[0] - keep.size)
        rnd = rnd.take(keep)
        rnd.counts[key] = self._count(getattr(rnd, key))
        return rnd

    def _validate_receivers(self, rnd: _Round) -> None:
        """Phase 4: every receiver must be a node; ids become indices.
        Receivers counted on the entry columns were range-checked there."""
        if "rcv" in rnd.counts or not len(rnd):
            return
        rcv, n = rnd.rcv, self._n
        if self._contiguous:
            if self._in_range(rcv):
                return
            invalid = (rcv < 0) | (rcv >= n)
        else:
            pos = np.searchsorted(self._sorted_ids, rcv)
            pos_clip = np.minimum(pos, max(n - 1, 0))
            invalid = (pos >= n) | (self._sorted_ids[pos_clip] != rcv)
            if not invalid.any():
                rnd.rcv = self._sort_order[pos]
                return
        raise KeyError(
            f"message addressed to unknown node {int(rcv[int(invalid.argmax())])}"
        )

    def _account(self, sent, m_sent: int, rnd: _Round, local) -> None:
        """Phase 6, metrics: the messages that left their senders
        (``sent`` counts of ``m_sent`` rows, after send truncation) and
        the ones delivered (``rnd``), for fresh and cached rounds alike."""
        metrics = self._metrics
        metrics.total_messages += m_sent
        if m_sent:
            self._sent_counts += sent[0]
            self._counts_dirty = True
            metrics.max_sent_per_round = max(metrics.max_sent_per_round, sent[1])
        m = len(rnd)
        if m:
            recv_counts, recv_max = rnd.counts["rcv"]
            self._recv_counts += recv_counts
            metrics.max_received_per_round = max(
                metrics.max_received_per_round, recv_max
            )
        self._pending_count = m + (0 if local is None else local.size)

    def _cached_order(self, rnd: _Round, entry, rcv_ok: bool, snd_ok: bool):
        """Phase 6, order of an entry round, from the layout cache.

        A full hit reads the stored permutation; any other round sorts
        its entry columns (unless the receivers were verified) and stores
        them.  The delivered rows are ``order[flatnonzero(keep[order])]``,
        the stable receiver sort of the hook's survivors.  Returns the
        :meth:`_stage` arguments.
        """
        lay = self._layout
        if not (rcv_ok and snd_ok):
            order = lay.order if rcv_ok else group_argsort(rnd.rcv, self._n)
            lay.store(rnd.rcv, rnd.snd, order, *entry)
        elif self._round_trace is not None:
            self._layout_hit = True
        order = lay.order
        recv_counts = rnd.counts["rcv"][0]
        if rnd.kept is None:
            # Every message survives: the whole entry layout, kept for
            # the next round that delivers everything too.
            if lay.rcv_s is None:
                lay.rcv_s = np.repeat(self._ids, recv_counts)
                lay.snd_s = rnd.snd[order]
                lay.seg = _segments(recv_counts)
            sel, rcv_s, snd_s, seg = order, lay.rcv_s, lay.snd_s, lay.seg
        else:
            sel = order[np.flatnonzero(rnd.keep_mask()[order])]
            rcv_s = np.repeat(self._ids, recv_counts)
            snd_s = rnd.snd[sel]
            seg = _segments(recv_counts)
        if _sanitize.ENABLED and not np.array_equal(rnd.rcv[sel], rcv_s):
            raise _sanitize.SanitizeError(
                "sanitize: the cached layout does not sort round "
                f"{self.round_no}'s receivers (stale permutation)"
            )
        return rcv_s, snd_s, sel, seg

    def _sorted(self, rnd: _Round, local):
        """Phase 6, order of any other round: one stable grouping sort.

        Without self-addressed rows it sorts the receivers.  With them it
        sorts the staged rows — the local ones and the remote survivors,
        in row order — by the key ``(receiver << 1) | is_remote``: each
        receiver's local messages come ahead of its remote ones, each in
        row order (legacy's local-first order), and nothing is
        concatenated.  Either way the receiver segments fall out of the
        bincounts.  Returns the :meth:`_stage` arguments.
        """
        recv = rnd.counts["rcv"][0] if len(rnd) else None
        if local is None:
            order = group_argsort(rnd.rcv, self._n)
            rows = order if rnd.rows is None else rnd.rows[order]
            return rnd.rcv[order], rnd.snd[order], rows, _segments(recv)
        key, rows = local.key, None
        if rnd.rows is not None:
            # The remote survivors were cut out of the entry columns: key
            # the local rows on their senders, the survivors on their
            # receivers, and sort only the rows still staged.
            staged = ~local.remote
            staged[rnd.rows] = True
            rows = np.flatnonzero(staged)
            key = local.snd << 1
            key[rnd.rows] = (rnd.rcv << 1) | 1
            key = key[rows]
        order = group_argsort(key, 2 * self._n)
        sel = order if rows is None else rows[order]
        rcv_s = key[order]
        rcv_s >>= 1
        seg = _segments(local.counts if recv is None else local.counts + recv)
        return rcv_s, local.snd[sel], sel, seg

    def _stage(self, rcv_s, snd_s, sel, seg, lanes: _Lanes) -> None:
        """Install a round's receiver-sorted rows ``sel`` as the next
        inboxes (``seg``: their receiver segments, if known)."""
        kind_s, pay_s, pay2_s, objs_s = lanes.at(sel, snd_s)
        if _sanitize.ENABLED:
            # Postcondition of every order (fresh sort, cached layout,
            # masked layout): the grouped columns are receiver-sorted.
            # An unsorted rcv_s here means a stale permutation.
            _sanitize.check_receiver_sorted("rcv_s", rcv_s)
            _sanitize.check_int64("rcv_s", rcv_s)
            _sanitize.check_int64("snd_s", snd_s)
            _sanitize.check_int64("pay_s", pay_s)
            _sanitize.check_int64("pay2_s", pay2_s)

        if self._soa is not None:
            # The sorted columns ARE the next round's inbox: no group
            # cutting, no per-node objects — one SoAInbox for everyone.
            self._soa_inbox = SoAInbox(
                snd_s,
                rcv_s,
                lanes.round_kind if kind_s is None else kind_s,
                pay_s,
                pay2_s,
                segments=seg,
            )
            return

        # Object nodes: each receiver's inbox is its slice of the sorted
        # message list.
        m_total = rcv_s.shape[0]
        cuts = np.flatnonzero(rcv_s[1:] != rcv_s[:-1]) + 1
        starts = [0] + cuts.tolist() + [m_total]
        group_rcv = rcv_s[np.asarray(starts[:-1], dtype=np.int64)].tolist()
        pending = self._pending
        contiguous = self._contiguous
        ids = self._ids
        for g, idx in enumerate(group_rcv):
            nid = idx if contiguous else int(ids[idx])
            pending[nid] = objs_s[starts[g] : starts[g + 1]]

    def _count(self, col: np.ndarray):
        """``(bincount, max)`` of a node-index column (``(None, 0)`` if empty)."""
        if not col.shape[0]:
            return None, 0
        counts = np.bincount(col, minlength=self._n)
        return counts, int(counts.max())

    def _in_range(self, col: np.ndarray) -> bool:
        return int(col.min()) >= 0 and int(col.max()) < self._n

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        stop_when: Callable[[], bool] | None = None,
    ) -> NetworkMetrics:
        """Run until every node is idle with no messages in flight, a
        custom predicate fires, or ``max_rounds`` elapses.

        The in-flight/idle bookkeeping is evaluated every round *before*
        the ``stop_when`` predicate is honoured, so a predicate firing on
        the final round still yields consistent metrics:
        ``stopped_by_predicate`` is set and ``in_flight_at_stop`` records
        how many messages were pending (0 when the network was quiescent
        anyway).
        """
        for _ in range(max_rounds):
            self.run_round()
            in_flight = self.pending_messages()
            idle = in_flight == 0 and (
                self._soa.is_idle()
                if self._soa is not None
                else all(node.is_idle() for node in self.nodes.values())
            )
            if stop_when is not None and stop_when():
                self._metrics.stopped_by_predicate = True
                self._metrics.in_flight_at_stop = in_flight
                break
            if idle:
                break
        return self.metrics
