"""Payload lanes: object pair payloads and SoA per-sender lanes.

Object messages carry their payloads as Python objects — an ``(int, int)``
pair (e.g. the rooting phase's ``(depth, offerer)`` BFS offers) or
anything else — and both delivery engines must hand them through
untouched, with legacy and vectorized delivery agreeing exactly even when
capacities bind.  (The SoA tier's columnar pair lane, ``payloads2``, is
pinned bit-for-bit against these object nodes by the rooting suites.)

An SoA lane may also be a per-sender lane, ``BySender(col)``: row ``i``
carries ``col[senders[i]]``.  On every delivery path (fresh sort, layout
hits with and without fault drops, self-addressed traffic, binding
capacities, the cache turned off, the delay synchroniser) it must deliver
exactly what the materialised ``col[senders]`` delivers, and a misshapen
column must fail loudly.
"""

import numpy as np
import pytest

from repro import sanitize
from repro.net.batch import BySender, MessageBatch
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.net.soa import SoAProtocolClass
from repro.obs import Tracer
from repro.runtime import RunContext
from repro.scenarios import LinkDelay
from repro.scenarios.soa_sync import run_soa_synchroniser


class ObjectPairSprayer(ProtocolNode):
    """Object node broadcasting (round, id) pairs to every other node,
    plus one plain-int message per round (a mixed-payload round)."""

    def __init__(self, node_id, n, rounds):
        super().__init__(node_id)
        self.n = n
        self.rounds = rounds
        self.log = []

    def on_round(self, round_no, inbox):
        entries = []
        for m in inbox:
            if isinstance(m.payload, tuple):
                entries.append((m.sender, m.payload[0], m.payload[1]))
            else:
                entries.append((m.sender, m.payload, 0))
        self.log.append(sorted(entries))
        if round_no >= self.rounds:
            return []
        out = [
            Message(self.node_id, u, "pair", (round_no, self.node_id))
            for u in range(self.n)
            if u != self.node_id
        ]
        out.append(Message(self.node_id, (self.node_id + 1) % self.n, "plain", round_no))
        return out

    def is_idle(self):
        return False


def _run(n, engine, capacity, seed, rounds=4):
    nodes = {v: ObjectPairSprayer(v, n, rounds) for v in range(n)}
    net = SyncNetwork(
        nodes, capacity, np.random.default_rng(seed), ctx=RunContext.resolve(engine=engine)
    )
    for _ in range(rounds + 1):
        net.run_round()
    return {v: nodes[v].log for v in nodes}, net.metrics.as_dict()


class TestEnginesAgreeOnPairTraffic:
    @pytest.mark.parametrize(
        "capacity", [CapacityPolicy.unbounded(), CapacityPolicy(max_send=4, max_receive=3)]
    )
    def test_legacy_and_vectorized_identical(self, capacity):
        logs_l, metrics_l = _run(6, "legacy", capacity, seed=2)
        logs_v, metrics_v = _run(6, "vectorized", capacity, seed=2)
        assert metrics_l == metrics_v
        assert logs_l == logs_v


class Recorder(ProtocolNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []

    def on_round(self, round_no, inbox):
        self.seen.extend((m.sender, m.kind, m.payload) for m in inbox)
        return []

    def is_idle(self):
        return False


class TestPayloadPassthrough:
    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_object_payloads_arrive_unchanged(self, engine):
        class Sender(ProtocolNode):
            def on_round(self, round_no, inbox):
                if round_no:
                    return []
                return [
                    Message(self.node_id, 1, "pair", (13, 14)),
                    Message(self.node_id, 1, "plain", 15),
                    Message(self.node_id, 1, "x", (1, 2, 3)),
                ]

            def is_idle(self):
                return False

        nodes = {0: Sender(0), 1: Recorder(1)}
        net = SyncNetwork(
            nodes, CapacityPolicy.unbounded(), np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine)
        )
        net.run_round()
        net.run_round()
        assert nodes[1].seen == [
            (0, "pair", (13, 14)),
            (0, "plain", 15),
            (0, "x", (1, 2, 3)),
        ]


# ----------------------------------------------------------------------
# SoA per-sender lanes: ``BySender(col)`` against the materialised
# ``col[senders]`` on every delivery path.
# ----------------------------------------------------------------------

N = 16
M = 96
ROUNDS = 6


def _snapshot(inbox):
    return tuple(
        None if lane is None else np.array(lane, copy=True)
        for lane in (
            inbox.senders,
            inbox.receivers,
            inbox.kinds,
            inbox.payloads,
            inbox.payloads2,
        )
    )


class Replay(SoAProtocolClass):
    """Re-emits one pair of sender/receiver columns every round.

    Each round first rewrites its two node columns in place (the
    protocol-state update), then emits them either as per-sender lanes
    (``BySender(col)``) or materialised (``col[senders]``).  Both arms
    draw the same column values, so their deliveries must be identical.
    ``fresh`` re-emits copies of the columns (a fresh sort each round)
    instead of the same objects (layout-cache hits).
    """

    def __init__(self, by_sender, *, fresh=False, self_loops=False, seed=0):
        super().__init__(N)
        rng = np.random.default_rng(seed)
        snd = np.sort(rng.integers(0, N, M))
        rcv = rng.integers(0, N, M)
        if not self_loops:
            rcv = np.where(rcv == snd, (rcv + 1) % N, rcv)
        self.snd, self.rcv = snd, rcv
        self.by_sender = by_sender
        self.fresh = fresh
        self.col = np.zeros(N, dtype=np.int64)
        self.col2 = np.zeros(N, dtype=np.int64)
        self._values = np.random.default_rng(seed + 1)
        self.log = []

    def on_round_soa(self, round_no, inbox):
        self.log.append(_snapshot(inbox))
        if round_no >= ROUNDS:
            return None
        self.col[:] = self._values.integers(-(2**40), 2**40, N)
        self.col2[:] = self._values.integers(-(2**40), 2**40, N)
        snd, rcv = self.snd, self.rcv
        if self.fresh:
            snd, rcv = snd.copy(), rcv.copy()
        if self.by_sender:
            lanes = (BySender(self.col), BySender(self.col2))
        else:
            lanes = (self.col[snd], self.col2[snd])
        return MessageBatch._raw(snd, rcv, 3, *lanes)

    def is_idle(self):
        return False


def _bool_hook(round_no, senders, receivers):
    return (np.arange(senders.shape[0]) + round_no) % 3 != 0


def _index_hook(round_no, senders, receivers):
    return np.flatnonzero((senders + receivers + round_no) % 4 != 0)


PATHS = {
    "fresh-sort": dict(fresh=True),
    "pristine-hit": dict(),
    "masked-hit-bool": dict(fault_hook=_bool_hook),
    "masked-hit-indices": dict(fault_hook=_index_hook),
    "self-addressed": dict(self_loops=True),
    "send-cap": dict(capacity=CapacityPolicy(max_send=3, max_receive=None)),
    "receive-cap": dict(capacity=CapacityPolicy(max_send=None, max_receive=3)),
    "no-layout-reuse": dict(layout_reuse=False),
}


def _run_path(by_sender, fresh=False, self_loops=False, capacity=None, **ctx_kw):
    cls = Replay(by_sender, fresh=fresh, self_loops=self_loops)
    rng = np.random.default_rng(11)
    net = SyncNetwork(
        cls,
        capacity or CapacityPolicy.unbounded(),
        rng,
        ctx=RunContext.resolve(tracer=Tracer(), **ctx_kw),
    )
    for _ in range(ROUNDS + 1):
        net.run_round()
    return cls, net, rng


def _assert_same_logs(got, want):
    assert len(got) == len(want)
    for g_round, w_round in zip(got, want):
        for g, w in zip(g_round, w_round):
            assert (g is None) == (w is None)
            if g is not None:
                assert np.array_equal(g, w)


class TestBySenderLanes:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_matches_materialised_lane(self, path):
        kw = PATHS[path]
        cls_a, net_a, rng_a = _run_path(True, **kw)
        cls_b, net_b, rng_b = _run_path(False, **kw)
        _assert_same_logs(cls_a.log, cls_b.log)
        assert net_a.metrics.as_dict() == net_b.metrics.as_dict()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert sum(len(r[0]) for r in cls_a.log) > 0
        hits = int(net_a.metrics.per_round.layout_hits().sum())
        assert hits == int(net_b.metrics.per_round.layout_hits().sum())
        if path in ("pristine-hit", "masked-hit-bool", "masked-hit-indices"):
            assert hits == ROUNDS - 1
        m = net_a.metrics
        if path == "send-cap":
            assert m.send_drops > 0
        if path == "receive-cap":
            assert m.receive_drops > 0
        if path.startswith("masked"):
            assert m.fault_drops > 0

    def test_synchroniser_with_link_delay(self):
        def run(by_sender):
            cls = Replay(by_sender)
            rng = np.random.default_rng(5)
            delay_rng = np.random.default_rng(6)
            report, net = run_soa_synchroniser(
                cls,
                CapacityPolicy(max_send=None, max_receive=4),
                rng,
                delay_rng,
                LinkDelay(3).max_delay,
                ROUNDS + 2,
                require_quiescence=False,
            )
            return cls, net, rng, delay_rng, report

        a = run(True)
        b = run(False)
        _assert_same_logs(a[0].log, b[0].log)
        assert a[1].metrics.as_dict() == b[1].metrics.as_dict()
        assert a[2].bit_generator.state == b[2].bit_generator.state
        assert a[3].bit_generator.state == b[3].bit_generator.state
        assert a[4] == b[4]

    def test_column_write_after_delivery_leaves_inbox(self):
        col = np.arange(N, dtype=np.int64) * 10
        snd = np.arange(N, dtype=np.int64)
        rcv = (snd + 1) % N
        seen = {}

        class Writer(SoAProtocolClass):
            def on_round_soa(self, round_no, inbox):
                if round_no == 0:
                    return MessageBatch._raw(snd, rcv, 0, BySender(col))
                seen["senders"] = np.array(inbox.senders, copy=True)
                col[:] = -1  # the next round's protocol-state write
                seen["payloads"] = inbox.payloads
                return None

        net = SyncNetwork(Writer(N), CapacityPolicy.unbounded(), np.random.default_rng(0))
        net.run_round()
        net.run_round()
        assert np.array_equal(seen["payloads"], seen["senders"] * 10)

    def test_public_constructor_keeps_lane(self):
        lane = BySender(np.zeros(4, dtype=np.int64))
        batch = MessageBatch([0, 1], [1, 0], "x", payloads=lane, payloads2=lane)
        assert batch.payloads is lane and batch.payloads2 is lane


class _OneShot(SoAProtocolClass):
    def __init__(self, lanes):
        super().__init__(N)
        self.lanes = lanes

    def on_round_soa(self, round_no, inbox):
        if round_no:
            return None
        snd = np.arange(N, dtype=np.int64)
        return MessageBatch._raw(snd, (snd + 1) % N, 0, *self.lanes)


class TestBySenderMisuse:
    @pytest.mark.parametrize(
        "column",
        [
            np.zeros(N - 1, dtype=np.int64),
            np.zeros(N + 1, dtype=np.int64),
            np.zeros((N, 1), dtype=np.int64),
            np.zeros(N, dtype=np.int32),
            list(range(N)),
        ],
        ids=["short", "long", "2-d", "int32", "list"],
    )
    @pytest.mark.parametrize("lane", ["payloads", "payloads2"])
    def test_bad_column_raises_naming_lane(self, column, lane):
        good = np.zeros(N, dtype=np.int64)
        lanes = (
            (BySender(column), None)
            if lane == "payloads"
            else (good, BySender(column))
        )
        net = SyncNetwork(
            _OneShot(lanes), CapacityPolicy.unbounded(), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match=rf"\b{lane} lane"):
            net.run_round()

    def test_sanitize_checks_the_node_column(self, monkeypatch):
        with pytest.raises(sanitize.SanitizeError, match="payloads"):
            sanitize.check_int64("payloads", BySender(np.zeros(N, dtype=np.int32)))
        sanitize.check_int64("payloads", BySender(np.zeros(N, dtype=np.int64)))
        # A valid per-sender run passes every armed delivery-tail check.
        monkeypatch.setattr(sanitize, "ENABLED", True)
        for path in ("pristine-hit", "self-addressed", "masked-hit-bool"):
            cls_a, net_a, _ = _run_path(True, **PATHS[path])
            cls_b, net_b, _ = _run_path(False, **PATHS[path])
            _assert_same_logs(cls_a.log, cls_b.log)


class _LaneEmitter(SoAProtocolClass):
    """Re-emits one pair of three-row columns every round (a layout hit
    from the second round on); round ``bad_round`` gives lane ``lane``
    ``rows`` rows instead of three."""

    SND = (0, 1, 2)
    RCV = (1, 2, 3)

    def __init__(self, bad_round=None, lane=None, rows=None):
        super().__init__(N)
        self.snd = np.array(self.SND, dtype=np.int64)
        self.rcv = np.array(self.RCV, dtype=np.int64)
        self.bad_round, self.lane, self.rows = bad_round, lane, rows

    def on_round_soa(self, round_no, inbox):
        lanes = {
            "kinds": np.zeros(3, dtype=np.int64),
            "payloads": np.array([10, 11, 12], dtype=np.int64),
            "payloads2": np.array([20, 21, 22], dtype=np.int64),
        }
        if round_no == self.bad_round:
            lanes[self.lane] = np.arange(self.rows, dtype=np.int64)
        return MessageBatch._raw(
            self.snd, self.rcv, lanes["kinds"], lanes["payloads"], lanes["payloads2"]
        )


def _lane_network(cls):
    return SyncNetwork(
        cls,
        CapacityPolicy.unbounded(),
        np.random.default_rng(0),
        ctx=RunContext.resolve(tracer=Tracer()),
    )


class TestMislengthLanes:
    """An m-length lane with the wrong number of rows fails at once,
    naming the lane — it is neither delivered truncated nor left to fail
    deep in the delivery tail."""

    def test_second_round_is_a_layout_hit(self):
        net = _lane_network(_LaneEmitter())
        net.run_round()
        net.run_round()
        assert net.metrics.per_round.layout_hits().tolist() == [0, 1]

    @pytest.mark.parametrize("bad_round", [0, 1], ids=["fresh-sort", "cached-hit"])
    @pytest.mark.parametrize(
        "lane,rows",
        [
            ("kinds", 4),
            ("kinds", 2),
            ("payloads", 5),
            ("payloads", 2),
            ("payloads2", 4),
            ("payloads2", 2),
        ],
    )
    def test_raises_naming_lane(self, bad_round, lane, rows):
        net = _lane_network(_LaneEmitter(bad_round, lane, rows))
        for _ in range(bad_round):
            net.run_round()
        with pytest.raises(ValueError, match=rf"\b{lane} lane has shape \({rows},\)"):
            net.run_round()

    def test_two_dimensional_lane_raises(self):
        cls = _LaneEmitter(0, "payloads", 3)
        cls.on_round_soa = lambda round_no, inbox: MessageBatch._raw(
            cls.snd, cls.rcv, 0, np.zeros((3, 1), dtype=np.int64)
        )
        with pytest.raises(ValueError, match=r"\bpayloads lane has shape \(3, 1\)"):
            _lane_network(cls).run_round()
