"""Pair payloads through object nodes on both engines.

Object messages carry their payloads as Python objects — an ``(int, int)``
pair (e.g. the rooting phase's ``(depth, offerer)`` BFS offers) or
anything else — and both delivery engines must hand them through
untouched, with legacy and vectorized delivery agreeing exactly even when
capacities bind.  (The SoA tier's columnar pair lane, ``payloads2``, is
pinned bit-for-bit against these object nodes by the rooting suites.)
"""

import numpy as np
import pytest

from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.runtime import RunContext


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
