"""Synchronous network simulator tests: delivery, capacity, metrics."""

import numpy as np
import pytest

from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.runtime import RunContext


class EchoNode(ProtocolNode):
    """Sends one message to a fixed target in round 0; records inbox."""

    def __init__(self, node_id, target=None, payloads=1):
        super().__init__(node_id)
        self.target = target
        self.payloads = payloads
        self.received: list[Message] = []
        self.done = False

    def on_round(self, round_no, inbox):
        self.received.extend(inbox)
        if round_no == 0 and self.target is not None:
            self.done = True
            return [
                Message(self.node_id, self.target, "ping", k)
                for k in range(self.payloads)
            ]
        self.done = True
        return []

    def is_idle(self):
        return self.done


def build_network(nodes, capacity=None, seed=0):
    capacity = capacity or CapacityPolicy.unbounded()
    return SyncNetwork(nodes, capacity, np.random.default_rng(seed))


class TestDelivery:
    def test_message_arrives_next_round(self):
        nodes = {0: EchoNode(0, target=1), 1: EchoNode(1)}
        net = build_network(nodes)
        net.run_round()
        assert nodes[1].received == []
        net.run_round()
        assert len(nodes[1].received) == 1
        assert nodes[1].received[0].kind == "ping"

    def test_forged_sender_rejected(self):
        class Forger(ProtocolNode):
            def on_round(self, round_no, inbox):
                return [Message(99, 1, "fake")]

        net = build_network({0: Forger(0), 1: EchoNode(1)})
        with pytest.raises(ValueError, match="forge"):
            net.run_round()

    def test_unknown_receiver_rejected(self):
        net = build_network({0: EchoNode(0, target=42)})
        with pytest.raises(KeyError):
            net.run_round()

    def test_self_messages_bypass_network(self):
        nodes = {0: EchoNode(0, target=0, payloads=5)}
        net = build_network(nodes, capacity=CapacityPolicy(max_send=1, max_receive=1))
        net.run_round()
        net.run_round()
        assert len(nodes[0].received) == 5  # no cap applied to self-sends
        assert net.metrics.total_messages == 0


class TestCapacity:
    def test_send_cap_drops(self):
        nodes = {0: EchoNode(0, target=1, payloads=10), 1: EchoNode(1)}
        net = build_network(nodes, capacity=CapacityPolicy(max_send=3, max_receive=None))
        net.run_round()
        net.run_round()
        assert len(nodes[1].received) == 3
        assert net.metrics.send_drops == 7

    def test_receive_cap_drops(self):
        nodes = {
            0: EchoNode(0, target=2, payloads=4),
            1: EchoNode(1, target=2, payloads=4),
            2: EchoNode(2),
        }
        net = build_network(nodes, capacity=CapacityPolicy(max_send=None, max_receive=5))
        net.run_round()
        net.run_round()
        assert len(nodes[2].received) == 5
        assert net.metrics.receive_drops == 3

    def test_ncc0_policy_scales_with_delta(self):
        pol = CapacityPolicy.ncc0(100, delta=48)
        assert pol.max_send == 48
        assert pol.max_receive == 48


class TestMetrics:
    def test_totals_and_peaks(self):
        nodes = {0: EchoNode(0, target=1, payloads=4), 1: EchoNode(1)}
        net = build_network(nodes)
        metrics = net.run(max_rounds=5)
        assert metrics.total_messages == 4
        assert metrics.max_sent_per_round == 4
        assert metrics.max_received_per_round == 4
        assert metrics.sent_per_node[0] == 4
        assert metrics.received_per_node[1] == 4

    def test_run_stops_when_idle(self):
        nodes = {0: EchoNode(0, target=1), 1: EchoNode(1)}
        net = build_network(nodes)
        metrics = net.run(max_rounds=50)
        assert metrics.rounds <= 3

    def test_stop_when_predicate(self):
        nodes = {0: EchoNode(0, target=1, payloads=2), 1: EchoNode(1)}
        net = build_network(nodes)
        net.run(max_rounds=50, stop_when=lambda: True)
        assert net.metrics.rounds == 1


class TestEarlyStopBookkeeping:
    """The ``stop_when`` fix: in-flight/idle bookkeeping is evaluated every
    round, even on the round the predicate fires."""

    def test_predicate_with_traffic_in_flight(self):
        nodes = {0: EchoNode(0, target=1, payloads=3), 1: EchoNode(1)}
        net = build_network(nodes)
        metrics = net.run(max_rounds=50, stop_when=lambda: True)
        # Stopped after round 1, while the 3 messages were still pending.
        assert metrics.stopped_by_predicate
        assert metrics.in_flight_at_stop == 3
        assert net.pending_messages() == 3

    def test_predicate_firing_on_final_round_is_consistent(self):
        # Baseline: without a predicate the run goes quiescent by itself.
        baseline_nodes = {0: EchoNode(0, target=1, payloads=2), 1: EchoNode(1)}
        baseline = build_network(baseline_nodes).run(max_rounds=50)
        assert not baseline.stopped_by_predicate

        # A predicate that fires exactly on the round the network would
        # have stopped anyway must not corrupt the bookkeeping: zero
        # messages in flight, identical aggregates.
        nodes = {0: EchoNode(0, target=1, payloads=2), 1: EchoNode(1)}
        net = build_network(nodes)
        metrics = net.run(
            max_rounds=50, stop_when=lambda: net.round_no >= baseline.rounds
        )
        assert metrics.stopped_by_predicate
        assert metrics.in_flight_at_stop == 0
        assert metrics.rounds == baseline.rounds
        assert metrics.total_messages == baseline.total_messages
        assert dict(metrics.received_per_node) == dict(baseline.received_per_node)

    def test_no_predicate_leaves_flags_unset(self):
        nodes = {0: EchoNode(0, target=1), 1: EchoNode(1)}
        metrics = build_network(nodes).run(max_rounds=50)
        assert not metrics.stopped_by_predicate
        assert metrics.in_flight_at_stop == 0

    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_pending_messages_tracks_both_engines(self, engine):
        nodes = {0: EchoNode(0, target=1, payloads=4), 1: EchoNode(1)}
        net = SyncNetwork(
            nodes, CapacityPolicy.unbounded(), np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine)
        )
        assert net.pending_messages() == 0
        net.run_round()
        assert net.pending_messages() == 4
        net.run_round()
        assert net.pending_messages() == 0


class TestNodeCounts:
    """Lazy columnar per-node counters behind ``NetworkMetrics``."""

    def test_defaultdict_compatible(self):
        from repro.net.network import NodeCounts

        counts = NodeCounts()
        assert counts[5] == 0  # missing reads as 0 ...
        assert 5 not in counts  # ... without inserting
        counts[3] += 2
        counts[3] += 1
        assert counts[3] == 3
        assert dict(counts) == {3: 3}

    def test_column_absorption_is_lazy_and_correct(self):
        from repro.net.network import NodeCounts

        counts = NodeCounts()
        ids = np.array([10, 20, 30], dtype=np.int64)
        counts.add_column(ids, np.array([1, 0, 2], dtype=np.int64))
        counts.add_column(ids, np.array([4, 0, 0], dtype=np.int64))
        # Zero entries never materialise; repeated columns accumulate.
        assert dict(counts) == {10: 5, 30: 2}
        assert len(counts) == 2
        assert sorted(counts.items()) == [(10, 5), (30, 2)]
        assert max(counts.values()) == 5

    def test_columns_and_dict_writes_combine(self):
        from repro.net.network import NodeCounts

        counts = NodeCounts()
        counts[10] += 7
        counts.add_column(
            np.array([10, 11], dtype=np.int64), np.array([1, 1], dtype=np.int64)
        )
        assert counts[10] == 8
        assert counts[11] == 1

    def test_equality_flushes_both_sides(self):
        from repro.net.network import NodeCounts

        a = NodeCounts()
        a.add_column(np.array([1], dtype=np.int64), np.array([3], dtype=np.int64))
        b = NodeCounts()
        b[1] = 3
        assert a == b
        assert a == {1: 3}

    def test_network_metrics_stay_correct_and_lazy(self):
        # The vectorized engine's per-node dicts materialise only on
        # read; scalar aggregates never force the flush.
        nodes = {0: EchoNode(0, target=1, payloads=4), 1: EchoNode(1)}
        net = build_network(nodes)
        net.run_round()
        metrics = net.metrics
        assert metrics.sent_per_node._counts is not None  # still columnar
        assert metrics.total_messages == 4
        assert metrics.max_total_sent_by_any_node() == 4  # forces the flush
        assert metrics.sent_per_node._counts is None
        assert dict(metrics.sent_per_node) == {0: 4}
        # Receive accounting happens at delivery time (same round).
        assert dict(metrics.received_per_node) == {1: 4}
        net.run_round()
        assert net.metrics.received_per_node[1] == 4
