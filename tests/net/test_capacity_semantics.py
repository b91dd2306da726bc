"""Regression tests pinning the §1.1 drop semantics.

Three properties of the NCC0 capacity model that both delivery engines
must preserve under any future optimisation:

1. **Uniformity** — when a node is over budget, the surviving subset is
   uniformly random (chi-square over many seeds, send and receive side);
2. **Self-loop exemption** — self-addressed messages bypass the network:
   they consume no send/receive capacity and appear in no metric;
3. **Exactness of ``None``** — disabling a bound disables it *exactly*:
   no truncation, no drops, and not a single bite of network randomness
   consumed (the generator state is untouched).
"""

import copy

import numpy as np
import pytest
from scipy import stats

from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.runtime import RunContext

ENGINES = ["legacy", "vectorized"]


class BurstNode(ProtocolNode):
    """Sends a configured burst in round 0 and records its inbox."""

    def __init__(self, node_id, sends=()):
        super().__init__(node_id)
        self.sends = list(sends)
        self.received: list[Message] = []

    def on_round(self, round_no, inbox):
        self.received.extend(inbox)
        if round_no == 0:
            return [Message(self.node_id, r, k, p) for r, k, p in self.sends]
        return []

    def is_idle(self):
        return True


def surviving_payloads(engine, seed, num_messages, max_send):
    """One over-capacity send burst; returns the payloads that survived."""
    sender = BurstNode(0, [(1, "m", p) for p in range(num_messages)])
    sink = BurstNode(1)
    net = SyncNetwork(
        {0: sender, 1: sink},
        CapacityPolicy(max_send=max_send, max_receive=None),
        np.random.default_rng(seed),
        ctx=RunContext.resolve(engine=engine),
    )
    net.run(max_rounds=2)
    return [m.payload for m in sink.received]


class TestDroppedSubsetsAreUniform:
    NUM_MESSAGES = 10
    CAP = 3
    TRIALS = 400

    @pytest.mark.parametrize("engine", ENGINES)
    def test_send_side_chi_square(self, engine):
        counts = np.zeros(self.NUM_MESSAGES, dtype=np.int64)
        for seed in range(self.TRIALS):
            kept = surviving_payloads(engine, seed, self.NUM_MESSAGES, self.CAP)
            assert len(kept) == self.CAP
            counts[kept] += 1
        # Each payload survives with probability cap/num; chi-square over
        # the payload bins must not reject uniformity.
        result = stats.chisquare(counts)
        assert result.pvalue > 1e-3, f"non-uniform survivals: {counts.tolist()}"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_receive_side_chi_square(self, engine):
        num_senders, cap, trials = 8, 3, 400
        counts = np.zeros(num_senders, dtype=np.int64)
        for seed in range(trials):
            sink = BurstNode(0)
            nodes = {0: sink}
            for s in range(1, num_senders + 1):
                nodes[s] = BurstNode(s, [(0, "m", s)])
            net = SyncNetwork(
                nodes,
                CapacityPolicy(max_send=None, max_receive=cap),
                np.random.default_rng(seed),
                ctx=RunContext.resolve(engine=engine),
            )
            net.run(max_rounds=2)
            assert len(sink.received) == cap
            for m in sink.received:
                counts[m.sender - 1] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 1e-3, f"non-uniform survivals: {counts.tolist()}"

    def test_both_engines_drop_identical_subsets(self):
        for seed in range(25):
            kept_l = surviving_payloads("legacy", seed, 10, 3)
            kept_v = surviving_payloads("vectorized", seed, 10, 3)
            assert kept_l == kept_v


class TestSelfLoopExemption:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_messages_never_consume_capacity(self, engine):
        # cap remote messages exactly at the budget, plus a pile of
        # self-sends: nothing may be dropped on either side.
        cap = 3
        sends = [(0, "self", p) for p in range(7)] + [(1, "remote", p) for p in range(cap)]
        node = BurstNode(0, sends)
        sink = BurstNode(1)
        net = SyncNetwork(
            {0: node, 1: sink},
            CapacityPolicy(max_send=cap, max_receive=cap),
            np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine),
        )
        metrics = net.run(max_rounds=3)
        assert len(node.received) == 7  # every self-send delivered
        assert len(sink.received) == cap
        assert metrics.total_drops == 0
        # Self-sends are local computation, not communication (§1.1).
        assert metrics.total_messages == cap
        assert metrics.max_sent_per_round == cap
        assert dict(metrics.sent_per_node) == {0: cap}
        assert dict(metrics.received_per_node) == {1: cap}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pure_self_traffic_is_invisible_to_the_network(self, engine):
        node = BurstNode(0, [(0, "self", p) for p in range(20)])
        net = SyncNetwork(
            {0: node},
            CapacityPolicy(max_send=1, max_receive=1),
            np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine),
        )
        metrics = net.run(max_rounds=3)
        assert len(node.received) == 20
        assert metrics.total_messages == 0
        assert metrics.total_drops == 0
        assert metrics.max_sent_per_round == 0
        assert metrics.max_received_per_round == 0


class TestNoneDisablesTruncationExactly:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_huge_fanin_with_unbounded_capacity(self, engine):
        num_senders, per_sender = 30, 9
        sink = BurstNode(0)
        nodes = {0: sink}
        for s in range(1, num_senders + 1):
            nodes[s] = BurstNode(s, [(0, "m", p) for p in range(per_sender)])
        net = SyncNetwork(
            nodes, CapacityPolicy.unbounded(), np.random.default_rng(7),
            ctx=RunContext.resolve(engine=engine)
        )
        metrics = net.run(max_rounds=2)
        assert len(sink.received) == num_senders * per_sender
        assert metrics.total_drops == 0
        assert metrics.total_messages == num_senders * per_sender

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unbounded_run_consumes_no_network_randomness(self, engine):
        sink = BurstNode(1)
        nodes = {0: BurstNode(0, [(1, "m", p) for p in range(50)]), 1: sink}
        rng = np.random.default_rng(123)
        state_before = copy.deepcopy(rng.bit_generator.state)
        net = SyncNetwork(
            nodes, CapacityPolicy.unbounded(), rng, ctx=RunContext.resolve(engine=engine)
        )
        net.run(max_rounds=2)
        assert rng.bit_generator.state == state_before

    @pytest.mark.parametrize("engine", ENGINES)
    def test_at_cap_traffic_consumes_no_network_randomness(self, engine):
        # The shared RNG discipline draws only when a bound actually binds:
        # sending *exactly* the budget must leave the generator untouched.
        cap = 5
        sink = BurstNode(1)
        nodes = {0: BurstNode(0, [(1, "m", p) for p in range(cap)]), 1: sink}
        rng = np.random.default_rng(321)
        state_before = copy.deepcopy(rng.bit_generator.state)
        net = SyncNetwork(
            nodes, CapacityPolicy(max_send=cap, max_receive=cap), rng,
            ctx=RunContext.resolve(engine=engine)
        )
        metrics = net.run(max_rounds=2)
        assert rng.bit_generator.state == state_before
        assert metrics.total_drops == 0
        assert len(sink.received) == cap
