"""ScenarioSpec grammar + FaultInjector semantics and tier identity."""

import numpy as np
import pytest

from repro.graphs.churn import fail_mask
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.runtime import RunContext
from repro.scenarios import (
    CrashWave,
    LinkDelay,
    MessageDrop,
    Partition,
    ScenarioSpec,
)


class TestSpecValidation:
    def test_delay_must_be_positive(self):
        with pytest.raises(ValueError):
            LinkDelay(0)

    def test_drop_probability_bounds(self):
        with pytest.raises(ValueError):
            MessageDrop(-0.1)
        with pytest.raises(ValueError):
            MessageDrop(1.5)

    def test_crash_wave_bounds(self):
        with pytest.raises(ValueError):
            CrashWave(round_no=-1, fraction=0.1)
        with pytest.raises(ValueError):
            CrashWave(round_no=2, fraction=2.0)
        with pytest.raises(ValueError):
            CrashWave(round_no=4, fraction=0.1, rejoin_round=4)

    def test_partition_bounds(self):
        with pytest.raises(ValueError):
            Partition(start=3, stop=3)
        with pytest.raises(ValueError):
            Partition(start=0, stop=5, blocks=1)

    def test_empty_spec_compiles_to_none(self):
        assert ScenarioSpec(name="clean").compile(10) is None
        assert ScenarioSpec(name="delay-only", delay=LinkDelay(5)).compile(10) is None
        assert ScenarioSpec(name="p0", drop=MessageDrop(0.0)).compile(10) is None

    def test_max_delay_defaults_to_synchronous(self):
        assert ScenarioSpec(name="clean").max_delay == 1
        assert ScenarioSpec(name="d", delay=LinkDelay(6)).max_delay == 6

    def test_describe_is_jsonable(self):
        import json

        spec = ScenarioSpec(
            name="x",
            delay=LinkDelay(3),
            drop=MessageDrop(0.1),
            crashes=(CrashWave(1, 0.2, 5),),
            partition=Partition(0, 4, 2),
        )
        payload = json.dumps(spec.describe())
        assert "crashes" in payload


class TestInjectorDeterminism:
    SPEC = ScenarioSpec(
        name="det",
        drop=MessageDrop(0.3),
        crashes=(CrashWave(round_no=1, fraction=0.2, rejoin_round=4),),
        partition=Partition(start=2, stop=5, blocks=2),
        fault_seed=9,
    )

    def test_same_spec_compiles_identically(self):
        a = self.SPEC.compile(64)
        b = self.SPEC.compile(64)
        senders = np.arange(64, dtype=np.int64)
        receivers = np.roll(senders, -1)
        for round_no in range(8):
            ka = a(round_no, senders, receivers)
            kb = b(round_no, senders, receivers)
            assert (ka is None) == (kb is None)
            if ka is not None:
                assert np.array_equal(ka, kb)

    def test_masks_are_oblivious_to_call_order(self):
        # Asking for round 5 before round 0 must not change any answer.
        a = self.SPEC.compile(64)
        b = self.SPEC.compile(64)
        senders = np.arange(64, dtype=np.int64)
        receivers = np.roll(senders, -1)
        forward = [a(r, senders, receivers) for r in range(6)]
        backward = [b(r, senders, receivers) for r in reversed(range(6))][::-1]
        for ka, kb in zip(forward, backward):
            assert np.array_equal(ka, kb) or (ka is None and kb is None)

    def test_crash_membership_matches_churn_draw(self):
        spec = ScenarioSpec(
            name="c", crashes=(CrashWave(round_no=0, fraction=0.4),), fault_seed=3
        )
        injector = spec.compile(50)
        expected_down = ~fail_mask(50, 0.4, np.random.default_rng([3, 101, 0]))
        assert np.array_equal(injector.down_mask(0), expected_down)


class TestAdversarySemantics:
    def test_crash_isolates_both_directions_until_rejoin(self):
        spec = ScenarioSpec(
            name="c", crashes=(CrashWave(round_no=2, fraction=0.5, rejoin_round=5),)
        )
        injector = spec.compile(20)
        down = injector.down_mask(2)
        crashed = int(np.flatnonzero(down)[0])
        alive = int(np.flatnonzero(~down)[0])
        senders = np.array([crashed, alive], dtype=np.int64)
        receivers = np.array([alive, crashed], dtype=np.int64)
        # Before the wave and after rejoin: no faults at all.
        assert injector(1, senders, receivers) is None
        assert injector(5, senders, receivers) is None
        # During: both directions die.
        keep = injector(2, senders, receivers)
        assert not keep.any()

    def test_partition_drops_cross_block_only_during_interval(self):
        spec = ScenarioSpec(name="p", partition=Partition(start=1, stop=3, blocks=2))
        injector = spec.compile(40)
        blocks = injector._blocks
        a = int(np.flatnonzero(blocks == 0)[0])
        b = int(np.flatnonzero(blocks == 1)[0])
        a2 = int(np.flatnonzero(blocks == 0)[1])
        senders = np.array([a, a], dtype=np.int64)
        receivers = np.array([b, a2], dtype=np.int64)
        assert injector(0, senders, receivers) is None
        keep = injector(1, senders, receivers)
        assert keep.tolist() == [False, True]
        assert injector(3, senders, receivers) is None

    def test_drop_rate_is_roughly_p(self):
        spec = ScenarioSpec(name="d", drop=MessageDrop(0.25), fault_seed=1)
        injector = spec.compile(10)
        senders = np.zeros(20_000, dtype=np.int64)
        receivers = np.ones(20_000, dtype=np.int64)
        keep = injector(0, senders, receivers)
        rate = 1.0 - keep.mean()
        assert 0.22 < rate < 0.28


class _Pinger(ProtocolNode):
    """Sends one message per round around a ring; logs every inbox."""

    def __init__(self, node_id, n, rounds):
        super().__init__(node_id)
        self.n = n
        self.rounds = rounds
        self.log = []

    def on_round(self, round_no, inbox):
        self.log.append(sorted((m.sender, m.payload) for m in inbox))
        if round_no >= self.rounds:
            return []
        return [
            Message(self.node_id, (self.node_id + 1) % self.n, "ping", round_no)
        ]

    def is_idle(self):
        return True


class TestFaultHookOnNetwork:
    SPEC = ScenarioSpec(
        name="hook", drop=MessageDrop(0.3), fault_seed=5
    )

    def _run(self, engine, n=12, rounds=5):
        nodes = {v: _Pinger(v, n, rounds) for v in range(n)}
        net = SyncNetwork(
            nodes,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine, fault_hook=self.SPEC.compile(n)),
        )
        for _ in range(rounds + 1):
            net.run_round()
        return {v: nodes[v].log for v in nodes}, net.metrics.as_dict()

    def test_fault_drops_counted_and_engines_identical(self):
        logs_l, metrics_l = self._run("legacy")
        logs_v, metrics_v = self._run("vectorized")
        assert metrics_l == metrics_v
        assert logs_l == logs_v
        assert metrics_l["fault_drops"] > 0
        # Faulted messages never reach metrics' totals as capacity drops.
        assert metrics_l["send_drops"] == 0
        assert metrics_l["receive_drops"] == 0

    def test_self_messages_immune_to_faults(self):
        class SelfLooper(ProtocolNode):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.heard = 0

            def on_round(self, round_no, inbox):
                self.heard += len(inbox)
                if round_no < 4:
                    return [Message(self.node_id, self.node_id, "loop", round_no)]
                return []

        spec = ScenarioSpec(name="all-drop", drop=MessageDrop(1.0))
        nodes = {0: SelfLooper(0)}
        net = SyncNetwork(
            nodes,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            ctx=RunContext.resolve(fault_hook=spec.compile(1)),
        )
        for _ in range(6):
            net.run_round()
        assert nodes[0].heard == 4
        assert net.metrics.fault_drops == 0


class TestRejoinBoundarySemantics:
    """The half-open, send-round crash interval (ISSUE 5 audit).

    A message is subject to the fault state of the round it was *sent*
    in: a node crashed over ``[round_no, rejoin_round)`` loses every
    message sent to or by it in those rounds — so a node rejoining in
    round ``r`` does **not** receive messages sent in round ``r − 1``,
    and the first traffic it exchanges is sent in round ``r`` (arriving
    ``r + 1``).  Pinned on both delivery engines.
    """

    CRASH, REJOIN = 2, 5
    SPEC = ScenarioSpec(
        name="rejoin",
        crashes=(CrashWave(round_no=CRASH, fraction=1.0, rejoin_round=REJOIN),),
        fault_seed=1,
    )

    def _run(self, engine, rounds=8, n=3):
        nodes = {v: _Pinger(v, n, rounds) for v in range(n)}
        net = SyncNetwork(
            nodes,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine, fault_hook=self.SPEC.compile(n)),
        )
        for _ in range(rounds + 1):
            net.run_round()
        return {v: nodes[v].log for v in nodes}, net.metrics.as_dict()

    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_rejoiner_misses_round_r_minus_1_traffic(self, engine):
        logs, metrics = self._run(engine)
        # Node 1's inbox at round k holds the round-(k-1) send of node 0.
        received_send_rounds = {
            payload for entries in logs[1] for (_s, payload) in entries
        }
        # Sends of rounds [CRASH, REJOIN) are dropped — including the
        # round immediately before the rejoin.
        assert received_send_rounds == {0, 1, 5, 6, 7}
        assert self.REJOIN - 1 not in received_send_rounds
        # First post-rejoin message was sent in the rejoin round itself
        # and arrived one round later.
        assert (0, self.REJOIN) in logs[1][self.REJOIN + 1]
        # fraction=1.0 isolates everyone: every send of the crash window
        # is a fault drop (3 senders × 3 rounds).
        assert metrics["fault_drops"] == 3 * (self.REJOIN - self.CRASH)

    def test_engines_agree_on_the_boundary(self):
        assert self._run("legacy") == self._run("vectorized")

    def test_down_mask_interval_is_half_open(self):
        injector = self.SPEC.compile(4)
        assert injector.down_mask(self.CRASH - 1) is None
        assert injector.down_mask(self.CRASH).all()
        assert injector.down_mask(self.REJOIN - 1).all()
        # round_no == end: the wave no longer applies at the rejoin round.
        assert injector.down_mask(self.REJOIN) is None
        # Never-rejoining waves stay down arbitrarily far out.
        forever = ScenarioSpec(
            name="forever", crashes=(CrashWave(round_no=1, fraction=1.0),)
        ).compile(4)
        assert forever.down_mask(10**6).all()

    def test_down_mask_cache_survives_boundary_recrossing(self):
        injector = self.SPEC.compile(4)
        a = injector.down_mask(self.CRASH)
        assert injector.down_mask(self.REJOIN) is None
        b = injector.down_mask(self.CRASH)
        assert np.array_equal(a, b)


class TestPartitionBoundarySemantics:
    """Partition rounds are the same half-open, send-round interval."""

    START, STOP = 1, 3
    # fault_seed=1 places nodes 0 and 1 in different blocks (guarded
    # below), so the 2-node ping ring crosses the cut every round.
    SPEC = ScenarioSpec(
        name="split", partition=Partition(start=START, stop=STOP), fault_seed=1
    )

    def test_seed_really_splits_the_pair(self):
        injector = self.SPEC.compile(2)
        assert injector._blocks[0] != injector._blocks[1]

    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_heal_round_send_crosses(self, engine):
        n, rounds = 2, 6
        nodes = {v: _Pinger(v, n, rounds) for v in range(n)}
        net = SyncNetwork(
            nodes,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine, fault_hook=self.SPEC.compile(n)),
        )
        for _ in range(rounds + 1):
            net.run_round()
        received_send_rounds = {
            payload for entries in nodes[1].log for (_s, payload) in entries
        }
        # Sends of rounds [START, STOP) dropped; the STOP-round send (the
        # heal round) crosses and arrives at STOP + 1.
        assert received_send_rounds == {0, 3, 4, 5}
        assert (0, self.STOP) in nodes[1].log[self.STOP + 1]
        assert net.metrics.fault_drops == 2 * (self.STOP - self.START)
