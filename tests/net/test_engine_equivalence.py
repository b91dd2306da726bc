"""Differential equivalence: legacy vs. vectorized delivery engines,
across both node representations (object, SoA).

All engines of :class:`SyncNetwork` implement the §1.1 NCC0 semantics
under one canonical RNG discipline (see ``docs/engine.md``), so under the
same seed they must produce *identical* executions — not just statistically
similar ones.  This suite replays seeded random workloads (mixed
self-loops, over-capacity senders, hot receivers) through every
engine × node-representation combination — including the SoA tier, where
one :class:`SoAProtocolClass` emits the whole population's round — and
asserts exact equality of

- per-node inbox multisets (in fact full sequences) for every round, and
- every :class:`NetworkMetrics` aggregate,

plus identical error behaviour for unknown receivers.
"""

import numpy as np
import pytest

from repro.net.batch import KINDS, MessageBatch
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SoAProtocolClass, SyncNetwork
from repro.runtime import RunContext

N_NODES = 24
N_ROUNDS = 6
SEEDS = range(20)


def make_plan(seed: int, n: int = N_NODES, rounds: int = N_ROUNDS):
    """Deterministic per-node send schedule with stressful structure.

    Every round each node sends a random number of messages to random
    receivers (self included — exercising the local bypass), two "chatty"
    nodes burst far over any send cap, and all bursts favour a "hot"
    receiver so the receive cap binds too.
    """
    rng = np.random.default_rng(seed * 1013 + 7)
    hot = int(rng.integers(0, n))
    chatty = set(rng.choice(n, size=2, replace=False).tolist())
    plan: dict[int, list[list[tuple[int, str, int]]]] = {v: [] for v in range(n)}
    payload = 0
    for _ in range(rounds):
        for v in range(n):
            k = int(rng.integers(0, 4))
            if v in chatty:
                k += int(rng.integers(8, 14))
            sends = []
            for _ in range(k):
                if rng.random() < 0.15:
                    receiver = v  # self-loop
                elif rng.random() < 0.4:
                    receiver = hot
                else:
                    receiver = int(rng.integers(0, n))
                kind = "ping" if rng.random() < 0.7 else "pong"
                sends.append((receiver, kind, payload))
                payload += 1
            plan[v].append(sends)
    return plan


class ScriptedNode(ProtocolNode):
    """Replays a plan with object messages; logs every inbox."""

    def __init__(self, node_id, sends_per_round):
        super().__init__(node_id)
        self.sends_per_round = sends_per_round
        self.log: list[list[tuple[int, str, int]]] = []

    def on_round(self, round_no, inbox):
        self.log.append([(m.sender, m.kind, m.payload) for m in inbox])
        if round_no >= len(self.sends_per_round):
            return []
        return [
            Message(self.node_id, receiver, kind, payload)
            for receiver, kind, payload in self.sends_per_round[round_no]
        ]

    def is_idle(self):
        return False


class SoAScriptedClass(SoAProtocolClass):
    """Replays the same plan as one SoA class; logs every node's inbox.

    The plan is flattened per round into one batch in canonical order
    (ascending sender, per-sender emission order) — exactly the flat
    buffer the engine packs from per-node outputs, so the executions must
    coincide bit for bit, drops and all.
    """

    def __init__(self, n, plan):
        super().__init__(n)
        self.log = {v: [] for v in range(n)}
        self._rounds = []
        for r in range(max(len(plan[v]) for v in plan)):
            senders, receivers, kinds, payloads = [], [], [], []
            for v in range(n):
                for receiver, kind, payload in plan[v][r] if r < len(plan[v]) else []:
                    senders.append(v)
                    receivers.append(receiver)
                    kinds.append(KINDS.code(kind))
                    payloads.append(payload)
            if senders:
                self._rounds.append(
                    MessageBatch(
                        np.array(senders, dtype=np.int64),
                        np.array(receivers, dtype=np.int64),
                        np.array(kinds, dtype=np.int64),
                        np.array(payloads, dtype=np.int64),
                    )
                )
            else:
                self._rounds.append(None)

    def on_round_soa(self, round_no, inbox):
        for v, msgs in enumerate(inbox.to_node_lists(self.n)):
            self.log[v].append(msgs)
        if round_no >= len(self._rounds):
            return None
        return self._rounds[round_no]

    def is_idle(self):
        return False


def run_workload(plan, node_cls, engine, capacity, net_seed, rounds=N_ROUNDS + 1):
    nodes = {v: node_cls(v, plan[v]) for v in sorted(plan)}
    net = SyncNetwork(
        nodes, capacity, np.random.default_rng(net_seed), ctx=RunContext.resolve(engine=engine)
    )
    for _ in range(rounds):
        net.run_round()
    logs = {v: nodes[v].log for v in nodes}
    return logs, net.metrics.as_dict()


def run_soa_workload(plan, capacity, net_seed, rounds=N_ROUNDS + 1):
    cls = SoAScriptedClass(N_NODES, plan)
    net = SyncNetwork(cls, capacity, np.random.default_rng(net_seed))
    for _ in range(rounds):
        net.run_round()
    return cls.log, net.metrics.as_dict()


CAPACITY = CapacityPolicy(max_send=6, max_receive=5)


class TestObjectNodeEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_legacy_and_vectorized_identical(self, seed):
        plan = make_plan(seed)
        logs_l, metrics_l = run_workload(plan, ScriptedNode, "legacy", CAPACITY, seed)
        logs_v, metrics_v = run_workload(plan, ScriptedNode, "vectorized", CAPACITY, seed)
        assert metrics_l == metrics_v
        for v in logs_l:
            # Exact sequences (stronger than the multiset requirement).
            assert logs_l[v] == logs_v[v]
            # And explicitly as multisets, the §1.1-level statement.
            for a, b in zip(logs_l[v], logs_v[v]):
                assert sorted(a) == sorted(b)

    @pytest.mark.parametrize("seed", range(5))
    def test_workloads_actually_exercise_drops(self, seed):
        plan = make_plan(seed)
        _, metrics = run_workload(plan, ScriptedNode, "vectorized", CAPACITY, seed)
        assert metrics["send_drops"] > 0
        assert metrics["receive_drops"] > 0


class TestSoAEquivalence:
    """The SoA tier replays the identical workloads — over-capacity
    senders, hot receivers, self-loops, mixed kinds — and must coincide
    exactly with the object oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_soa_matches_object_oracle(self, seed):
        plan = make_plan(seed)
        logs_obj, metrics_obj = run_workload(plan, ScriptedNode, "legacy", CAPACITY, seed)
        logs_soa, metrics_soa = run_soa_workload(plan, CAPACITY, seed)
        assert metrics_soa == metrics_obj
        assert logs_soa == logs_obj

    @pytest.mark.parametrize("seed", range(4))
    def test_soa_unbounded(self, seed):
        plan = make_plan(seed)
        cap = CapacityPolicy.unbounded()
        logs_obj, metrics_obj = run_workload(plan, ScriptedNode, "legacy", cap, seed)
        logs_soa, metrics_soa = run_soa_workload(plan, cap, seed)
        assert metrics_soa == metrics_obj
        assert logs_soa == logs_obj
        assert metrics_soa["send_drops"] == 0

    def test_soa_rejects_legacy_engine(self):
        cls = SoAScriptedClass(4, {v: [[]] for v in range(4)})
        with pytest.raises(ValueError, match="vectorized"):
            SyncNetwork(
                cls, CAPACITY, np.random.default_rng(0), ctx=RunContext.resolve(engine="legacy")
            )

    def test_soa_rejects_unsorted_senders(self):
        class Unsorted(SoAProtocolClass):
            def on_round_soa(self, round_no, inbox):
                return MessageBatch(
                    np.array([2, 1], dtype=np.int64),
                    np.array([0, 0], dtype=np.int64),
                    "ping",
                    np.array([1, 2], dtype=np.int64),
                )

        net = SyncNetwork(Unsorted(4), CAPACITY, np.random.default_rng(0))
        with pytest.raises(ValueError, match="ascending"):
            net.run_round()

    def test_soa_unknown_receiver_raises_same_error(self):
        class Stray(SoAProtocolClass):
            def on_round_soa(self, round_no, inbox):
                return MessageBatch(
                    np.array([0], dtype=np.int64),
                    np.array([999], dtype=np.int64),
                    "ping",
                    np.array([1], dtype=np.int64),
                )

        net = SyncNetwork(
            Stray(4), CapacityPolicy.unbounded(), np.random.default_rng(0)
        )
        with pytest.raises(KeyError, match="unknown node 999"):
            net.run_round()


class TestUnbounded:
    @pytest.mark.parametrize("seed", range(5))
    def test_unbounded_capacity_equivalence(self, seed):
        plan = make_plan(seed)
        cap = CapacityPolicy.unbounded()
        logs_l, metrics_l = run_workload(plan, ScriptedNode, "legacy", cap, seed)
        logs_v, metrics_v = run_workload(plan, ScriptedNode, "vectorized", cap, seed)
        assert metrics_l == metrics_v
        assert logs_l == logs_v
        assert metrics_l["send_drops"] == 0
        assert metrics_l["receive_drops"] == 0


class TestErrorEquivalence:
    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_unknown_receiver_raises_same_error(self, engine):
        plan = {v: [[(999, "ping", 1)]] if v == 0 else [[]] for v in range(4)}
        nodes = {v: ScriptedNode(v, plan[v]) for v in range(4)}
        net = SyncNetwork(
            nodes, CapacityPolicy.unbounded(), np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine)
        )
        with pytest.raises(KeyError, match="unknown node 999"):
            net.run_round()

    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_forged_sender_raises_on_both_engines(self, engine):
        class Forger(ProtocolNode):
            def on_round(self, round_no, inbox):
                return [Message(99, 1, "fake")]

        nodes = {0: Forger(0), 1: ScriptedNode(1, [[]])}
        net = SyncNetwork(
            nodes, CapacityPolicy.unbounded(), np.random.default_rng(0),
            ctx=RunContext.resolve(engine=engine)
        )
        with pytest.raises(ValueError, match="forge"):
            net.run_round()
