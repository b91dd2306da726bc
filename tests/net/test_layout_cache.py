"""Delivery layout cache: reuse semantics and the alias-write hazard.

An early sort cache keyed the receiver permutation on array *identity*
and froze the cached view — but a write through a **different view of
the same base buffer** left the identity intact while changing the
values, silently reusing a stale permutation (misdelivery: the
"receiver-sorted" inbox no longer was).  The layout cache now verifies
every identity hit against a defensive copy taken at store time; a
mismatch forces a fresh sort.  With the cache off (``layout_reuse=False``)
every round sorts afresh and no column is frozen.  These tests pin the
alias-write behaviour with the cache on and off, the equality of cached
rounds with uncached ones, and the fault-masked hit: a round whose fault
hook drops messages is served from the cached permutation and must be
bit-for-bit the cache-off arm and the object tier.
"""

import numpy as np
import pytest

from repro.core.pipeline import rooting_flood_rounds
from repro.graphs.portgraph import PortGraph
from repro.net.batch import MessageBatch
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.obs import Tracer, capture
from repro.runtime import RunContext
from repro.scenarios import LinkDelay, MessageDrop, ScenarioSpec
from repro.scenarios.runner import run_rooting_scenario

N = 8


class Scripted(SoAProtocolClass):
    """Emits one prescribed batch per round and records its inboxes."""

    def __init__(self, n, script):
        super().__init__(n)
        self.script = script
        self.seen: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def on_round_soa(self, round_no, inbox):
        self.seen.append(
            (
                np.asarray(inbox.receivers).copy(),
                np.asarray(inbox.senders).copy(),
                np.asarray(inbox.payloads).copy(),
            )
        )
        if round_no < len(self.script):
            return self.script[round_no]()
        return None


def run_scripted(script, capacity=None, rounds=None, seed=0, layout_reuse=None):
    cls = Scripted(N, script)
    net = SyncNetwork(
        cls,
        capacity or CapacityPolicy.unbounded(),
        np.random.default_rng(seed),
        ctx=RunContext.resolve(layout_reuse=layout_reuse),
    )
    for _ in range(rounds if rounds is not None else len(script) + 1):
        net.run_round()
    return cls, net


def batch(rcv, snd, pay):
    return MessageBatch._raw(
        np.asarray(snd, dtype=np.int64),
        np.asarray(rcv, dtype=np.int64),
        0,
        np.asarray(pay, dtype=np.int64),
    )


@pytest.mark.parametrize("layout_reuse", [True, False])
class TestAliasWriteRegression:
    def test_alias_mutation_forces_fresh_sort_not_misdelivery(self, layout_reuse):
        # One scratch base; the protocol emits a *view* of it each round.
        base = np.array([1, 2, 3, 4], dtype=np.int64)
        view = base[:]
        snd = np.array([0, 1, 2, 3], dtype=np.int64)

        def r0():
            return batch(view, snd, [10, 11, 12, 13])

        def r1():  # identity-stable re-emission, values unchanged: a hit
            return batch(view, snd, [20, 21, 22, 23])

        def r2():  # mutate THROUGH THE BASE, then re-emit the same view
            base[0] = 6
            return batch(view, snd, [30, 31, 32, 33])

        cls, _ = run_scripted([r0, r1, r2], layout_reuse=layout_reuse)

        # Control: identical values, fresh arrays every round (no cache).
        control = [
            lambda: batch([1, 2, 3, 4], [0, 1, 2, 3], [10, 11, 12, 13]),
            lambda: batch([1, 2, 3, 4], [0, 1, 2, 3], [20, 21, 22, 23]),
            lambda: batch([6, 2, 3, 4], [0, 1, 2, 3], [30, 31, 32, 33]),
        ]
        ref, _ = run_scripted(control)

        assert len(cls.seen) == len(ref.seen) == 4
        for got, want in zip(cls.seen, ref.seen):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        # The round after the alias write in particular: receiver-sorted
        # (a stale permutation would have left [6, 2, 3, 4] unsorted).
        final_rcv = cls.seen[3][0]
        assert np.array_equal(final_rcv, np.sort(final_rcv))
        assert 6 in final_rcv.tolist()

    def test_alias_write_to_unknown_node_raises(self, layout_reuse):
        # A stale hit would also skip receiver validation: the write
        # must surface as the unknown-node error, not a shape error.
        base = np.array([1, 2, 3, 4], dtype=np.int64)
        view = base[:]
        snd = np.array([0, 1, 2, 3], dtype=np.int64)

        def r1():
            base[0] = 99
            return batch(view, snd, [30, 31, 32, 33])

        with pytest.raises(KeyError, match="unknown node 99"):
            run_scripted(
                [lambda: batch(view, snd, [10, 11, 12, 13]), r1],
                layout_reuse=layout_reuse,
            )

    def test_sender_alias_mutation_revalidates_canonical_order(self, layout_reuse):
        # _deliver_soa skips its ascending check on an identity-stable
        # sender column; if an alias write breaks the order underneath,
        # the guard must re-run the check and raise, not deliver.
        snd_base = np.array([0, 1, 2, 3], dtype=np.int64)
        snd_view = snd_base[:]
        rcv = np.array([1, 2, 3, 0], dtype=np.int64)

        def r0():
            return batch(rcv, snd_view, [1, 2, 3, 4])

        def r1():
            snd_base[:] = [2, 1, 0, 3]  # no longer ascending
            return batch(rcv, snd_view, [5, 6, 7, 8])

        cls = Scripted(N, [r0, r1])
        net = SyncNetwork(
            cls,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            ctx=RunContext.resolve(layout_reuse=layout_reuse),
        )
        net.run_round()
        with pytest.raises(ValueError, match="sorted ascending"):
            net.run_round()


def test_direct_write_to_cached_column_still_raises():
    # The frozen-view guard of the old cache is kept: mutating the
    # emitted column itself errors immediately.  Freezing belongs to the
    # cache, so this holds with the cache on only.
    rcv = np.array([1, 2, 3], dtype=np.int64)
    snd = np.array([0, 1, 2], dtype=np.int64)
    run_scripted([lambda: batch(rcv, snd, [1, 2, 3])], layout_reuse=True)
    with pytest.raises(ValueError, match="read-only"):
        rcv[0] = 5


def test_cache_off_freezes_nothing():
    # With the cache off no round stores an entry, so the emitted
    # columns stay the protocol's to write.
    rcv = np.array([1, 2, 3], dtype=np.int64)
    snd = np.array([0, 1, 2], dtype=np.int64)
    script = [lambda: batch(rcv, snd, [1, 2, 3])] * 2
    run_scripted(script, layout_reuse=False)
    rcv[0] = 5
    snd[0] = 1
    assert rcv.flags.writeable and snd.flags.writeable


def _steady_state_script(fresh: bool):
    """Five rounds of flooding-shaped traffic: stable receiver/sender
    columns, changing payloads."""
    if fresh:
        return [
            (lambda r=r: batch([1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [r * 10 + i for i in range(5)]))
            for r in range(5)
        ]
    rcv = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    snd = np.array([0, 1, 2, 3, 4], dtype=np.int64)
    return [
        (lambda r=r: batch(rcv, snd, [r * 10 + i for i in range(5)]))
        for r in range(5)
    ]


class TestLayoutReuseEquality:
    def test_cached_rounds_equal_fresh_rounds(self):
        cached, net_c = run_scripted(_steady_state_script(fresh=False))
        fresh, net_f = run_scripted(_steady_state_script(fresh=True))
        for got, want in zip(cached.seen, fresh.seen):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert net_c.metrics.as_dict() == net_f.metrics.as_dict()

    def test_cache_off_is_equal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_LAYOUT_REUSE", "0")
        off, net_off = run_scripted(_steady_state_script(fresh=False))
        monkeypatch.delenv("REPRO_SOA_LAYOUT_REUSE")
        reuse, net_r = run_scripted(_steady_state_script(fresh=False))
        for got, want in zip(off.seen, reuse.seen):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert net_off.metrics.as_dict() == net_r.metrics.as_dict()

    def test_truncating_rounds_match_with_and_without_reuse(self, monkeypatch):
        # Capacity binds ⇒ fresh post-truncation arrays ⇒ the cache must
        # neither store stale state nor perturb the RNG discipline.
        def fan_in():
            return batch(
                np.full(6, 7, dtype=np.int64),
                np.array([0, 1, 2, 3, 4, 5], dtype=np.int64),
                np.arange(6),
            )

        cap = CapacityPolicy(max_send=None, max_receive=3)
        with_reuse, net_w = run_scripted([fan_in] * 4, capacity=cap, seed=5)
        monkeypatch.setenv("REPRO_SOA_LAYOUT_REUSE", "0")
        without, net_o = run_scripted([fan_in] * 4, capacity=cap, seed=5)
        for got, want in zip(with_reuse.seen, without.seen):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert net_w.metrics.as_dict() == net_o.metrics.as_dict()
        assert net_w.metrics.receive_drops > 0

    def test_segments_attached_by_delivery_match_lazy_scan(self):
        rcv = np.array([1, 1, 3, 5, 5, 5], dtype=np.int64)
        snd = np.array([0, 2, 2, 3, 4, 6], dtype=np.int64)
        cls, net = run_scripted(
            [lambda: batch(rcv, snd, np.arange(6))], rounds=1
        )
        inbox = net.take_staged_soa_inbox()
        starts, nodes = inbox.segments()
        lazy = SoAInbox(
            np.asarray(inbox.senders),
            np.asarray(inbox.receivers),
            inbox.kinds,
            np.asarray(inbox.payloads),
        ).segments()
        assert np.array_equal(starts, lazy[0])
        assert np.array_equal(nodes, lazy[1])
        assert nodes.tolist() == [1, 3, 5]
        assert starts.tolist() == [0, 2, 3]


# ---------------------------------------------------------------------------
# Masked layout hits: fault-hook drops served from the cached permutation.
# ---------------------------------------------------------------------------

# One round's entry columns: ascending senders, no self-addressed row.
# Node 1 sends three messages, node 2 receives five (rows 1, 2, 5, 8, 11).
ENTRY_RCV = (1, 2, 2, 3, 5, 2, 7, 0, 2, 4, 1, 2)
ENTRY_SND = (0, 0, 1, 1, 1, 3, 4, 5, 5, 6, 7, 7)
ROUNDS = 6


def _payload(round_no, m):
    return np.arange(m, dtype=np.int64) + 100 * round_no


class StableEmitter(SoAProtocolClass):
    """Re-emits the *same* receiver/sender objects every round.

    ``receivers(r)`` gives round ``r``'s receiver values; when they differ
    from the emitted view's, they are written through the view's base —
    the alias write the layout cache must detect.
    """

    def __init__(self, n, receivers, senders, rounds):
        super().__init__(n)
        self.receivers = receivers
        self.rounds = rounds
        self.base = np.array(receivers(0), dtype=np.int64)
        self.view = self.base[:]
        self.snd = np.array(senders, dtype=np.int64)
        self.log: list[tuple[int, int, int, int]] = []

    def on_round_soa(self, round_no, inbox):
        self.log.extend(
            (round_no, int(r), int(s), int(p))
            for r, s, p in zip(inbox.receivers, inbox.senders, inbox.payloads)
        )
        if round_no >= self.rounds:
            return None
        values = np.asarray(self.receivers(round_no), dtype=np.int64)
        if not np.array_equal(values, self.view):
            self.base[:] = values
        return batch(self.view, self.snd, _payload(round_no, self.snd.shape[0]))


class ObjectTwin(ProtocolNode):
    """The same traffic as per-message objects (the object-tier oracle)."""

    def __init__(self, node_id, receivers, senders, rounds, log):
        super().__init__(node_id)
        self.receivers = receivers
        self.rows = np.flatnonzero(np.asarray(senders) == node_id)
        self.m = len(senders)
        self.rounds = rounds
        self.log = log

    def on_round(self, round_no, inbox):
        self.log.extend(
            (round_no, self.node_id, m.sender, m.payload) for m in inbox
        )
        if round_no >= self.rounds:
            return []
        rcv = np.asarray(self.receivers(round_no))
        pay = _payload(round_no, self.m)
        return [
            Message(self.node_id, int(rcv[i]), "x", int(pay[i])) for i in self.rows
        ]


def _run_masked(hook, *, receivers=None, capacity=None, mode="reuse", seed=3):
    """One run of the entry traffic under ``hook``.

    ``mode`` is ``"reuse"`` (SoA, layout cache on, traced), ``"sort"``
    (SoA, cache off: every round sorts) or ``"object"`` (per-message nodes on
    the legacy engine).  Returns the delivery log, ``metrics.as_dict()``,
    the generator state after the run and the per-round layout hits.
    """
    receivers = receivers or (lambda r: ENTRY_RCV)
    capacity = capacity or CapacityPolicy.unbounded()
    rng = np.random.default_rng(seed)
    if mode == "object":
        log: list = []
        nodes = {
            v: ObjectTwin(v, receivers, ENTRY_SND, ROUNDS, log) for v in range(N)
        }
        ctx = RunContext.resolve(engine="legacy", fault_hook=hook)
        net = SyncNetwork(nodes, capacity, rng, ctx=ctx)
        tracer = None
    else:
        cls = StableEmitter(N, receivers, ENTRY_SND, ROUNDS)
        log = cls.log
        tracer = Tracer() if mode == "reuse" else None
        ctx = RunContext.resolve(
            layout_reuse=mode == "reuse", fault_hook=hook, tracer=tracer
        )
        net = SyncNetwork(cls, capacity, rng, ctx=ctx)
    for _ in range(ROUNDS + 1):
        net.run_round()
    hits = None
    if tracer is not None:
        hits = net.metrics.per_round.layout_hits()[:ROUNDS].tolist()
    return log, net.metrics.as_dict(), rng.bit_generator.state, hits


def _assert_masked_matches_oracles(hook, **kwargs):
    """The masked arm is bit-for-bit the cache-off arm and the object
    tier; returns its per-round layout hits and metrics."""
    reuse = _run_masked(hook, mode="reuse", **kwargs)
    for mode in ("sort", "object"):
        other = _run_masked(hook, mode=mode, **kwargs)
        assert reuse[0] == other[0], mode
        assert reuse[1] == other[1], mode
        assert reuse[2] == other[2], mode
    return reuse[3], reuse[1]


def _every_third(round_no, senders, receivers):
    return (np.arange(senders.shape[0]) + round_no) % 3 != 0


HOOKS = {
    "bool-mask": _every_third,
    "keep-indices": lambda r, s, d: np.flatnonzero(_every_third(r, s, d)),
    "drops-nothing": lambda r, s, d: np.ones(s.shape[0], dtype=bool),
    "drops-everything": lambda r, s, d: np.zeros(s.shape[0], dtype=bool),
    "drops-a-segment": lambda r, s, d: d != 2,
}


class TestMaskedLayoutHit:
    @pytest.mark.parametrize("name", sorted(HOOKS))
    def test_equals_sort_only_arm_and_object_tier(self, name):
        hits, metrics = _assert_masked_matches_oracles(HOOKS[name])
        if name == "drops-everything":
            # Nothing is delivered, so nothing is sorted or stored.
            assert hits == [0] * ROUNDS
            assert metrics["total_messages"] == 0
        else:
            # Round 0 sorts and stores the entry columns; every later
            # round re-emits them and is served from the cached layout.
            assert hits == [0] + [1] * (ROUNDS - 1)
        if name != "drops-nothing":
            assert metrics["fault_drops"] > 0

    def test_pristine_and_masked_rounds_interleave(self):
        # None, masked, drop-nothing, a whole segment, everything, masked:
        # a layout stored by a masked round serves a pristine one and back.
        cycle = [
            lambda r, s, d: None,
            _every_third,
            HOOKS["drops-nothing"],
            HOOKS["drops-a-segment"],
            HOOKS["drops-everything"],
            HOOKS["keep-indices"],
        ]
        hits, metrics = _assert_masked_matches_oracles(
            lambda r, s, d: cycle[r % len(cycle)](r, s, d)
        )
        # The drop-everything round delivers nothing and reads no layout.
        assert hits == [0, 1, 1, 1, 0, 1]
        assert metrics["fault_drops"] > 0

    def test_capacity_binding_after_faults_falls_back(self):
        # max_send=2 binds on node 1 unless row 2 is dropped; max_receive
        # =3 binds on node 2 unless two of its five rows are dropped.
        drops = {0: [1, 2, 5], 1: [0], 2: [2]}

        def hook(round_no, senders, receivers):
            keep = np.ones(senders.shape[0], dtype=bool)
            keep[drops[round_no % 3]] = False
            return keep

        hits, metrics = _assert_masked_matches_oracles(
            hook, capacity=CapacityPolicy(max_send=2, max_receive=3)
        )
        # Only the rounds no capacity binds in are served from the cache.
        assert hits == [0, 0, 0, 1, 0, 0]
        assert metrics["send_drops"] > 0
        assert metrics["receive_drops"] > 0

    def test_alias_write_between_faulty_rounds_forces_fresh_sort(self):
        moved = (1, 2, 2, 6, 5, 2, 7, 0, 2, 4, 1, 2)  # row 3: 1 -> 6

        hits, _ = _assert_masked_matches_oracles(
            _every_third, receivers=lambda r: ENTRY_RCV if r < 3 else moved
        )
        assert hits == [0, 1, 1, 0, 1, 1]

    def test_dropped_invalid_receiver_is_silent(self):
        bad = (1, 2, 2, 99, 5, 2, 7, 0, 2, 4, 1, 2)

        def hook(round_no, senders, receivers):
            return _every_third(round_no, senders, receivers) & (receivers < N)

        hits, metrics = _assert_masked_matches_oracles(
            hook, receivers=lambda r: bad
        )
        # An out-of-range entry column is never sorted or cached.
        assert hits == [0] * ROUNDS
        assert metrics["fault_drops"] > 0

    @pytest.mark.parametrize("mode", ["reuse", "sort", "object"])
    def test_kept_invalid_receiver_raises(self, mode):
        bad = (1, 2, 2, 99, 5, 2, 7, 0, 2, 4, 1, 2)

        def hook(round_no, senders, receivers):
            keep = np.ones(senders.shape[0], dtype=bool)
            keep[0] = False
            return keep

        # Round 0 stores a valid layout; the bad receiver appears after.
        with pytest.raises(KeyError, match="unknown node 99"):
            _run_masked(
                hook, receivers=lambda r: ENTRY_RCV if r < 2 else bad, mode=mode
            )


class TestFaultyScenarioHitsTheCache:
    """The flood of a delayed, lossy rooting scenario re-emits one pair of
    columns every round while the hook drops some of them; those rounds
    must be served from the cached layout.  Every equality test above
    would still pass if they silently re-sorted."""

    def test_lossy_flood_rounds_hit(self):
        graph = PortGraph.ring_with_chords(256, delta=16, chords=2, seed=4)
        spec = ScenarioSpec(
            name="lossy", delay=LinkDelay(2), drop=MessageDrop(0.05), fault_seed=4
        )
        with capture() as tracer:
            row = run_rooting_scenario(graph, spec, seed=4, tier="soa")
        assert row["converged"] and row["spanned"]
        (net,) = tracer.tables_of("net")
        hits = net.column("layout_hit")
        faulty = net.column("fault_drops") > 0
        flood = rooting_flood_rounds(graph.n)
        # Round 0 stores the flood layout; the remaining flood rounds
        # re-emit it, each with some messages lost.
        assert faulty[1:flood].all()
        assert hits[1:flood].all()


def test_hook_sees_frozen_cached_columns():
    # From the second round on, the hook is shown the cached entry
    # columns themselves: writing to them fails instead of corrupting
    # the layout the round is served from.
    def hook(round_no, senders, receivers):
        if round_no == 1:
            receivers[0] = 5
        return _every_third(round_no, senders, receivers)

    with pytest.raises(ValueError, match="read-only"):
        _run_masked(hook)
