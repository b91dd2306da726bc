"""Delivery layout cache: reuse semantics and the alias-write hazard.

ISSUE 6's first bugfix satellite: the old sort cache keyed the receiver
permutation on array *identity* and froze the cached view — but a write
through a **different view of the same base buffer** left the identity
intact while changing the values, silently reusing a stale permutation
(misdelivery: the "receiver-sorted" inbox no longer was).  The layout
cache now verifies every identity hit against a defensive copy taken at
store time; a mismatch forces a fresh sort.  These tests pin that down,
plus the equality of cached rounds with uncached ones.
"""

import numpy as np
import pytest

from repro.net.batch import MessageBatch
from repro.net.network import CapacityPolicy, SyncNetwork
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.runtime import RunContext

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


def run_scripted(script, capacity=None, rounds=None, seed=0, workers=None):
    cls = Scripted(N, script)
    net = SyncNetwork(
        cls,
        capacity or CapacityPolicy.unbounded(),
        np.random.default_rng(seed),
        ctx=RunContext.resolve(workers=workers),
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


class TestAliasWriteRegression:
    def test_alias_mutation_forces_fresh_sort_not_misdelivery(self):
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

        cls, _ = run_scripted([r0, r1, r2])

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

    def test_direct_write_to_cached_column_still_raises(self):
        # The frozen-view guard of the old cache is kept: mutating the
        # emitted column itself errors immediately.
        rcv = np.array([1, 2, 3], dtype=np.int64)
        snd = np.array([0, 1, 2], dtype=np.int64)
        run_scripted([lambda: batch(rcv, snd, [1, 2, 3])])
        with pytest.raises(ValueError, match="read-only"):
            rcv[0] = 5

    def test_sender_alias_mutation_revalidates_canonical_order(self):
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
            cls, CapacityPolicy.unbounded(), np.random.default_rng(0)
        )
        net.run_round()
        with pytest.raises(ValueError, match="sorted ascending"):
            net.run_round()


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

    def test_legacy_cache_mode_is_equal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_LAYOUT_REUSE", "0")
        legacy, net_l = run_scripted(_steady_state_script(fresh=False))
        monkeypatch.delenv("REPRO_SOA_LAYOUT_REUSE")
        reuse, net_r = run_scripted(_steady_state_script(fresh=False))
        for got, want in zip(legacy.seen, reuse.seen):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert net_l.metrics.as_dict() == net_r.metrics.as_dict()

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
