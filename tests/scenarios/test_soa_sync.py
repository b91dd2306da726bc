"""The columnar synchroniser: bit-for-bit equivalence + queue mechanics."""

import math

import numpy as np
import pytest

from repro.core.protocol_tree import run_rooting_under_asynchrony
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs.portgraph import PortGraph
from repro.net.asynchrony import run_with_asynchrony
from repro.net.batch import KINDS, MessageBatch
from repro.net.network import CapacityPolicy, SoAProtocolClass
from repro.net.soa import SoAInbox
from repro.scenarios.soa_sync import SoADelayQueue

SEEDS = range(12)


def overlay_like(n: int, seed: int) -> PortGraph:
    return PortGraph.ring_with_chords(n, delta=16, chords=2, seed=seed)


def _flood_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n)))) + 4


class TestBitForBitMatrix:
    """ISSUE 4 acceptance: the SoA synchroniser equals the per-node
    synchroniser *and* the synchronous execution under the same seed —
    round ledger and final overlay — over a >= 10-seed matrix."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_soa_sync_equals_per_node_and_synchronous(self, seed):
        n = 64 + 16 * (seed % 3)
        graph = overlay_like(n, seed=n + seed)
        fr = _flood_rounds(n)
        sync = run_soa_rooting(graph, fr, rng=np.random.default_rng(seed))
        per_node, rep_b = run_rooting_under_asynchrony(
            graph, fr, max_delay=5, rng=np.random.default_rng(seed), tier="object"
        )
        soa, rep_s = run_rooting_under_asynchrony(
            graph, fr, max_delay=5, rng=np.random.default_rng(seed), tier="soa"
        )
        for run in (per_node, soa):
            assert run.root == sync.root
            assert np.array_equal(run.parent, sync.parent)
            assert np.array_equal(run.depth, sync.depth)
            assert run.metrics.as_dict() == sync.metrics.as_dict()
            assert run.rounds == sync.rounds
        # The synchronisers also agree on the asynchronous accounting:
        # same per-delivered-message delay stream, same barrier clock.
        assert rep_s.logical_rounds == rep_b.logical_rounds
        assert rep_s.elapsed_time_units == rep_b.elapsed_time_units
        assert rep_s.observed_max_delay == rep_b.observed_max_delay
        assert rep_s.converged and rep_b.converged

    def test_dilation_accounting(self):
        graph = overlay_like(80, seed=1)
        _, report = run_rooting_under_asynchrony(
            graph, _flood_rounds(80), max_delay=7,
            rng=np.random.default_rng(0), tier="soa",
        )
        assert report.elapsed_time_units == report.logical_rounds * 7
        assert report.dilation == 7.0
        assert 1 <= report.observed_max_delay <= 7


class _SoABabbler(SoAProtocolClass):
    """Never quiesces: node 0 pings node 1 every round."""

    def on_round_soa(self, round_no, inbox):
        return MessageBatch(
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            "babble",
            np.array([round_no], dtype=np.int64),
        )

    def is_idle(self):
        return True  # quiescence still blocked by in-flight messages


class TestNonConvergence:
    def test_soa_run_raises_by_default(self):
        with pytest.raises(RuntimeError, match="did not quiesce"):
            run_with_asynchrony(
                _SoABabbler(4), CapacityPolicy.unbounded(),
                np.random.default_rng(0), max_delay=3, max_rounds=5,
            )

    def test_soa_run_flagged_when_opted_out(self):
        report, _ = run_with_asynchrony(
            _SoABabbler(4), CapacityPolicy.unbounded(),
            np.random.default_rng(0), max_delay=3, max_rounds=5,
            require_quiescence=False,
        )
        assert not report.converged
        assert report.logical_rounds == 5


class TestDelayQueue:
    KIND = KINDS.code("q")

    def _inbox(self, receivers, payloads, senders=None, payloads2=None):
        receivers = np.asarray(receivers, dtype=np.int64)
        if senders is None:
            senders = np.zeros_like(receivers)
        return SoAInbox(
            np.asarray(senders, dtype=np.int64),
            receivers,
            self.KIND,
            np.asarray(payloads, dtype=np.int64),
            None if payloads2 is None else np.asarray(payloads2, dtype=np.int64),
        )

    def test_release_preserves_receiver_sorted_order(self):
        queue = SoADelayQueue(8)
        inbox = self._inbox([1, 1, 3, 5], [10, 11, 12, 13], senders=[0, 2, 0, 4])
        queue.push(inbox, np.array([2, 2, 2, 2], dtype=np.int64))
        out = queue.release_until(2)
        assert len(queue) == 0
        assert out.receivers.tolist() == [1, 1, 3, 5]
        assert out.senders.tolist() == [0, 2, 0, 4]
        assert out.payloads.tolist() == [10, 11, 12, 13]
        assert out.kinds == self.KIND  # scalar fast path preserved

    def test_partial_release_by_time(self):
        queue = SoADelayQueue(8)
        queue.push(self._inbox([2, 4], [1, 2]), np.array([1, 5], dtype=np.int64))
        early = queue.release_until(1)
        assert early.receivers.tolist() == [2]
        assert len(queue) == 1
        late = queue.release_until(5)
        assert late.receivers.tolist() == [4]
        assert len(queue) == 0
        assert len(queue.release_until(100)) == 0

    def test_multi_push_interleaves_by_receiver(self):
        queue = SoADelayQueue(8)
        queue.push(self._inbox([1, 5], [10, 11]), np.array([3, 3], dtype=np.int64))
        queue.push(self._inbox([1, 3], [20, 21], senders=[7, 7]), np.array([3, 3], dtype=np.int64))
        out = queue.release_until(3)
        assert out.receivers.tolist() == [1, 1, 3, 5]
        # Stable: first push's receiver-1 message precedes the second's.
        assert out.payloads.tolist() == [10, 20, 21, 11]

    def test_second_lane_zero_fills_on_mix(self):
        queue = SoADelayQueue(8)
        queue.push(self._inbox([1], [10]), np.array([1], dtype=np.int64))
        queue.push(
            self._inbox([2], [20], payloads2=[99]), np.array([1], dtype=np.int64)
        )
        out = queue.release_until(1)
        assert out.payloads2.tolist() == [0, 99]

    def test_mixed_kinds_materialise(self):
        queue = SoADelayQueue(8)
        queue.push(self._inbox([1], [10]), np.array([1], dtype=np.int64))
        other = SoAInbox(
            np.array([0], dtype=np.int64),
            np.array([2], dtype=np.int64),
            KINDS.code("other"),
            np.array([20], dtype=np.int64),
        )
        queue.push(other, np.array([1], dtype=np.int64))
        out = queue.release_until(1)
        assert type(out.kinds) is np.ndarray
        assert out.kinds.tolist() == [self.KIND, KINDS.code("other")]

    def test_release_length_mismatch_raises(self):
        queue = SoADelayQueue(8)
        with pytest.raises(ValueError, match="release-time"):
            queue.push(self._inbox([1, 2], [1, 2]), np.array([1], dtype=np.int64))


class TestBarrierBoundary:
    """ISSUE 5 satellite: ``LinkDelay == barrier length`` is the inclusive
    boundary — released at exactly that barrier, never held or dropped —
    and anything *beyond* the barrier fails loudly under
    ``require_drain`` instead of starving the run."""

    KIND = KINDS.code("q")

    def _inbox(self, receivers, payloads):
        receivers = np.asarray(receivers, dtype=np.int64)
        return SoAInbox(
            np.zeros_like(receivers),
            receivers,
            self.KIND,
            np.asarray(payloads, dtype=np.int64),
        )

    def test_release_boundary_is_inclusive(self):
        queue = SoADelayQueue(4)
        queue.push(self._inbox([1, 2], [7, 8]), np.array([3, 3], dtype=np.int64))
        # A message whose release time equals the barrier goes out with it.
        out = queue.release_until(3, require_drain=True)
        assert out.payloads.tolist() == [7, 8]
        assert len(queue) == 0

    def test_delay_beyond_barrier_raises_clearly(self):
        queue = SoADelayQueue(4)
        queue.push(self._inbox([1, 2], [7, 8]), np.array([3, 4], dtype=np.int64))
        with pytest.raises(RuntimeError, match="beyond the synchroniser barrier"):
            queue.release_until(3, require_drain=True)

    def test_without_drain_requirement_messages_are_held_not_dropped(self):
        queue = SoADelayQueue(4)
        queue.push(self._inbox([1], [7]), np.array([5], dtype=np.int64))
        assert len(queue.release_until(4)) == 0
        assert len(queue) == 1
        assert queue.release_until(5).payloads.tolist() == [7]

    @pytest.mark.parametrize("max_delay", [1, 2, 7])
    def test_full_run_at_exact_barrier_matches_synchronous(self, max_delay):
        """End-to-end boundary value: every delay drawn equals at most the
        barrier (inclusive), so delayed rooting runs stay bit-for-bit the
        synchronous execution on both synchronisers for every barrier
        width — including 1, where *all* delays hit the boundary."""
        n = 96
        graph = overlay_like(n, seed=5)
        fr = _flood_rounds(n)
        sync = run_soa_rooting(graph, fr, rng=np.random.default_rng(3))
        for tier in ("object", "soa"):
            run, report = run_rooting_under_asynchrony(
                graph,
                fr,
                max_delay=max_delay,
                rng=np.random.default_rng(3),
                tier=tier,
            )
            assert np.array_equal(run.parent, sync.parent)
            assert run.metrics.as_dict() == sync.metrics.as_dict()
            assert report.observed_max_delay <= max_delay
            if max_delay == 1:
                assert report.observed_max_delay == 1


class TestDebugValidate:
    """ISSUE 6 satellite: ``REPRO_DEBUG_SOA`` turns the documented
    "concat never re-sorts" precondition into a checked assert — and the
    delay queue, whose internal buffer is legitimately segment-ordered,
    still works under it because only the *release* re-sorts."""

    KIND = KINDS.code("q")

    def _inbox(self, receivers, payloads):
        receivers = np.asarray(receivers, dtype=np.int64)
        return SoAInbox(
            np.zeros_like(receivers),
            receivers,
            self.KIND,
            np.asarray(payloads, dtype=np.int64),
        )

    def test_concat_rejects_unsorted_input_in_debug_mode(self, monkeypatch):
        import repro.net.soa as soa_mod

        monkeypatch.setattr(soa_mod, "DEBUG_VALIDATE", True)
        bad = self._inbox([5, 1], [1, 2])
        ok = self._inbox([1, 5], [1, 2])
        with pytest.raises(ValueError, match="not receiver-sorted"):
            SoAInbox.concat([ok, bad])
        out = SoAInbox.concat([ok, ok])
        assert out.receivers.tolist() == [1, 5, 1, 5]

    def test_concat_check_override_beats_module_flag(self, monkeypatch):
        import repro.net.soa as soa_mod

        bad = self._inbox([5, 1], [1, 2])
        monkeypatch.setattr(soa_mod, "DEBUG_VALIDATE", False)
        with pytest.raises(ValueError, match="not receiver-sorted"):
            SoAInbox.concat([bad], check=True)
        monkeypatch.setattr(soa_mod, "DEBUG_VALIDATE", True)
        assert SoAInbox.concat([bad], check=False).receivers.tolist() == [5, 1]

    def test_queue_rejects_unsorted_push_in_debug_mode(self, monkeypatch):
        import repro.net.soa as soa_mod

        monkeypatch.setattr(soa_mod, "DEBUG_VALIDATE", True)
        queue = SoADelayQueue(8)
        with pytest.raises(ValueError, match="push input is not receiver-sorted"):
            queue.push(self._inbox([5, 1], [1, 2]), np.array([1, 1], dtype=np.int64))

    def test_multi_push_release_still_resorts_under_debug(self, monkeypatch):
        # Three sorted pushes accumulate an internal buffer that is NOT
        # globally sorted ([1,5,1,3,0,2]); the queue's check=False opt-out
        # keeps debug mode from misfiring on it, and release re-sorts.
        import repro.net.soa as soa_mod

        monkeypatch.setattr(soa_mod, "DEBUG_VALIDATE", True)
        queue = SoADelayQueue(8)
        t = np.array([3, 3], dtype=np.int64)
        queue.push(self._inbox([1, 5], [10, 11]), t)
        queue.push(self._inbox([1, 3], [20, 21]), t)
        queue.push(self._inbox([0, 2], [30, 31]), t)
        out = queue.release_until(3, require_drain=True)
        assert out.receivers.tolist() == [0, 1, 1, 2, 3, 5]
        # Stable: push order preserved within the receiver-1 group.
        assert out.payloads.tolist() == [30, 10, 20, 31, 21, 11]

    def test_full_synchronised_run_passes_debug_validation(self, monkeypatch):
        import repro.net.soa as soa_mod

        monkeypatch.setattr(soa_mod, "DEBUG_VALIDATE", True)
        graph = overlay_like(64, seed=2)
        fr = _flood_rounds(64)
        sync = run_soa_rooting(graph, fr, rng=np.random.default_rng(1))
        run, report = run_rooting_under_asynchrony(
            graph, fr, max_delay=3, rng=np.random.default_rng(1), tier="soa"
        )
        assert np.array_equal(run.parent, sync.parent)
        assert report.converged
