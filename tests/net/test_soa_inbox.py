"""``SoAInbox.min_by_receiver``: the per-receiver fold of the SoA tier.

The flooding protocols reduce a whole round with one
``minimum.reduceat`` over the receiver segments.  The fold must equal a
per-receiver Python minimum whether the segments are memoised or handed
in by the delivery tail, and a values array that is not parallel to the
inbox must raise instead of folding into the wrong receiver.
"""

import numpy as np
import pytest

from repro.net.network import _segments
from repro.net.soa import SoAInbox


def inbox_of(receivers, segments=None) -> SoAInbox:
    receivers = np.asarray(receivers, dtype=np.int64)
    m = receivers.shape[0]
    return SoAInbox(
        np.zeros(m, dtype=np.int64),
        receivers,
        0,
        np.zeros(m, dtype=np.int64),
        segments=segments,
    )


def python_minima(receivers, values) -> dict[int, int]:
    out: dict[int, int] = {}
    for r, v in zip(receivers.tolist(), values.tolist()):
        out[r] = min(out.get(r, v), v)
    return out


class TestMinByReceiver:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_receiver_python_minimum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        receivers = np.sort(rng.integers(0, n, int(rng.integers(1, 200))))
        values = rng.integers(-1000, 1000, receivers.shape[0])
        nodes, mins = inbox_of(receivers).min_by_receiver(values)
        expected = python_minima(receivers, values)
        assert nodes.tolist() == sorted(expected)
        assert mins.tolist() == [expected[v] for v in sorted(expected)]

    def test_empty_inbox(self):
        nodes, mins = SoAInbox.empty().min_by_receiver(np.empty(0, dtype=np.int64))
        assert nodes.shape == (0,)
        assert mins.shape == (0,)

    @pytest.mark.parametrize("seed", range(4))
    def test_handed_in_segments_fold_like_memoised(self, seed):
        rng = np.random.default_rng(seed)
        receivers = np.sort(rng.integers(0, 25, 120))
        values = rng.integers(0, 10**6, receivers.shape[0])
        memo = inbox_of(receivers).min_by_receiver(values)
        # The delivery tail hands in segments cut from its bincount.
        segments = _segments(np.bincount(receivers))
        handed = inbox_of(receivers, segments=segments).min_by_receiver(values)
        assert np.array_equal(memo[0], handed[0])
        assert np.array_equal(memo[1], handed[1])

    def test_long_values_array_raises(self):
        # Without the check, reduceat folds the extra -100 into receiver 1.
        inbox = inbox_of([0, 0, 1])
        with pytest.raises(ValueError, match="length 4.*3 rows"):
            inbox.min_by_receiver(np.array([5, 3, 7, -100], dtype=np.int64))

    def test_short_values_array_raises(self):
        inbox = inbox_of([0, 0, 1, 2])
        with pytest.raises(ValueError, match="length 2.*4 rows"):
            inbox.min_by_receiver(np.array([5, 3], dtype=np.int64))

    def test_values_for_an_empty_inbox_raise(self):
        with pytest.raises(ValueError, match="length 1.*0 rows"):
            SoAInbox.empty().min_by_receiver(np.array([1], dtype=np.int64))
