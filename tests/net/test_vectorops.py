"""The grouping primitives of ``repro.net.vectorops``.

``group_argsort`` is an LSD radix sort over 16-bit digits whose contract
is *exactly* ``np.argsort(values, kind="stable")`` for values in
``[0, bound)``: each digit regime (one digit, two digits, the stable
fallback above ``2**32``) is checked against numpy over random seeds and
at its edges, and out-of-range values must raise instead of wrapping in
the ``uint16`` digit cast.

``segmented_keep_indices`` is checked against the searchsorted /
``np.sort`` formulation it replaced: same kept indices and the same
generator state afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.vectorops import group_argsort, segmented_keep_indices

SEEDS = range(8)
#: One bound per digit regime, with the largest values each regime takes.
REGIMES = {
    "one-digit": 2**16,
    "two-digit": 2**32,
    "fallback": 2**40,
}


def _reference(values: np.ndarray) -> np.ndarray:
    return np.argsort(values, kind="stable")


def _reference_keep(groups: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """The former ``segmented_keep_indices``: whole-column searchsorted
    group starts and a final ``np.sort`` of the kept indices."""
    groups = np.asarray(groups)
    m = groups.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    perm = rng.permutation(m)
    shuffled = groups[perm]
    order = np.argsort(shuffled, kind="stable")
    sorted_groups = shuffled[order]
    group_start = np.searchsorted(sorted_groups, sorted_groups, side="left")
    rank_in_group = np.arange(m) - group_start
    keep = rank_in_group < cap
    return np.sort(perm[order[keep]])


class TestGroupArgsort:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_stable_argsort(self, regime, seed):
        bound = REGIMES[regime]
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5000))
        # Few distinct labels (long ties) and the full range both occur.
        labels = rng.integers(0, bound, size=int(rng.integers(1, 64)))
        values = labels[rng.integers(0, labels.shape[0], size=m)]
        values[rng.integers(0, m)] = bound - 1
        np.testing.assert_array_equal(group_argsort(values, bound), _reference(values))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense_labels_below_bound(self, seed):
        # Labels far below a two-digit bound: the high digit is all zero.
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1000, size=3000)
        np.testing.assert_array_equal(group_argsort(values, 2**20), _reference(values))

    @pytest.mark.parametrize("bound", [1, 2**16, 2**16 + 1, 2**32, 2**32 + 1])
    @pytest.mark.parametrize("m", [0, 1, 2, 257])
    def test_edge_bounds(self, bound, m):
        rng = np.random.default_rng(bound + m)
        values = rng.integers(0, bound, size=m)
        if m:
            values[m // 2] = bound - 1
        out = group_argsort(values, bound)
        np.testing.assert_array_equal(out, _reference(values))
        assert out.dtype == np.int64

    @pytest.mark.parametrize("bound", [1, 7, 2**16 + 1, 2**32 + 1])
    @pytest.mark.parametrize("shape", ["equal", "sorted", "reversed"])
    def test_structured_inputs(self, bound, shape):
        m = 1000
        if shape == "equal":
            values = np.full(m, bound - 1, dtype=np.int64)
        else:
            values = np.linspace(0, bound - 1, m).astype(np.int64)
            if shape == "reversed":
                values = values[::-1].copy()
        np.testing.assert_array_equal(group_argsort(values, bound), _reference(values))

    def test_narrow_input_dtype(self):
        values = np.array([3, 1, 2, 1, 0, 3], dtype=np.int32)
        np.testing.assert_array_equal(group_argsort(values, 4), _reference(values))

    @pytest.mark.parametrize("bound", [5, 2**16, 2**32, 2**40])
    def test_negative_value_raises(self, bound):
        values = np.array([0, 3, -2, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="-2"):
            group_argsort(values, bound)

    @pytest.mark.parametrize("bound", [5, 2**16, 2**32, 2**40])
    def test_value_at_bound_raises(self, bound):
        values = np.array([0, bound, 1], dtype=np.int64)
        with pytest.raises(ValueError, match=str(bound)):
            group_argsort(values, bound)

    def test_value_that_would_wrap_raises(self):
        # 2**16 + 3 casts to uint16 3 — it must not sort as label 3.
        values = np.array([2**16 + 3, 3, 0], dtype=np.int64)
        with pytest.raises(ValueError, match=str(2**16 + 3)):
            group_argsort(values, 2**16)


class TestSegmentedKeepIndices:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_and_generator_state(self, seed):
        gen = np.random.default_rng(1000 + seed)
        m = int(gen.integers(0, 3000))
        num_groups = int(gen.integers(1, 400))
        groups = gen.integers(0, num_groups, size=m)
        cap = int(gen.integers(0, 12))
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        got = segmented_keep_indices(groups, cap, rng_new)
        want = _reference_keep(groups, cap, rng_ref)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int64
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("offset", [-(2**40), -7, 0, 2**33])
    def test_any_integer_labels(self, offset):
        # Labels need not start at 0 or fit a digit: only their grouping
        # matters, as in the reference.
        gen = np.random.default_rng(5)
        groups = gen.integers(0, 50, size=2000) * 3 + offset
        got = segmented_keep_indices(groups, 4, np.random.default_rng(9))
        want = _reference_keep(groups, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(got, want)

    def test_empty_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        out = segmented_keep_indices(np.empty(0, dtype=np.int64), 2, rng)
        assert out.shape == (0,) and out.dtype == np.int64
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("cap", [0, 1, 5, 10_000])
    def test_cap_extremes(self, cap):
        groups = np.repeat(np.arange(30), 40)
        got = segmented_keep_indices(groups, cap, np.random.default_rng(cap))
        want = _reference_keep(groups, cap, np.random.default_rng(cap))
        np.testing.assert_array_equal(got, want)
        assert got.shape[0] == 30 * min(cap, 40)
