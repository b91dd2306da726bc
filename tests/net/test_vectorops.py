"""The grouping primitives of ``repro.net.vectorops``.

``group_argsort``'s contract is *exactly* ``np.argsort(values,
kind="stable")`` for integer values in ``[0, bound)``.  It takes one of
four branches — a packed-key ``uint32`` sort (the largest label's bits
plus the index bits fit 32), a one-digit ``uint16`` radix sort
(``bound <= 2**16`` and ``m < 2**19``), a packed-key ``int64`` sort
(everything else that fits), and numpy's stable sort (labels too large
to shift the index in) — and each is checked against numpy over random
seeds and at its edges.  Out-of-range values must raise instead of
wrapping in a cast, and float labels must raise instead of truncating.

``segmented_keep_indices`` is checked against the searchsorted /
``np.sort`` formulation it replaced: same kept indices and the same
generator state afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import vectorops
from repro.net.vectorops import group_argsort, segmented_keep_indices

SEEDS = range(8)
#: ``(bound, m_lo, m_hi)`` per branch, with the largest values each
#: branch takes: radix needs more than 16 index bits to miss the 32-bit
#: key, the others hold ``m < 5000`` (so ``bits <= 13``).
REGIMES = {
    "packed32": (2**16, 1, 5000),
    "radix": (2**16, 2**16 + 1, 2**17),
    "packed": (2**40, 1, 5000),
    "fallback": (2**62, 1, 5000),
}
#: The radix/packed crossover in item count.
PACKED_M = 2**19


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
        bound, m_lo, m_hi = REGIMES[regime]
        rng = np.random.default_rng(seed)
        m = int(rng.integers(m_lo, m_hi))
        # Few distinct labels (long ties) and the full range both occur.
        labels = rng.integers(0, bound, size=int(rng.integers(1, 64)))
        values = labels[rng.integers(0, labels.shape[0], size=m)]
        values[rng.integers(0, m)] = bound - 1
        out = group_argsort(values, bound)
        np.testing.assert_array_equal(out, _reference(values))
        assert out.dtype == np.int64

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense_labels_below_bound(self, seed):
        # Labels far below a bound past the radix range (packed32 branch).
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

    @pytest.mark.parametrize("m", [2**14, PACKED_M])
    def test_int32_widened_before_shift(self, m):
        # int32 labels near 2**31 overflow int32 once shifted by 14+ bits.
        rng = np.random.default_rng(m)
        values = rng.integers(2**31 - 50, 2**31, size=m).astype(np.int32)
        np.testing.assert_array_equal(group_argsort(values, 2**31), _reference(values))

    @pytest.mark.parametrize(
        ("bound", "m"),
        [
            (2**16, PACKED_M - 1),  # the largest radix call
            (2**16, PACKED_M),  # the smallest packed call by size
            (2**16 + 1, 3),  # a packed32 call with a bound past the digit
            (2**16 + 1, PACKED_M - 1),
            (2**16 + 1, PACKED_M),
        ],
    )
    def test_crossover_edges(self, bound, m):
        rng = np.random.default_rng(bound ^ m)
        values = rng.integers(0, min(bound, 500), size=m)
        values[rng.integers(0, m)] = bound - 1
        np.testing.assert_array_equal(group_argsort(values, bound), _reference(values))

    @pytest.mark.parametrize("m", [2, 1000, 4096, 4097])
    @pytest.mark.parametrize("over", [False, True])
    def test_shift_overflow_edge(self, m, over):
        # The packed key holds labels below 2**(63 - bits); from there on
        # the stable sort takes over.
        limit = 2 ** (63 - (m - 1).bit_length())
        rng = np.random.default_rng(m)
        values = limit - 1 - rng.integers(0, 3, size=m)
        values[m // 2] = limit if over else limit - 1
        np.testing.assert_array_equal(group_argsort(values, 2**63 - 1), _reference(values))

    @staticmethod
    def _branch(monkeypatch, values, bound):
        """Run ``group_argsort`` and name the branch it took, from spies
        on ``np.argsort`` and the packed-key helper."""
        calls = []
        real_argsort, real_packed = np.argsort, vectorops._packed_argsort

        def spy_argsort(a, *args, **kwargs):
            calls.append(("argsort", a.dtype))
            return real_argsort(a, *args, **kwargs)

        def spy_packed(keyed, bits):
            calls.append(("packed", keyed.dtype))
            return real_packed(keyed, bits)

        monkeypatch.setattr(np, "argsort", spy_argsort)
        monkeypatch.setattr(vectorops, "_packed_argsort", spy_packed)
        got = group_argsort(values, bound)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, _reference(values))
        assert got.dtype == np.int64
        names = {
            ("packed", np.dtype(np.uint32)): "packed32",
            ("argsort", np.dtype(np.uint16)): "radix",
            ("packed", np.dtype(np.int64)): "packed",
            ("argsort", values.dtype): "fallback",
        }
        assert len(calls) == 1, calls
        return names[calls[0]]

    @pytest.mark.parametrize(
        ("bound", "m", "branch"),
        [
            (2**16, 2**12, "packed32"),
            (2**16 + 1, 100, "packed32"),
            (2**16, PACKED_M - 1, "radix"),
            (2**16, PACKED_M, "packed"),
            (2**40, 100, "packed"),
            (2**62, 100, "fallback"),
        ],
    )
    def test_branch_taken(self, monkeypatch, bound, m, branch):
        rng = np.random.default_rng(m)
        values = rng.integers(0, bound, size=m)
        values[m // 2] = bound - 1
        assert self._branch(monkeypatch, values, bound) == branch

    @pytest.mark.parametrize(
        ("bound", "m", "label_bits", "branch"),
        [
            # 13 index bits: 19 label bits make a 32-bit key, 20 a 33-bit one.
            (2**20, 2**12 + 1, 19, "packed32"),
            (2**20, 2**12 + 1, 20, "packed"),
            # 17 index bits within the digit: the 33-bit key falls back
            # to the radix.
            (2**16, 2**17, 15, "packed32"),
            (2**16, 2**17, 16, "radix"),
        ],
    )
    def test_key_width_edges(self, monkeypatch, bound, m, label_bits, branch):
        rng = np.random.default_rng(m + label_bits)
        values = rng.integers(0, 2**label_bits, size=m)
        values[m // 3] = 2**label_bits - 1
        key_bits = label_bits + (m - 1).bit_length()
        assert key_bits == (32 if branch == "packed32" else 33)
        assert self._branch(monkeypatch, values, bound) == branch

    @pytest.mark.parametrize("bound", [2**17, 2**40, 2**62])
    def test_fit_decided_on_values_not_bound(self, monkeypatch, bound):
        # A bound far past 32 bits with small labels still sorts on
        # 32-bit keys: the fit reads the largest label, not the bound.
        values = np.random.default_rng(bound % 97).integers(0, 1000, size=3000)
        assert self._branch(monkeypatch, values, bound) == "packed32"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, object])
    def test_non_integer_labels_raise(self, dtype):
        # A cast would truncate 1.7 and 1.2 into one group: stable order
        # is [2, 1, 0], the truncated one [2, 0, 1].
        values = np.array([1.7, 1.2, 0.4]).astype(dtype)
        with pytest.raises(TypeError, match=np.dtype(dtype).name):
            group_argsort(values, 4)

    def test_bool_labels_sort(self):
        values = np.array([True, False, True, False])
        np.testing.assert_array_equal(group_argsort(values, 2), _reference(values))

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

    @pytest.mark.parametrize("m", [0, 3])
    def test_float_labels_raise_before_drawing(self, m):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        groups = np.array([1.7, 1.2, 0.4])[:m]
        with pytest.raises(TypeError, match="float64"):
            segmented_keep_indices(groups, 1, rng)
        assert rng.bit_generator.state == before

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
