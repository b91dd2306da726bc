"""Vectorized group-truncation primitives shared across the reproduction.

Both delivery engines of :class:`repro.net.network.SyncNetwork` and the
acceptance step of ``CreateExpander`` (§2.1 line c) face the same problem:
given ``m`` items labelled with a group id (sender, receiver, or walk
endpoint), keep a *uniformly random* subset of at most ``cap`` items per
group and drop the rest — the paper's "arbitrary subset" drop semantics
made uniform (§1.1).

The implementation draws **one** ``rng.permutation(m)`` and keeps, within
each group, the ``cap`` items of lowest permutation rank.  Because every
permutation is equally likely, each size-``cap`` subset of a group is kept
with equal probability (the chi-square tests in
``tests/net/test_capacity_semantics.py`` pin this down).  Centralising the
draw here is what makes the legacy and vectorized network engines agree
*exactly*: both call this function with identical group arrays in the same
canonical order, so the same messages survive under the same seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segmented_keep_indices", "needs_truncation", "group_argsort"]


_DIGIT = 1 << 16
#: From this many items on, the packed-key sort beats the one-digit radix
#: even for ``uint16`` labels (the sweep in ``docs/engine.md``).
_PACKED_MIN_ITEMS = 1 << 19


def _require_integer_labels(what: str, values: np.ndarray) -> None:
    """Group labels are integers: any cast below truncates a float label
    (``1.7`` would group with ``1.2``) into a wrong but plausible order."""
    if values.dtype.kind not in "iub":
        raise TypeError(
            f"{what}: labels must be an integer or bool array, got dtype {values.dtype}"
        )


def group_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of small non-negative integers (group labels).

    Exactly ``np.argsort(values, kind="stable")`` for integer ``values``
    in ``[0, bound)``, with ``bits = (m-1).bit_length()`` index bits:

    * ``max(values).bit_length() + bits <= 32`` — a 32-bit packed-key
      sort: each label shifted left by ``bits`` with its index in the
      low bits, one ``np.sort`` of those unique ``uint32`` keys (numpy's
      SIMD sort), and the low bits read back as ``int64``.  Unique keys
      with the index as tie-break make any sort stable.  The fit is
      decided on the actual largest label, not on ``bound``;
    * ``bound <= 2**16`` and ``m < 2**19`` — one radix digit: the labels
      sorted as ``uint16`` (numpy runs a radix sort for 16-bit types);
    * otherwise — the same packed-key sort over ``int64`` keys;
    * labels too large to shift into ``int64`` — numpy's stable (merge)
      sort.

    The casts would wrap out-of-range labels silently, so a ``min``/``max``
    pass checks the range first and raises :class:`ValueError` naming the
    offending value instead of returning a wrong order; non-integer
    labels raise :class:`TypeError`.
    """
    values = np.asarray(values)
    _require_integer_labels("group_argsort", values)
    m = values.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    vmin, vmax = int(values.min()), int(values.max())
    if vmin < 0 or vmax >= bound:
        bad = vmin if vmin < 0 else vmax
        raise ValueError(f"group_argsort: value {bad} outside [0, {bound})")
    bits = (m - 1).bit_length()
    if vmax.bit_length() + bits <= 32:
        # A transient sort key, not a message lane; the fit check above
        # makes uint32 exact.
        return _packed_argsort(values.astype(np.uint32), bits)  # repro-lint: disable=RL303
    if bound <= _DIGIT and m < _PACKED_MIN_ITEMS:
        # A transient sort digit, not a message lane; uint16 is deliberate.
        return np.argsort(values.astype(np.uint16), kind="stable")  # repro-lint: disable=RL303
    if vmax >> (63 - bits):
        return np.argsort(values, kind="stable")
    return _packed_argsort(values.astype(np.int64), bits)


def _packed_argsort(keyed: np.ndarray, bits: int) -> np.ndarray:
    """The packed-key sort of :func:`group_argsort`, in place on a fresh
    copy ``keyed`` of the labels (``uint32`` or ``int64``): labels shifted
    left by ``bits``, the index in the low bits, one ``np.sort``, and the
    low bits read back as ``int64``."""
    m = keyed.shape[0]
    keyed <<= bits
    keyed |= np.arange(m, dtype=keyed.dtype)
    keyed.sort()
    order = keyed if keyed.dtype == np.int64 else np.empty(m, dtype=np.int64)
    np.bitwise_and(keyed, (1 << bits) - 1, out=order)
    return order


def segmented_keep_indices(
    groups: np.ndarray, cap: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices (sorted ascending) of items kept under a per-group cap.

    Parameters
    ----------
    groups:
        ``(m,)`` integer array — the group label of each item, in the
        caller's canonical item order.
    cap:
        Maximum number of items to keep per group (``>= 0``).
    rng:
        Randomness source; consumes exactly one ``permutation(m)`` draw.

    Returns
    -------
    np.ndarray
        Sorted item indices, so selecting them preserves the canonical
        order of the survivors.

    The shuffled labels are grouped by :func:`group_argsort` (labels are
    shifted to start at 0, so any integer labels work); each item's rank
    in its group comes from the run lengths of the sorted column, and the
    survivors are read back in canonical order from a boolean mask.
    """
    groups = np.asarray(groups)
    _require_integer_labels("segmented_keep_indices", groups)
    m = groups.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    perm = rng.permutation(m)
    shuffled = groups[perm]
    lo, hi = int(shuffled.min()), int(shuffled.max())
    if lo:
        shuffled = shuffled - lo
    order = group_argsort(shuffled, hi - lo + 1)
    sorted_groups = shuffled[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_groups[1:] != sorted_groups[:-1]])
    )
    counts = np.diff(np.append(starts, m))
    rank_in_group = np.arange(m, dtype=np.int64) - np.repeat(starts, counts)
    mask = np.zeros(m, dtype=bool)
    mask[perm[order[rank_in_group < cap]]] = True
    return np.flatnonzero(mask)


def needs_truncation(counts: np.ndarray, cap: int | None) -> bool:
    """Whether any group exceeds ``cap`` (``None`` disables the bound).

    The shared RNG discipline: an engine consumes randomness **only** when
    this predicate is true, so capacity settings that never bind leave the
    generator untouched (asserted by the capacity-semantics tests).
    """
    if cap is None or counts.size == 0:
        return False
    return int(counts.max()) > cap
