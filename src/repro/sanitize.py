"""Runtime sanitizer: ``REPRO_SANITIZE=1`` arms engine-wide invariant checks.

The static analyzer (``python -m repro.analysis``) checks the engine's
determinism contracts at the source level; this module is the *runtime*
half of the same story.  Setting ``REPRO_SANITIZE=1`` arms, in one
switch:

- **delivery-tail asserts** (``repro.net.network._deliver_flat``):
  int64 dtype on every message lane entering the tail (a per-sender
  lane's node column included), ascending-sender
  emission on the SoA path, and a receiver-sorted postcondition on the
  grouped columns handed to protocol classes;
- **SoA column validation** (``repro.net.soa.DEBUG_VALIDATE`` — the
  pre-existing ``REPRO_DEBUG_SOA`` flag is still honoured, sanitize mode
  implies it): every ``SoAInbox.concat`` input must itself be
  receiver-sorted;
- **fault-hook validation**: an oblivious adversary hook must neither
  draw from the delivery RNG (it would shift every subsequent
  truncation lottery) nor mutate the sender/receiver columns it is
  shown.

Checks raise :class:`SanitizeError` (an ``AssertionError`` subclass, so
``pytest.raises(AssertionError)`` and plain asserts interoperate).  The
flag is read once at import; tests flip :data:`ENABLED` directly.

``docs/contracts.md`` maps each contract to its lint code and its
sanitizer check.
"""

from __future__ import annotations

import numpy as np

from repro.net.batch import BySender
from repro.runtime.envsource import env_flag

__all__ = [
    "ENABLED",
    "SanitizeError",
    "check_int64",
    "check_nondecreasing",
    "check_receiver_sorted",
    "rng_state",
]

#: Armed by ``REPRO_SANITIZE=1`` (any value other than empty/``0``).
ENABLED = env_flag("REPRO_SANITIZE", False)


class SanitizeError(AssertionError):
    """An armed runtime invariant failed."""


def check_int64(name: str, arr) -> None:
    """Lanes entering the delivery tail are int64 end to end (RL303's
    runtime twin): a narrowed lane silently wraps ids/payloads at scale.
    A per-sender lane (:class:`~repro.net.batch.BySender`) is checked
    through its node column."""
    if type(arr) is BySender:
        arr = arr.column
    if arr is not None and arr.dtype != np.int64:
        raise SanitizeError(
            f"sanitize: lane {name!r} has dtype {arr.dtype}, expected int64"
        )


def check_nondecreasing(name: str, arr) -> None:
    if arr.shape[0] > 1 and not bool(np.all(arr[1:] >= arr[:-1])):
        bad = int(np.argmax(arr[1:] < arr[:-1]))
        raise SanitizeError(
            f"sanitize: column {name!r} is not nondecreasing at index "
            f"{bad + 1} ({int(arr[bad])} -> {int(arr[bad + 1])})"
        )


def check_receiver_sorted(name: str, receivers) -> None:
    """The grouped columns handed to protocol classes are receiver-sorted;
    anything else makes per-receiver segments straddle groups."""
    check_nondecreasing(name, receivers)


def rng_state(rng) -> str:
    """A comparable snapshot of a Generator's bit-generator state.

    ``repr`` flattens the nested state dict (which may hold numpy arrays
    for counter-based generators) into something ``==``-comparable.
    """
    return repr(rng.bit_generator.state)
