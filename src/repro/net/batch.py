"""Array-backed message batches: the SoA tier's round traffic.

A :class:`MessageBatch` is the flat-array counterpart of a list of
:class:`repro.net.message.Message` objects: four parallel ``int64`` columns
(sender, receiver, kind code, payload).  A
:class:`repro.net.soa.SoAProtocolClass` emits its whole population's round
as one batch, which lets the vectorized engine move the round through
numpy without ever materialising Python message objects.

Design notes
------------
- **Kinds are interned.**  Message kinds are short strings ("token",
  "accept", …); the module-level :data:`KINDS` table maps them to small
  integer codes so batches stay pure ``int64``.  The table is append-only
  and process-global — the handful of protocol kinds never collide.
- **Scalar broadcasting.**  ``senders`` and ``kinds`` may be stored as a
  scalar when uniform across the batch (a round of one message kind is
  the common case); the engine broadcasts them.
- **Payloads are integers.**  A batch payload is one ``int64`` per message
  — or an ``(int64, int64)`` pair when the optional second payload lane
  ``payloads2`` is attached (e.g. the rooting phase's ``(depth, offerer)``
  BFS offers).  Either shape matches the paper's ``O(log n)``-bit packets.
- **Per-sender lanes.**  A lane whose payload is a function of the
  sender alone (its best id, its depth) may be a :class:`BySender` over
  an ``n``-length node column instead of an ``m``-length array.  The
  delivery tail carries it untouched and reads the column once, at the
  receiver-sorted senders, when it stages the inbox.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BySender", "KindTable", "KINDS", "MessageBatch"]


class KindTable:
    """Bidirectional interning of message-kind strings to int codes."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._names: list[str] = []

    def code(self, kind: str) -> int:
        """Intern ``kind`` and return its stable integer code."""
        code = self._codes.get(kind)
        if code is None:
            code = len(self._names)
            self._codes[kind] = code
            self._names.append(kind)
        return code

    def name(self, code: int) -> str:
        return self._names[code]


#: Process-global kind registry shared by all networks and batches.
KINDS = KindTable()


class BySender:
    """A payload lane given per sender: row ``i`` carries ``column[senders[i]]``.

    ``column`` is an ``n``-length int64 node column (indexed by node
    index, like ``senders``).  The network reads it during the delivery
    of the round that emitted it, before the protocol's next
    ``on_round_soa``, and hands the inbox a fresh array — so the
    protocol may keep updating the column in place.  Only use it for a
    lane that really is a function of the sender: a lane whose rows
    differ for one sender (forwarded token origins) must stay an
    ``m``-length array.
    """

    __slots__ = ("column",)

    def __init__(self, column: np.ndarray) -> None:
        self.column = column


def _as_column(value, length: int, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim == 0:
        return np.full(length, int(arr), dtype=np.int64)
    if arr.shape[0] != length:
        raise ValueError(f"{what} column has length {arr.shape[0]}, expected {length}")
    return arr


def _as_lane(value, length: int, what: str):
    """A payload lane: a :class:`BySender` as given, else a column."""
    return value if type(value) is BySender else _as_column(value, length, what)


class MessageBatch:
    """A flat batch of messages: parallel int64 columns.

    ``receivers`` is always an array and ``payloads`` an array or a
    :class:`BySender` lane; ``senders`` and ``kinds`` may be scalars
    meaning "uniform across the batch".
    ``payloads2`` is an optional second payload lane (``None`` when the
    batch carries single-integer payloads): protocols whose packets are
    integer *pairs* — e.g. the rooting phase's ``(depth, offerer)`` BFS
    offers — put the first component in ``payloads`` and the second in
    ``payloads2``.  Either payload lane may be a :class:`BySender`, which
    is stored as given (never broadcast).
    """

    __slots__ = ("senders", "receivers", "kinds", "payloads", "payloads2")

    def __init__(self, senders, receivers, kinds, payloads=None, payloads2=None) -> None:
        self.receivers = np.asarray(receivers, dtype=np.int64)
        if self.receivers.ndim != 1:
            raise ValueError("receivers must be a 1-d array")
        m = self.receivers.shape[0]
        # Scalars are normalised to python ints so hot-path code can test
        # ``type(x) is np.ndarray`` to distinguish the broadcast case.
        self.senders = int(senders) if np.ndim(senders) == 0 else _as_column(senders, m, "senders")
        if isinstance(kinds, str):
            kinds = KINDS.code(kinds)
        self.kinds = int(kinds) if np.ndim(kinds) == 0 else _as_column(kinds, m, "kinds")
        if payloads is None:
            payloads = np.zeros(m, dtype=np.int64)
        self.payloads = _as_lane(payloads, m, "payloads")
        self.payloads2 = (
            None if payloads2 is None else _as_lane(payloads2, m, "payloads2")
        )

    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, senders, receivers, kinds, payloads, payloads2=None) -> "MessageBatch":
        """Unvalidated constructor for engine/protocol hot paths.

        Columns are stored exactly as given (arrays may be views into
        round buffers; scalars stay scalars) — callers own the invariants
        the public constructor would otherwise check.
        """
        batch = object.__new__(cls)
        batch.senders = senders
        batch.receivers = receivers
        batch.kinds = kinds
        batch.payloads = payloads
        batch.payloads2 = payloads2
        return batch

    def __len__(self) -> int:
        return self.receivers.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageBatch(len={len(self)})"
