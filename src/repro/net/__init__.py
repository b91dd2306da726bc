"""Synchronous message-passing substrate (NCC0 and hybrid accounting).

The paper's model (§1.1): time proceeds in synchronous rounds; a node can
send a message to any node whose identifier it knows; messages are
``O(log n)`` bits; each node can send and receive at most ``O(log n)``
messages per round, and **excess messages are dropped arbitrarily** by the
network.  :class:`repro.net.network.SyncNetwork` implements exactly that
contract, with per-round metrics so experiments can report the maximum
loads and totals that Theorem 1.1 bounds.

:mod:`repro.net.hybrid` provides the bookkeeping for the hybrid model of
Section 4 (CONGEST local edges + capacity-limited global edges).
"""

from repro.net.message import Message
from repro.net.batch import KINDS, BySender, MessageBatch
from repro.net.network import (
    ENGINES,
    CapacityPolicy,
    NetworkMetrics,
    ProtocolNode,
    SyncNetwork,
)
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.net.vectorops import group_argsort, segmented_keep_indices
from repro.net.hybrid import HybridLedger

__all__ = [
    "Message",
    "MessageBatch",
    "BySender",
    "KINDS",
    "CapacityPolicy",
    "NetworkMetrics",
    "ProtocolNode",
    "SoAProtocolClass",
    "SoAInbox",
    "SyncNetwork",
    "ENGINES",
    "group_argsort",
    "segmented_keep_indices",
    "HybridLedger",
]
