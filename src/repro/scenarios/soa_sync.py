"""Columnar α-synchroniser: a flat delay queue for SoA populations.

The footnote-2 synchroniser of :mod:`repro.net.asynchrony` holds round
``i``'s messages until ``i · max_delay`` time units elapse.  For object
nodes that holding is implicit (inboxes sit in per-node pending lists);
at ``n ≥ 10⁵`` the per-node representation itself is the bottleneck.

This module synchronises a whole :class:`~repro.net.soa.SoAProtocolClass`
population with **flat columns end to end**:

- after each delivery round, the staged :class:`~repro.net.soa.SoAInbox`
  is pulled out of the network (:meth:`SyncNetwork.take_staged_soa_inbox`)
  and pushed into a :class:`SoADelayQueue` — one *release-time column*
  (``arrival = clock + delay``) alongside the message columns;
- at the barrier (``clock += max_delay``) the queue releases every
  message whose arrival time has passed, restores receiver-sorted order
  with the same stable bucketing sort the delivery tail uses
  (:func:`repro.net.vectorops.group_argsort`), and re-stages the result.

Because every delay is at most ``max_delay``, each barrier drains the
queue completely and the released columns coincide exactly with what the
synchronous run would have staged — the execution is **bit-for-bit** the
synchronous one (same tree, metrics, round ledger under the same seed),
while the report accounts the dilated clock.  The per-message release
times are real, though: ``observed_max_delay`` is exact, and the delay
draws align bit-for-bit with the per-node synchroniser's stream, so the
two synchronisers are directly comparable under a shared seed
(``tests/scenarios/test_soa_sync.py`` pins all three equalities over a
12-seed matrix).
"""

from __future__ import annotations

import numpy as np

from repro.net import soa as _soa
from repro.net.asynchrony import AsyncReport
from repro.net.network import CapacityPolicy, SyncNetwork
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.net.vectorops import group_argsort
from repro.runtime import RunContext, context_or_default

__all__ = ["SoADelayQueue", "run_soa_synchroniser"]

_NO_COLUMN = np.empty(0, dtype=np.int64)


class SoADelayQueue:
    """In-flight messages as flat parallel columns keyed by release time.

    ``push`` appends a round's staged inbox with per-message absolute
    release times; ``release_until`` removes everything due by ``now``
    and returns it as a receiver-sorted :class:`SoAInbox` (stable
    bucketing, so messages of one push keep their canonical relative
    order — under the α-synchroniser barrier this reproduces the staged
    inbox exactly).  Scalar kind codes are preserved when the whole queue
    is uniform (the common one-kind-per-round protocol schedule), so the
    released inbox keeps the ``of_kind`` fast path.  The column
    mechanics (scalar-preserving concat, ordered gather) live on
    :class:`SoAInbox` itself.
    """

    __slots__ = ("n", "_release", "_inbox", "_pushes")

    def __init__(self, n: int) -> None:
        self.n = n
        self._release = _NO_COLUMN
        self._inbox = SoAInbox.empty()
        self._pushes = 0

    def __len__(self) -> int:
        return int(self._release.shape[0])

    # ------------------------------------------------------------------
    def push(self, inbox: SoAInbox, release: np.ndarray) -> None:
        """Enqueue one round's (receiver-sorted) staged inbox with
        absolute ``release`` times."""
        if len(inbox) == 0:
            return
        if release.shape[0] != len(inbox):
            raise ValueError("release-time column must match the inbox length")
        if _soa.DEBUG_VALIDATE:
            r = inbox.receivers
            if r.shape[0] > 1 and bool((r[1:] < r[:-1]).any()):
                raise ValueError(
                    "SoADelayQueue.push input is not receiver-sorted; pushes "
                    "must be staged (receiver-sorted) inboxes — only the "
                    "*release* re-sorts"
                )
        self._release = (
            release if len(self) == 0 else np.concatenate([self._release, release])
        )
        # check=False: the accumulated buffer is segment-ordered (pushes
        # back to back), not globally receiver-sorted — release re-sorts.
        self._inbox = SoAInbox.concat([self._inbox, inbox], check=False)
        self._pushes += 1

    # ------------------------------------------------------------------
    def release_until(self, now: int, require_drain: bool = False) -> SoAInbox:
        """Dequeue every message with ``release <= now`` as a
        receiver-sorted :class:`SoAInbox` (stable bucketing).

        The boundary is inclusive: a message whose delay equals the
        barrier length releases at exactly that barrier (the
        ``LinkDelay(max_delay) == barrier`` case — pinned by
        ``tests/scenarios/test_soa_sync.py``).  With ``require_drain``
        the caller asserts the α-synchroniser invariant that a barrier
        empties the queue completely; a message still held afterwards
        means its delay exceeded the barrier, which under footnote 2
        cannot happen — the queue raises a clear error instead of letting
        the run starve into a confusing non-quiescence failure (or a
        silent ``converged=False``).
        """
        if len(self) == 0:
            return SoAInbox.empty()
        due = self._release <= now
        if require_drain and not due.all():
            held = int((~due).sum())
            raise RuntimeError(
                f"{held} message(s) delayed beyond the synchroniser barrier "
                f"(release > {now}); delays must be <= the barrier length "
                "(ScenarioSpec.max_delay) under the footnote-2 α-synchroniser"
            )
        if due.all():
            released = self._inbox
            single_push = self._pushes == 1
            self._release = _NO_COLUMN
            self._inbox = SoAInbox.empty()
            self._pushes = 0
            # The α-synchroniser steady state: one staged inbox in
            # flight, fully drained at the barrier.  It is already
            # receiver-sorted (the delivery tail's invariant), so the
            # bucketing sort would be the identity — skip it and hand
            # the columns back without a copy.
            if single_push:
                return released
        else:
            released = self._inbox.take(np.flatnonzero(due))
            keep = np.flatnonzero(~due)
            self._release = self._release[keep]
            self._inbox = self._inbox.take(keep)
        if len(released) == 0:
            return SoAInbox.empty()
        # Restore receiver grouping: the released columns are pushes'
        # receiver-sorted segments back to back, so one stable bucketing
        # sort rebuilds the canonical per-receiver sequences.
        return released.take(group_argsort(released.receivers, self.n))


def run_soa_synchroniser(
    soa_class: SoAProtocolClass,
    capacity: CapacityPolicy,
    rng: np.random.Generator,
    delay_rng: np.random.Generator,
    max_delay: int,
    max_rounds: int,
    *,
    require_quiescence: bool = True,
    ctx: RunContext | None = None,
) -> tuple[AsyncReport, SyncNetwork]:
    """Drive an SoA population under the footnote-2 synchroniser.

    The SoA counterpart of the per-node loop in
    :func:`repro.net.asynchrony.run_with_asynchrony` (which dispatches
    here — call that instead of this directly).  Per logical round: one
    ``run_round``, one delay draw over the delivered messages, one queue
    push, one barrier release.  No per-node Python work anywhere, which
    is what makes delay/churn sweeps practical at ``n ≥ 10⁵``
    (``benchmarks/bench_s4_scenario_scaling.py``).

    ``ctx.workers`` shards the delivery tail (see :mod:`repro.net.shard`);
    the fault hook and the delay queue sit *outside* the sharded sort —
    the hook sees the canonical pre-sort stream and the queue the merged
    receiver-sorted columns — so every worker count reproduces the
    identical execution, delay draws and fault streams included.
    """
    ctx = context_or_default(ctx)
    tracer = ctx.tracer
    network = SyncNetwork(soa_class, capacity, rng, ctx=ctx)
    # Traced runs additionally record the synchroniser's own per-round
    # view (staged/released/held queue depths) — observation only, read
    # after each barrier; the delay draws and release order are
    # untouched, so a traced run is bit-for-bit the untraced one.
    sync_trace = None
    trace_clock = None
    if tracer is not None:
        sync_trace = tracer.table(
            "sync",
            ("round", "staged", "released", "held"),
            meta={"n": soa_class.n, "max_delay": max_delay},
        )
        trace_clock = tracer.clock
    queue = SoADelayQueue(soa_class.n)
    clock = 0
    observed = 0
    rounds = 0
    converged = False
    for _ in range(max_rounds):
        start = trace_clock() if sync_trace is not None else 0.0
        network.run_round()
        rounds += 1
        staged = network.take_staged_soa_inbox()
        m = len(staged)
        if m:
            delays = delay_rng.integers(1, max_delay + 1, size=m)
            observed = max(observed, int(delays.max(initial=0)))
            queue.push(staged, clock + delays)
        # The barrier: wait out the slowest possible link, then deliver
        # everything that has arrived (under the α-synchroniser, all of
        # it — require_drain turns a delay beyond the barrier into an
        # immediate, clearly-attributed error).
        clock += max_delay
        released = queue.release_until(clock, require_drain=True)
        network.stage_soa_inbox(released)
        if sync_trace is not None:
            sync_trace.append(
                rounds - 1, m, len(released), len(queue), trace_clock() - start
            )
        if not network.pending_messages() and not len(queue) and soa_class.is_idle():
            converged = True
            break
    if not converged and require_quiescence:
        raise RuntimeError(
            f"asynchronous run did not quiesce within {max_rounds} rounds "
            f"({network.pending_messages() + len(queue)} messages still in flight)"
        )
    report = AsyncReport(
        logical_rounds=rounds,
        max_delay=max_delay,
        elapsed_time_units=rounds * max_delay,
        observed_max_delay=observed,
        converged=converged,
    )
    return report, network
