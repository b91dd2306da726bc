"""Asynchronous execution via an α-synchroniser (paper footnote 2).

Footnote 2 of the paper: *"some of the algorithms can be adapted to work
in an asynchronous model where a round is measured by the time it takes
for the slowest message to arrive…  If all nodes know the maximum delay
of a message, they can simulate the synchronous algorithm.  A practical
downside … is that the algorithm operates only as fast as the slowest
part of the network."*

This module implements exactly that simulation: messages are assigned
random delays in ``[1, max_delay]`` time units; every node holds round
``i``'s messages until time ``i · max_delay`` has elapsed (the
α-synchroniser barrier), so the protocol's behaviour is *identical* to
the synchronous execution while the wall-clock dilates by the slowest
link.  :class:`AsyncReport` records both the logical rounds and the
elapsed time units, quantifying the footnote's "as fast as the slowest
part" caveat.

Two contracts are enforced here (both regression-tested in
``tests/net/test_asynchrony.py``):

- **RNG independence.**  Delay samples are drawn from an independent
  ``rng.spawn()`` stream, never from the generator that drives network
  delivery — so the protocol execution is bit-for-bit the synchronous one
  under the same seed, including capacity-truncation draws.
- **Explicit non-convergence.**  Exhausting ``max_rounds`` without
  reaching quiescence raises (matching
  :func:`repro.core.protocol_tree.run_protocol_rooting`); callers opting
  out via ``require_quiescence=False`` get ``report.converged == False``
  instead of a silently truncated run.

Both node representations run here: object nodes through the per-node
loop below, and :class:`~repro.net.soa.SoAProtocolClass`
populations through the columnar synchroniser of
:mod:`repro.scenarios.soa_sync` (a flat delay queue over the staged
inbox columns — one Python call per round regardless of ``n``), to which
this function transparently dispatches.  A ``ctx.fault_hook``
installs an oblivious message adversary (drops, crash isolation,
partitions — see :mod:`repro.scenarios.spec`) in the delivery tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.net.soa import SoAProtocolClass
from repro.runtime import RunContext

__all__ = ["AsyncReport", "run_with_asynchrony"]


@dataclass
class AsyncReport:
    """Timing of an asynchronous execution under the synchroniser."""

    logical_rounds: int
    max_delay: int
    elapsed_time_units: int
    observed_max_delay: int
    converged: bool = True

    @property
    def dilation(self) -> float:
        """Wall-clock cost per logical round (the footnote's slowdown)."""
        if self.logical_rounds == 0:
            return 0.0
        return self.elapsed_time_units / self.logical_rounds


def run_with_asynchrony(
    nodes: dict[int, ProtocolNode] | SoAProtocolClass,
    capacity: CapacityPolicy,
    rng: np.random.Generator,
    max_delay: int,
    max_rounds: int,
    *,
    require_quiescence: bool = True,
    ctx: RunContext | None = None,
) -> tuple[AsyncReport, SyncNetwork]:
    """Run a protocol under random message delays with a synchroniser.

    Every message *delivered* for round ``i + 1`` receives an i.i.d.
    delay uniform on ``[1, max_delay]``; the synchroniser releases round
    ``i + 1`` once every round-``i`` message has arrived, i.e. after
    ``max_delay`` time units per round.  The barrier boundary is
    *inclusive*: a delay equal to ``max_delay`` (the slowest link
    footnote 2 allows) arrives exactly at the barrier and is delivered
    with it, in both this per-node synchroniser (which holds whole
    rounds, so a maximal delay is absorbed structurally) and the SoA
    delay queue (which holds per-message release times and releases
    ``release <= barrier`` — a delay *beyond* the barrier raises there
    rather than starving the run).  Because nodes act only on
    barrier boundaries, the execution is semantically the synchronous one
    — the function runs the protocol on the standard :class:`SyncNetwork`
    while accounting the asynchronous clock, and reports the dilation.

    Passing a :class:`~repro.net.soa.SoAProtocolClass` as ``nodes``
    dispatches to the columnar SoA synchroniser
    (:mod:`repro.scenarios.soa_sync`), whose flat delay queue
    materialises per-message release times without any per-node Python
    work — bit-for-bit the same execution, at SoA speed.  ``ctx``
    (:class:`~repro.runtime.context.RunContext`) configures the network
    as in :class:`SyncNetwork`: the delivery engine of object nodes, the
    tracer (pure observation, so a traced run is bit-for-bit the
    untraced one), and the oblivious message adversary
    ``ctx.fault_hook``.

    Returns the timing report and the (already run) network, whose nodes
    hold the protocol's results.

    Raises
    ------
    RuntimeError
        If ``max_rounds`` elapses before the network quiesces (no idle
        break fired) and ``require_quiescence`` is True.  With
        ``require_quiescence=False`` the truncation is flagged on
        ``AsyncReport.converged`` instead.
    """
    if max_delay < 1:
        raise ValueError("max_delay must be >= 1")
    # Delay sampling must not perturb the delivery stream: drawing from
    # ``rng`` itself would interleave with capacity-truncation draws and
    # diverge the execution from the synchronous one under the same seed.
    delay_rng = rng.spawn(1)[0]
    if isinstance(nodes, SoAProtocolClass):
        # Import kept lazy: scenarios is a higher layer built on this one.
        from repro.scenarios.soa_sync import run_soa_synchroniser

        return run_soa_synchroniser(
            nodes,
            capacity,
            rng,
            delay_rng,
            max_delay,
            max_rounds,
            require_quiescence=require_quiescence,
            ctx=ctx,
        )
    network = SyncNetwork(nodes, capacity, rng, ctx=ctx)
    observed = 0
    rounds = 0
    converged = False
    for _ in range(max_rounds):
        network.run_round()
        rounds += 1
        # Sample the delays of this round's delivered messages; the
        # barrier waits out max_delay regardless (the footnote's cost).
        # Drawing per *delivered* message keeps the stream aligned with
        # the SoA synchroniser's release-time column under a shared seed.
        delivered = network.pending_messages()
        if delivered:
            delays = delay_rng.integers(1, max_delay + 1, size=delivered)
            observed = max(observed, int(delays.max(initial=0)))
        if not delivered and all(node.is_idle() for node in network.nodes.values()):
            converged = True
            break
    if not converged and require_quiescence:
        raise RuntimeError(
            f"asynchronous run did not quiesce within {max_rounds} rounds "
            f"({network.pending_messages()} messages still in flight)"
        )
    report = AsyncReport(
        logical_rounds=rounds,
        max_delay=max_delay,
        elapsed_time_units=rounds * max_delay,
        observed_max_delay=observed,
        converged=converged,
    )
    return report, network
