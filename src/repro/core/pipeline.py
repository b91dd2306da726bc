"""End-to-end overlay construction pipeline (Theorem 1.1).

``build_well_formed_tree`` composes the full NCC0 algorithm:

1. **Preparation** (§2.1): bidirect the knowledge graph and make it benign
   (``MakeBenign`` — edge copying + self-loop padding) — 2 rounds;
2. **CreateExpander**: ``L`` evolutions of ``ℓ + 1`` rounds each, after
   which ``G_L`` has constant conductance and diameter ``O(log n)``
   w.h.p.;
3. **Rooting** (footnote 8): flood minimum ids and build a BFS tree;
4. **Well-forming**: child–sibling transformation + Euler-tour
   rebalancing into a degree-≤3, depth-``O(log n)`` tree.

The returned :class:`OverlayBuildResult` carries a per-phase round ledger —
the quantity Theorem 1.1 bounds by ``O(log n)`` — plus the evolution
history used by the conductance-growth experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.benign import check_benign
from repro.core.bfs import BFSForest, build_bfs_forest
from repro.core.child_sibling import RootedTree
from repro.core.euler import WellFormedTree, build_well_formed_from_tree
from repro.core.expander import EvolutionStats, ExpanderResult, create_expander
from repro.core.params import ExpanderParams
from repro.graphs.analysis import diameter
from repro.graphs.portgraph import PortGraph

__all__ = [
    "OverlayBuildResult",
    "build_well_formed_tree",
    "rooting_flood_rounds",
    "ROOTING_MODES",
    "EXPANDER_MODES",
]


def rooting_flood_rounds(n: int) -> int:
    """The pipeline's flooding budget for the rooting phase.

    The paper's budget: ``L ≥ log n ≥ diameter`` rounds of flooding.  The
    final expander's diameter is ``O(log n)`` w.h.p.; the doubled budget
    absorbs the constant, and an insufficient flood surfaces as a
    multiple-root RuntimeError rather than a silently wrong tree.  Shared
    with the adversarial scenario runner
    (:mod:`repro.scenarios.runner`), whose rooting workloads must stay
    comparable with pipeline-built trees.
    """
    return 2 * max(1, math.ceil(math.log2(max(2, n)))) + 2

#: How step 3 (rooting) executes: ``"reference"`` runs the centralised
#: adjacency-loop oracle of :mod:`repro.core.bfs`; ``"protocol"`` and
#: ``"soa"`` run the real message-level protocol on the NCC0 simulator
#: (object nodes, or the structure-of-arrays class of
#: :mod:`repro.core.soa_rooting`).  All three produce the identical tree;
#: ``"soa"`` is what keeps the pipeline practical at ``n ≥ 10⁶``.
#: Authoritative in :mod:`repro.runtime.context`; re-exported here
#: alongside ``EXPANDER_MODES`` (how step 2, ``CreateExpander``,
#: executes: the fast ``"walks"`` array engine or the message-level
#: tiers).
from repro.runtime import EXPANDER_MODES, ROOTING_MODES, RunContext  # noqa: E402


def _rooting_forest(
    graph: PortGraph,
    mode: str,
    rng: np.random.Generator,
    ctx: RunContext | None = None,
) -> BFSForest:
    """Run the message-level rooting phase and adapt it to a BFSForest."""
    from repro.core.protocol_tree import run_protocol_rooting
    from repro.core.soa_rooting import run_soa_rooting

    n = graph.n
    flood_rounds = rooting_flood_rounds(n)
    runner = {"soa": run_soa_rooting, "protocol": run_protocol_rooting}[mode]
    try:
        result = runner(graph, flood_rounds=flood_rounds, rng=rng, ctx=ctx)
    except RuntimeError as exc:
        from repro.graphs.analysis import is_connected

        # Keep the pipeline's mode-independent contract for the common
        # failure — but only when the graph really is disconnected; a
        # connected graph that outran the flood/round budget keeps its
        # original diagnosis.
        if not is_connected(graph.neighbor_sets()):
            raise ValueError(
                "input graph is disconnected; use repro.hybrid.components for forests"
            ) from exc
        raise
    return BFSForest(
        parent=result.parent,
        depth=result.depth,
        root_of=np.full(n, result.root, dtype=np.int64),
        roots=[result.root],
        rounds=result.rounds,
    )


@dataclass
class OverlayBuildResult:
    """Everything produced by the Theorem 1.1 pipeline.

    Attributes
    ----------
    expander:
        The :class:`ExpanderResult` (final graph, evolution history,
        provenance registries).
    bfs:
        The BFS forest on the final expander graph (a single tree when the
        input was connected).
    well_formed:
        The final well-formed tree.
    round_ledger:
        Rounds consumed per phase (``prepare``, ``evolutions``, ``bfs``,
        ``well_forming``).
    """

    expander: ExpanderResult
    bfs: BFSForest
    well_formed: WellFormedTree
    round_ledger: dict[str, int] = field(default_factory=dict)

    @property
    def tree(self) -> RootedTree:
        return self.well_formed.tree

    @property
    def total_rounds(self) -> int:
        """Total synchronous rounds across all phases."""
        return sum(self.round_ledger.values())

    @property
    def history(self) -> list[EvolutionStats]:
        return self.expander.history

    def final_graph(self) -> PortGraph:
        return self.expander.final_graph

    def overlay_diameter(self) -> int:
        """Diameter of the final expander graph ``G_L``."""
        return diameter(self.expander.final_graph.neighbor_sets())


def _message_level_expander(
    graph, mode: str, params, rng, ctx: RunContext | None = None
) -> ExpanderResult:
    """Run ``CreateExpander`` message-by-message and adapt the outcome to
    the :class:`ExpanderResult` shape the rest of the pipeline consumes.

    Message-level runs carry no per-evolution history or provenance (the
    nodes only keep their final ports), so ``history`` is empty and the
    round charge comes from the metrics' actual NCC0 round count.
    """
    from repro.core.batch_protocol import run_soa_expander
    from repro.core.protocol import run_protocol_expander

    runner = {"protocol": run_protocol_expander, "soa": run_soa_expander}[mode]
    result = runner(graph, params=params, rng=rng, ctx=ctx)
    return ExpanderResult(
        final_graph=result.final_graph,
        history=[],
        levels=[result.final_graph],
        base_registry=[],
        level_registries=[],
        params=result.params,
        rounds=result.rounds + 2,  # +2: bidirect + copy preparation
    )


def build_well_formed_tree(
    graph,
    params: ExpanderParams | None = None,
    rng: np.random.Generator | None = None,
    record_traces: bool = False,
    gap_threshold: float | None = None,
    track_gap: bool = False,
    verify_benign: bool = False,
    rooting: str | None = None,
    expander: str | None = None,
    *,
    ctx: RunContext | None = None,
) -> OverlayBuildResult:
    """Run the complete Theorem 1.1 construction on ``graph``.

    Parameters
    ----------
    graph:
        Weakly connected networkx (di)graph of bounded degree.
    params, rng:
        Algorithm parameters and randomness; both default sensibly
        (:meth:`ExpanderParams.recommended`, seed 0).
    record_traces:
        Keep walk provenance on every overlay edge (Theorem 1.3 input).
    gap_threshold:
        Stop evolutions adaptively once the spectral gap reaches this
        value instead of running the fixed ``L``.
    track_gap:
        Record the spectral gap after each evolution (costs eigensolves).
    verify_benign:
        Assert Definition 2.1 on every evolution graph (testing aid;
        raises on violation).
    rooting:
        One of :data:`ROOTING_MODES`: the centralised ``"reference"``
        oracle (default), or the message-level ``"protocol"`` /
        ``"soa"`` executions on the NCC0 simulator.  All three build
        the identical tree; the SoA tier avoids per-node Python calls
        entirely at large ``n``.
    expander:
        One of :data:`EXPANDER_MODES`: the fast ``"walks"`` array engine
        (default), or the message-level tiers on the NCC0 simulator.
        The message-level tiers enforce real capacities but keep no
        evolution history/provenance, so they are incompatible with
        ``record_traces`` / ``gap_threshold`` / ``track_gap`` /
        ``verify_benign``.
    ctx:
        A resolved :class:`~repro.runtime.context.RunContext`.  Supplies
        ``rooting`` / ``expander`` when those kwargs are omitted (the
        kwargs win per the precedence chain) and is threaded into every
        network the message-level phases construct (workers, tracer,
        fault spec, layout reuse).  Without one, the kwargs default to
        ``"reference"`` / ``"walks"`` exactly as before — the pipeline
        itself never sniffs ``REPRO_*`` variables.  ``ctx.tracer`` (or an
        ambient :func:`repro.obs.capture` scope) records the three phases
        as ``cat="stage"`` spans ``create_expander``, ``rooting`` and
        ``well_forming``, each with a ``rounds`` attribute equal to the
        round-ledger entries it covers (``prepare + evolutions``,
        ``bfs``, ``well_forming``); tracing only observes, so traced and
        untraced runs are bit-for-bit identical.

    Returns
    -------
    OverlayBuildResult
        With a round ledger satisfying, w.h.p.,
        ``total_rounds = O(log n)`` for constant-degree inputs.
    """
    if ctx is not None:
        ctx = ctx.with_overrides(rooting=rooting, expander=expander)
        rooting = ctx.rooting
        expander = ctx.expander
    else:
        rooting = rooting if rooting is not None else "reference"
        expander = expander if expander is not None else "walks"
    if rooting not in ROOTING_MODES:
        raise ValueError(f"rooting must be one of {ROOTING_MODES}, got {rooting!r}")
    if expander not in EXPANDER_MODES:
        raise ValueError(f"expander must be one of {EXPANDER_MODES}, got {expander!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    from repro.obs import maybe_span, resolve_tracer

    tracer = resolve_tracer(ctx.tracer if ctx is not None else None)
    message_level = expander != "walks"

    with maybe_span(tracer, "create_expander", cat="stage") as sp:
        if not message_level:
            expander_result = create_expander(
                graph,
                params=params,
                rng=rng,
                record_traces=record_traces,
                gap_threshold=gap_threshold,
                track_gap=track_gap,
            )
        else:
            if record_traces or track_gap or verify_benign or gap_threshold is not None:
                raise ValueError(
                    "record_traces/gap_threshold/track_gap/verify_benign require "
                    'the "walks" expander mode (message-level nodes keep no '
                    "evolution history)"
                )
            expander_result = _message_level_expander(graph, expander, params, rng, ctx)
        # Walk-engine evolutions are charged analytically (ℓ + 1 rounds
        # each); message-level runs charge the NCC0 rounds they actually
        # consumed (expander_result.rounds carries the +2 preparation).
        evolution_rounds = (
            expander_result.rounds - 2
            if message_level
            else len(expander_result.history) * (expander_result.params.ell + 1)
        )
        if sp is not None:
            sp.attrs["rounds"] = 2 + evolution_rounds

    if verify_benign:
        for level, port_graph in enumerate(expander_result.levels):
            target = expander_result.params.lam if level == 0 else None
            report = check_benign(
                port_graph,
                expander_result.params,
                check_cut=port_graph.n <= 300,
                cut_target=target,
            )
            if not report.all_ok():
                raise AssertionError(
                    f"evolution graph at level {level} violates Definition 2.1: {report}"
                )

    with maybe_span(tracer, "rooting", cat="stage") as sp:
        if rooting == "reference":
            bfs = build_bfs_forest(expander_result.final_graph)
        else:
            bfs = _rooting_forest(expander_result.final_graph, rooting, rng, ctx)
        if sp is not None:
            sp.attrs["rounds"] = int(bfs.rounds)
    if len(bfs.roots) != 1:
        raise ValueError(
            "input graph is disconnected; use repro.hybrid.components for forests"
        )

    with maybe_span(tracer, "well_forming", cat="stage") as sp:
        tree = RootedTree(root=bfs.roots[0], parent=bfs.parent.copy())
        well_formed = build_well_formed_from_tree(tree)
        if sp is not None:
            sp.attrs["rounds"] = int(well_formed.rounds)

    ledger = {
        "prepare": 2,
        "evolutions": evolution_rounds,
        "bfs": bfs.rounds,
        "well_forming": well_formed.rounds,
    }
    return OverlayBuildResult(
        expander=expander_result,
        bfs=bfs,
        well_formed=well_formed,
        round_ledger=ledger,
    )
