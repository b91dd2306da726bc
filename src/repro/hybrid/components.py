"""Connected components with well-formed trees (Theorem 1.2).

Pipeline (§4.2): for an arbitrary-degree, possibly disconnected input
graph ``G``,

1. build the Elkin–Neiman spanner ``S(G)`` (outdegree ``O(log n)``,
   component-preserving) — ``O(log m)`` CONGEST rounds;
2. reduce to the bounded-degree graph ``H`` by edge delegation — 2
   rounds;
3. run the hybrid ``CreateExpander`` of Theorem 4.1 on ``H`` (walks stay
   within components, so every component becomes its own expander) —
   ``O(log m + log log n)`` rounds;
4. flood minimum ids and build a BFS tree per component, then transform
   each into a well-formed tree.

The component *label* of a node is the minimum node id of its component
(what the flooding elects as root).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bfs import BFSForest, build_bfs_forest
from repro.core.euler import ComponentForest, well_formed_forest_columns
from repro.graphs.analysis import adjacency_sets
from repro.hybrid.degree_reduction import ReducedGraph, reduce_degree
from repro.hybrid.overlay import (
    HybridOverlayParams,
    HybridOverlayResult,
    build_hybrid_overlay,
)
from repro.hybrid.spanner import SpannerResult, build_spanner
from repro.net.hybrid import HybridLedger
from repro.net.vectorops import group_argsort

__all__ = [
    "HYBRID_TIERS",
    "ComponentForest",
    "ComponentsResult",
    "well_formed_forest_columns",
    "connected_components_hybrid",
]

#: Execution tiers of the §4 pipeline: ``"object"`` runs the per-node
#: ``list[set]``/``dict`` implementations of this package; ``"soa"`` runs
#: the columnar port (:mod:`repro.hybrid.soa_pipeline` — the spanner
#: broadcast as an :class:`~repro.net.soa.SoAProtocolClass` population,
#: flat-column degree reduction / preparation / BFS).  Both produce
#: bit-for-bit identical labels, forests, overlays, and ledger totals
#: under a shared seed; benchmarks select via ``REPRO_HYBRID`` through
#: :func:`repro.runtime.select_choice`.  Authoritative in
#: :mod:`repro.runtime.context`; re-exported here for compatibility.
from repro.runtime import (  # noqa: E402
    HYBRID_TIERS,
    RunContext,
    context_or_default,
    validate_tier,
)


@dataclass
class ComponentsResult:
    """Everything produced by the Theorem 1.2 pipeline."""

    labels: np.ndarray
    forest: ComponentForest
    bfs: BFSForest
    spanner: SpannerResult
    reduced: ReducedGraph
    overlay: HybridOverlayResult
    ledger: HybridLedger = field(default_factory=HybridLedger)

    def components(self) -> dict[int, list[int]]:
        """Component membership keyed by label (minimum id).

        One grouping sort instead of a per-element Python loop.  Keys
        come out ascending, which *is* the legacy first-occurrence
        insertion order: a component's label is its minimum member id,
        so label ``L`` first occurs at ``v = L`` — this holds for gappy
        and non-contiguous label sets too (pinned in
        ``tests/hybrid/test_components.py``).
        """
        labels = np.asarray(self.labels, dtype=np.int64)
        n = labels.shape[0]
        if n == 0:
            return {}
        order = group_argsort(labels, int(labels.max()) + 1)
        grouped = labels[order]
        starts = np.flatnonzero(
            np.concatenate([[True], grouped[1:] != grouped[:-1]])
        )
        bounds = np.append(starts, n)
        members = order.tolist()
        return {
            int(grouped[lo]): members[lo:hi]
            for lo, hi in zip(starts.tolist(), bounds[1:].tolist())
        }


def connected_components_hybrid(
    graph,
    rng: np.random.Generator | None = None,
    m_bound: int | None = None,
    overlay_params: HybridOverlayParams | None = None,
    record_traces: bool = False,
    tier: str | None = None,
    *,
    ctx: RunContext | None = None,
) -> ComponentsResult:
    """Theorem 1.2: well-formed trees on every connected component.

    Parameters
    ----------
    graph:
        Arbitrary-degree input (networkx graph or adjacency sets);
        directions, if any, are ignored.
    m_bound:
        Known upper bound on component sizes — drives the spanner
        broadcast length and the number of evolutions, realising the
        ``O(log m + log log n)`` refinement.
    record_traces:
        Propagated to the overlay builder (Theorem 1.3 needs it).
    tier:
        One of :data:`HYBRID_TIERS`.  ``"soa"`` dispatches to the
        columnar pipeline (:mod:`repro.hybrid.soa_pipeline`), which
        produces the identical result with flat-column ``spanner`` /
        ``reduced`` representations — the tier that keeps churn-rebuild
        loops practical at ``n ≥ 10⁵``.
    ctx:
        A resolved :class:`~repro.runtime.context.RunContext`; supplies
        ``tier`` when the kwarg is omitted (which wins), the tracer of
        the stage spans, and workers/fault spec for the networks the SoA
        tier builds.
    """
    if tier is None:
        tier = ctx.hybrid if ctx is not None else "object"
    validate_tier("hybrid", tier)
    ctx = context_or_default(ctx)
    if tier == "soa":
        # Lazy import: soa_pipeline pulls the network stack in.
        from repro.hybrid.soa_pipeline import connected_components_hybrid_soa

        return connected_components_hybrid_soa(
            graph,
            rng=rng,
            m_bound=m_bound,
            overlay_params=overlay_params,
            record_traces=record_traces,
            ctx=ctx,
        )
    from repro.obs import maybe_span, resolve_tracer

    if rng is None:
        rng = np.random.default_rng(0)
    tracer = resolve_tracer(ctx.tracer)
    adj = adjacency_sets(graph)
    ledger = HybridLedger()

    with maybe_span(tracer, "spanner_broadcast", cat="stage", tier="object") as sp:
        spanner = build_spanner(graph, rng=rng, component_bound=m_bound)
        if sp is not None:
            sp.attrs["rounds"] = int(spanner.rounds)
    ledger.charge("spanner_broadcast", local_rounds=spanner.rounds)

    with maybe_span(tracer, "degree_reduction", cat="stage", tier="object") as sp:
        reduced = reduce_degree(spanner)
        if sp is not None:
            sp.attrs["rounds"] = int(reduced.rounds)
    ledger.charge("degree_reduction", local_rounds=reduced.rounds)

    with maybe_span(tracer, "overlay_evolutions", cat="stage", tier="object"):
        overlay = build_hybrid_overlay(
            reduced.adj,
            rng=rng,
            params=overlay_params,
            record_traces=record_traces,
            m_bound=m_bound,
        )
    ledger.merge(overlay.ledger, prefix="overlay/")

    with maybe_span(tracer, "min_id_flood_and_bfs", cat="stage", tier="object") as sp:
        bfs = build_bfs_forest(overlay.final_graph)
        if sp is not None:
            sp.attrs["rounds"] = int(bfs.rounds)
    ledger.charge("min_id_flood_and_bfs", global_rounds=bfs.rounds)

    with maybe_span(tracer, "well_forming", cat="stage", tier="object") as sp:
        forest = well_formed_forest_columns(bfs)
        if sp is not None:
            sp.attrs["rounds"] = int(forest.rounds)
    ledger.charge("well_forming", global_rounds=forest.rounds)

    # Sanity: the overlay may only merge knowledge *within* components of
    # the input — labels must coincide with the input components.
    labels = bfs.root_of
    del adj  # labels are authoritative; tests compare against ground truth
    return ComponentsResult(
        labels=labels,
        forest=forest,
        bfs=bfs,
        spanner=spanner,
        reduced=reduced,
        overlay=overlay,
        ledger=ledger,
    )
