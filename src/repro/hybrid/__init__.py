"""Hybrid-model applications (Section 4 of the paper).

- :mod:`repro.hybrid.rapid_sampling` — Lemma 4.2 walk stitching;
- :mod:`repro.hybrid.overlay` — Theorem 4.1 hybrid ``CreateExpander``;
- :mod:`repro.hybrid.spanner` — Elkin–Neiman spanner (§4.2 step 1);
- :mod:`repro.hybrid.degree_reduction` — edge delegation (§4.2 step 2);
- :mod:`repro.hybrid.components` — Theorem 1.2 connected components;
- :mod:`repro.hybrid.spanning_tree` — Theorem 1.3 walk unwinding;
- :mod:`repro.hybrid.biconnectivity` — Theorem 1.4 Tarjan–Vishkin;
- :mod:`repro.hybrid.mis` — Theorem 1.5 MIS via shattering.
"""

from repro.hybrid.rapid_sampling import StitchedWalkResult, stitched_walks
from repro.hybrid.spanner import SpannerResult, build_spanner
from repro.hybrid.degree_reduction import ReducedGraph, reduce_degree
from repro.hybrid.overlay import (
    HybridExpanderBuilder,
    HybridOverlayParams,
    HybridOverlayResult,
    build_hybrid_overlay,
)
from repro.hybrid.components import (
    HYBRID_TIERS,
    ComponentForest,
    ComponentsResult,
    connected_components_hybrid,
)
from repro.hybrid.soa_pipeline import (
    CSRAdjacency,
    ReducedColumns,
    SoAHybridLedger,
    SoASpannerClass,
    SpannerColumns,
    build_hybrid_overlay_soa,
    build_spanner_soa,
    connected_components_hybrid_soa,
    reduce_degree_soa,
)
from repro.hybrid.spanning_tree import (
    SpanningTreeResult,
    UnwindBudgetExceeded,
    spanning_tree_hybrid,
)
from repro.hybrid.biconnectivity import (
    BiconnectivityResult,
    biconnected_components_hybrid,
    tarjan_vishkin_rules,
)
from repro.hybrid.monitoring import MonitorReport, NetworkMonitor
from repro.hybrid.mis import (
    GhaffariResult,
    MetivierResult,
    MISResult,
    ghaffari_stage,
    metivier_mis,
    mis_hybrid,
    verify_mis,
)

__all__ = [
    "StitchedWalkResult",
    "stitched_walks",
    "SpannerResult",
    "build_spanner",
    "ReducedGraph",
    "reduce_degree",
    "HybridExpanderBuilder",
    "HybridOverlayParams",
    "HybridOverlayResult",
    "build_hybrid_overlay",
    "HYBRID_TIERS",
    "ComponentForest",
    "ComponentsResult",
    "connected_components_hybrid",
    "CSRAdjacency",
    "ReducedColumns",
    "SoAHybridLedger",
    "SoASpannerClass",
    "SpannerColumns",
    "build_hybrid_overlay_soa",
    "build_spanner_soa",
    "connected_components_hybrid_soa",
    "reduce_degree_soa",
    "SpanningTreeResult",
    "UnwindBudgetExceeded",
    "spanning_tree_hybrid",
    "BiconnectivityResult",
    "biconnected_components_hybrid",
    "tarjan_vishkin_rules",
    "GhaffariResult",
    "MetivierResult",
    "MISResult",
    "ghaffari_stage",
    "metivier_mis",
    "mis_hybrid",
    "verify_mis",
    "MonitorReport",
    "NetworkMonitor",
]
