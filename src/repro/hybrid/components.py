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

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.bfs import BFSForest, build_bfs_forest
from repro.core.child_sibling import RootedTree, to_child_sibling_columns
from repro.core.euler import (
    WellFormedTree,
    build_well_formed_from_tree,
    euler_tour_forest,
)
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
    "well_formed_forest",
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
class ComponentForest:
    """Per-component well-formed trees assembled into global arrays.

    ``parent[v]`` is ``v``'s parent in its component's well-formed tree
    (roots point to themselves); ``root_of[v]`` identifies the component.
    """

    parent: np.ndarray
    root_of: np.ndarray
    trees: dict[int, WellFormedTree]
    rounds: int

    def max_depth(self) -> int:
        return max((t.depth() for t in self.trees.values()), default=0)

    def max_degree(self) -> int:
        return max((t.max_degree() for t in self.trees.values()), default=0)


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


def well_formed_forest(bfs: BFSForest) -> ComponentForest:
    """Transform every BFS tree of a forest into a well-formed tree.

    Each component is relabelled to a compact index space, rebalanced via
    the child–sibling + Euler tour pipeline, and written back into global
    parent arrays.  Rounds are the maximum over components (they run in
    parallel).
    """
    n = bfs.parent.shape[0]
    parent = np.arange(n, dtype=np.int64)
    trees: dict[int, WellFormedTree] = {}
    rounds = 0

    # Insertion order of ``members`` is the first occurrence of each
    # root as ``v`` ascends; a component's root is its minimum member
    # id (the flooding elects the minimum), so iteration is ascending
    # by root — the order the columnar port reproduces.  The per-root
    # transforms are independent, so ``rounds`` (a max) and the global
    # writebacks are order-free regardless.
    members: dict[int, list[int]] = {}
    for v, root in enumerate(bfs.root_of.tolist()):
        members.setdefault(root, []).append(v)

    for root, nodes in members.items():
        nodes = sorted(nodes)
        index = {v: i for i, v in enumerate(nodes)}
        local_parent = np.array(
            [index[int(bfs.parent[v])] for v in nodes], dtype=np.int64
        )
        local_tree = RootedTree(root=index[root], parent=local_parent)
        wft = build_well_formed_from_tree(local_tree)
        trees[root] = wft
        rounds = max(rounds, wft.rounds)
        local = wft.tree.parent
        for v in nodes:
            parent[v] = nodes[int(local[index[v]])]

    return ComponentForest(
        parent=parent,
        root_of=bfs.root_of.copy(),
        trees=trees,
        rounds=rounds,
    )


class _LazyForestTrees(Mapping):
    """On-demand :class:`WellFormedTree` views over columnar forest state.

    The columnar well-forming never materialises per-component Python
    trees; this mapping rebuilds the compact-index
    :class:`~repro.core.child_sibling.RootedTree` of a component only
    when a consumer actually asks for it (tests, depth/degree audits),
    bit-for-bit equal to the object path's ``trees[root]``.  Keys
    iterate ascending by root id — the object path's insertion order.
    """

    def __init__(
        self,
        parent: np.ndarray,
        roots: np.ndarray,
        member_lists: np.ndarray,
        member_bounds: np.ndarray,
        comp_rounds: np.ndarray,
    ) -> None:
        self._parent = parent
        self._roots = roots
        self._members = member_lists
        self._bounds = member_bounds
        self._rounds = comp_rounds
        self._cache: dict[int, WellFormedTree] = {}

    def __len__(self) -> int:
        return int(self._roots.shape[0])

    def __iter__(self):
        return iter(self._roots.tolist())

    def __getitem__(self, root: int) -> WellFormedTree:
        root = int(root)
        cached = self._cache.get(root)
        if cached is not None:
            return cached
        at = int(np.searchsorted(self._roots, root))
        if at >= self._roots.shape[0] or self._roots[at] != root:
            raise KeyError(root)
        nodes = np.sort(self._members[self._bounds[at] : self._bounds[at + 1]])
        local_parent = np.searchsorted(nodes, self._parent[nodes])
        tree = RootedTree(
            root=int(np.searchsorted(nodes, root)), parent=local_parent
        )
        wft = WellFormedTree(tree=tree, rounds=int(self._rounds[at]))
        self._cache[root] = wft
        return wft


def well_formed_forest_columns(bfs: BFSForest) -> ComponentForest:
    """Columnar :func:`well_formed_forest`: every component at once.

    The Theorem 4.1 rebalancing as four flat passes over global arrays —
    no per-component ``dict`` relabelling, no Python successor walk:

    1. **child–sibling** conversion of the whole forest in one grouped
       sort (:func:`~repro.core.child_sibling.to_child_sibling_columns`);
    2. **Euler tours** of all components from the local successor rule,
       positioned by one combined pointer-jumping ranking
       (:func:`~repro.core.euler.euler_tour_forest` — the doubling
       rounds are real, and charged per component);
    3. **preorder ranks** by sorting ``(component, first_entry)`` — the
       root's ``-1`` sentinel places it at rank 0 of its segment;
    4. **heap rebuild**: the node of component-rank ``r`` attaches to
       the node of rank ``⌊(r-1)/2⌋``, written straight into the global
       parent array.

    Output is bit-for-bit :func:`well_formed_forest`'s (parents, roots,
    rounds, and the lazily materialised per-component trees) — pinned
    over a 12-seed matrix in ``tests/hybrid/test_columnar_forest.py``.
    """
    n = bfs.parent.shape[0]
    root_of = np.asarray(bfs.root_of, dtype=np.int64)
    if n == 0:
        return ComponentForest(
            parent=np.arange(0, dtype=np.int64),
            root_of=root_of.copy(),
            trees={},
            rounds=0,
        )
    cs_parent = to_child_sibling_columns(bfs.parent)
    tour = euler_tour_forest(cs_parent, root_of)

    # Rank nodes inside each component by first tour entry; the root's
    # -1 sentinel sorts it to rank 0.  Keys are unique (entries are
    # distinct within a component), so the default introsort is
    # deterministic; key fits int64 for any n (root < n, entry < 2n).
    ranked = np.argsort(root_of * np.int64(2 * n + 2) + tour.first_entry + 1)
    grouped_roots = root_of[ranked]
    starts = np.flatnonzero(
        np.concatenate([[True], grouped_roots[1:] != grouped_roots[:-1]])
    )
    bounds = np.append(starts, n)
    sizes = np.diff(bounds)
    offsets = np.repeat(starts, sizes)
    rank = np.arange(n, dtype=np.int64) - offsets

    # Heap writeback: rank r (>= 1) hangs off rank (r - 1) // 2 of the
    # same component segment; rank 0 is the root, self-parented.
    parent = np.empty(n, dtype=np.int64)
    heap_slot = np.maximum(offsets + (rank - 1) // 2, 0)
    parent[ranked] = np.where(rank == 0, ranked, ranked[heap_slot])

    # Per-component rounds: 1 child–sibling round + the component's
    # real list-ranking rounds + ceil(log2 n_c) routing rounds
    # (singletons cost nothing) — then the forest max, as the
    # components rebalance in parallel.
    rank_rounds = np.maximum.reduceat(tour.rank_rounds[ranked], starts)
    routing = np.ceil(np.log2(np.maximum(2, sizes))).astype(np.int64)
    comp_rounds = np.where(sizes == 1, 0, 1 + rank_rounds + routing)

    trees = _LazyForestTrees(
        parent=parent,
        roots=grouped_roots[starts],
        member_lists=ranked,
        member_bounds=bounds,
        comp_rounds=comp_rounds,
    )
    return ComponentForest(
        parent=parent,
        root_of=root_of.copy(),
        trees=trees,
        rounds=int(comp_rounds.max(initial=0)),
    )


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
        forest = well_formed_forest(bfs)
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
