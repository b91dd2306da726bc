"""Hybrid-model ``CreateExpander`` (Theorem 4.1).

Differences from the NCC0 algorithm of Section 2 (see §4.1):

- the input may have degree up to ``O(log n)`` (e.g. the reduced graph
  ``H`` of §4.2), so edges are **not** copied ``Λ`` times — preparation
  only pads self-loops to degree ``Δ``;
- walks are **longer** (``ℓ = Θ(Λ²)`` in the theory; calibrated here),
  which regrows the minimum cut regardless of its initial size and gains a
  ``Θ(√ℓ)``-factor of conductance per evolution, so only
  ``O(log m / log log n)`` evolutions are needed;
- long walks are simulated in ``O(log ℓ)`` rounds via **rapid sampling**
  (:mod:`repro.hybrid.rapid_sampling`); each node sends its surviving
  tokens home, and the *origin* selects up to ``Δ/8`` of them to turn
  into edges (the endpoint cap of ``3Δ/8`` still applies so the result
  stays ``Δ``-regular and lazy).

The builder accepts disconnected inputs: walks never leave a component, so
every component independently converges to an expander — which is exactly
what the connected-components application (Theorem 1.2) requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.benign import BaseEdge
from repro.core.expander import EdgeRegistry, EvolutionStats, OverlayEdge, _accept_tokens
from repro.core.walks import run_token_walks
from repro.graphs.portgraph import PortGraph
from repro.graphs.spectral import spectral_gap
from repro.hybrid.rapid_sampling import stitched_walks
from repro.net.hybrid import HybridLedger

__all__ = ["HybridOverlayParams", "HybridOverlayResult", "HybridExpanderBuilder", "build_hybrid_overlay"]


@dataclass(frozen=True)
class HybridOverlayParams:
    """Parameters of the hybrid overlay construction.

    ``ell`` must be ``2 · 2^k`` when stitching is enabled (walk lengths
    double per stitching round, starting from 2 plain steps).
    """

    delta: int
    ell: int
    num_evolutions: int
    use_stitching: bool = True

    def __post_init__(self) -> None:
        if self.delta <= 0 or self.delta % 8 != 0:
            raise ValueError("delta must be a positive multiple of 8")
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
        if self.use_stitching:
            ratio = self.ell // 2
            if 2 * ratio != self.ell or ratio & (ratio - 1):
                raise ValueError("stitched ell must be 2 * 2^k")

    @property
    def tokens_per_node(self) -> int:
        return self.delta // 8

    @property
    def accept_cap(self) -> int:
        return 3 * self.delta // 8

    @property
    def oversample(self) -> int:
        """Stitching start-count multiplier ``ℓ/2`` (survival is ``2/ℓ``)."""
        return max(1, self.ell // 2)

    @classmethod
    def recommended(
        cls,
        n: int,
        max_degree: int,
        m_bound: int | None = None,
        use_stitching: bool = True,
    ) -> "HybridOverlayParams":
        """Calibrated hybrid parameters (``docs/deviations.md``, "Parameter
        calibration").

        ``Δ`` is ``Θ(log n)`` with room for the input's edges (at most
        half the ports); ``ℓ = 64`` (the ``Θ(Λ²)`` walk length at
        practical sizes, power-of-two for stitching); evolutions scale
        with the component bound ``m``.
        """
        if n < 2:
            raise ValueError("need at least 2 nodes")
        log_n = max(1, math.ceil(math.log2(n)))
        m = max(2, m_bound if m_bound is not None else n)
        log_m = max(1, math.ceil(math.log2(m)))
        delta = max(32, 8 * log_n, 2 * max_degree)
        delta = ((delta + 7) // 8) * 8
        return cls(
            delta=delta,
            ell=64,
            num_evolutions=log_m + 4,
            use_stitching=use_stitching,
        )


@dataclass
class HybridOverlayResult:
    """Output of the hybrid overlay construction."""

    final_graph: PortGraph
    history: list[EvolutionStats]
    levels: list[PortGraph]
    base_registry: list[BaseEdge]
    level_registries: list[EdgeRegistry]
    params: HybridOverlayParams
    ledger: HybridLedger = field(default_factory=HybridLedger)


class HybridExpanderBuilder:
    """Evolution driver for the hybrid variant.

    The level/registry bookkeeping matches
    :class:`repro.core.expander.ExpanderBuilder`, so the spanning-tree
    unwinding (Theorem 1.3) consumes either interchangeably.
    """

    def __init__(
        self,
        base_graph: PortGraph,
        params: HybridOverlayParams,
        rng: np.random.Generator,
        record_traces: bool = False,
        ledger: HybridLedger | None = None,
    ) -> None:
        if base_graph.delta != params.delta:
            raise ValueError("graph degree must equal params.delta")
        self.params = params
        self.rng = rng
        self.record_traces = record_traces
        self.levels: list[PortGraph] = [base_graph]
        self.level_registries: list[EdgeRegistry] = []
        self.history: list[EvolutionStats] = []
        # Any HybridLedger-compatible accumulator works here; the SoA
        # pipeline injects its columnar SoAHybridLedger.
        self.ledger = ledger if ledger is not None else HybridLedger()

    @property
    def current(self) -> PortGraph:
        return self.levels[-1]

    def step(self) -> EvolutionStats:
        """One hybrid evolution: long walks (stitched or plain), origin
        selection, endpoint cap, rebuild."""
        params = self.params
        graph = self.current
        n = graph.n

        if params.use_stitching:
            walk = stitched_walks(
                graph,
                tokens_per_node=params.tokens_per_node * params.oversample,
                target_length=params.ell,
                rng=self.rng,
                record_traces=self.record_traces,
            )
            walk_rounds = walk.rounds
        else:
            walk = run_token_walks(
                graph,
                tokens_per_node=params.tokens_per_node,
                length=params.ell,
                rng=self.rng,
                record_traces=self.record_traces,
            )
            walk_rounds = params.ell

        # Surviving tokens are reported back to their origins (§4.1); the
        # origin keeps at most Δ/8 of them, then endpoints answer at most
        # 3Δ/8 — both caps keep the rebuilt graph Δ-regular and lazy.
        by_origin = _accept_tokens(walk.origins, params.tokens_per_node, self.rng)
        sub_endpoints = walk.endpoints[by_origin]
        by_endpoint_local = _accept_tokens(sub_endpoints, params.accept_cap, self.rng)
        accepted = by_origin[by_endpoint_local]

        origins_acc = walk.origins[accepted]
        endpoints_acc = walk.endpoints[accepted]

        traces = None
        if self.record_traces:
            traces = [
                (walk.node_traces[i].copy(), walk.edge_traces[i].copy())
                for i in accepted.tolist()
            ]
        registry = EdgeRegistry(origins_acc, endpoints_acc, traces)

        # Rescue rule (docs/deviations.md, "Overlay rescue rule"): on very
        # small components, *all* of a node's surviving tokens may have
        # returned home, leaving it with only loop edges and silently
        # disconnecting it.  A node that would end an evolution with zero
        # real ports re-introduces itself to its previous neighbours (a
        # purely local decision, one extra round).  The rescue edge's
        # provenance is the previous-level edge it duplicates, so the
        # spanning-tree unwinding is unaffected.  W.h.p. the rule never
        # fires above tiny component sizes.
        registry.extend(self._rescue_isolated(graph, origins_acc, endpoints_acc))

        new_graph = PortGraph.from_edge_multiset(
            n=n,
            delta=params.delta,
            endpoints_a=registry.origins,
            endpoints_b=registry.endpoints,
            edge_ids=np.arange(len(registry), dtype=np.int64),
        )

        stats = EvolutionStats(
            iteration=len(self.history) + 1,
            tokens_started=int(walk.origins.shape[0]) if not params.use_stitching
            else n * params.tokens_per_node * params.oversample,
            tokens_accepted=int(accepted.shape[0]),
            tokens_dropped=int(walk.origins.shape[0]) - int(accepted.shape[0]),
            max_token_load=int(walk.max_load_per_round.max(initial=0)),
            distinct_edges=new_graph.num_unique_edges(),
        )
        self.levels.append(new_graph)
        self.level_registries.append(registry)
        self.history.append(stats)
        # Lemma 4.2: simulating m = Δℓ/16 walks of length ℓ needs
        # O(mℓ)-message capacity; +2 rounds to report home and answer.
        self.ledger.charge(
            f"evolution_{len(self.history)}",
            global_rounds=walk_rounds + 2,
            global_capacity=params.delta * params.ell,
        )
        return stats

    def _rescue_isolated(
        self,
        previous: PortGraph,
        origins_acc: np.ndarray,
        endpoints_acc: np.ndarray,
    ) -> list[OverlayEdge]:
        """Re-link nodes whose accepted tokens produced no real edge.

        Returns the extra edges' provenance entries (one step over the
        duplicated previous-level edge each).
        """
        n = previous.n
        real = np.zeros(n, dtype=np.int64)
        cross = origins_acc != endpoints_acc
        if cross.any():
            real += np.bincount(origins_acc[cross], minlength=n)
            real += np.bincount(endpoints_acc[cross], minlength=n)
        isolated = np.nonzero((real == 0) & (previous.real_degree() > 0))[0]
        entries: list[OverlayEdge] = []
        for v in isolated.tolist():
            seen: set[int] = set()
            for k in range(previous.delta):
                u = int(previous.ports[v, k])
                if u == v or u in seen:
                    continue
                seen.add(u)
                eid = int(previous.port_edge_ids[v, k]) if previous.port_edge_ids is not None else -1
                entries.append(
                    OverlayEdge(
                        origin=v,
                        endpoint=u,
                        node_trace=np.array([v, u], dtype=np.int64)
                        if self.record_traces
                        else None,
                        edge_trace=np.array([eid], dtype=np.int64)
                        if self.record_traces
                        else None,
                    )
                )
        return entries

    def run(
        self,
        num_evolutions: int | None = None,
        gap_threshold: float | None = None,
        track_gap: bool = False,
    ) -> PortGraph:
        """Run the configured evolutions (optionally stopping early once
        the spectral gap reaches ``gap_threshold``)."""
        if num_evolutions is None:
            num_evolutions = self.params.num_evolutions
        want_gap = track_gap or gap_threshold is not None
        for _ in range(num_evolutions):
            stats = self.step()
            if want_gap:
                stats.spectral_gap = spectral_gap(self.current)
            if gap_threshold is not None and stats.spectral_gap >= gap_threshold:
                break
        return self.current


def _benign_from_bounded_degree(
    adj: list[set[int]], delta: int
) -> tuple[PortGraph, list[BaseEdge]]:
    """Hybrid preparation: edges copied into the free port slack,
    self-loops to Δ.

    §4.1 drops the ``Λ``-fold edge copying because the input degree may be
    ``Θ(log n)`` (copies would not fit).  For *sparser* inputs, though,
    the ports the copies would occupy sit idle as self-loops — so this
    preparation copies every edge ``max(1, Δ/(4·d_max))`` times, smoothly
    interpolating between the NCC0 preparation (many copies, strong cuts)
    and the paper's hybrid one (single copies).  This keeps sparse cuts
    (e.g. a line's single bridge edges) populated with enough crossing
    mass for the cut-regrowth argument to engage at practical walk
    lengths; see ``docs/deviations.md``, "Hybrid preparation: edge
    copies and walk length".
    """
    n = len(adj)
    max_degree = max((len(a) for a in adj), default=0)
    copies = max(1, delta // (4 * max(1, max_degree)))
    registry: list[BaseEdge] = []
    ends_a: list[int] = []
    ends_b: list[int] = []
    for v in range(n):
        for u in sorted(adj[v]):
            if u > v:
                for _copy in range(copies):
                    registry.append(BaseEdge(u=v, v=u, source=(v, u)))
                    ends_a.append(v)
                    ends_b.append(u)
    graph = PortGraph.from_edge_multiset(
        n=n,
        delta=delta,
        endpoints_a=np.asarray(ends_a, dtype=np.int64),
        endpoints_b=np.asarray(ends_b, dtype=np.int64),
    )
    return graph, registry


def build_hybrid_overlay(
    graph,
    rng: np.random.Generator | None = None,
    params: HybridOverlayParams | None = None,
    record_traces: bool = False,
    m_bound: int | None = None,
    gap_threshold: float | None = None,
    track_gap: bool = False,
) -> HybridOverlayResult:
    """Theorem 4.1: build a hybrid overlay expander on a (possibly
    disconnected) bounded-degree graph.

    ``graph`` is anything :func:`repro.graphs.analysis.adjacency_sets`
    accepts; its degree should be ``O(log n)`` (use the spanner + degree
    reduction of §4.2 first otherwise — :mod:`repro.hybrid.components`
    composes all three).
    """
    from repro.graphs.analysis import adjacency_sets

    if rng is None:
        rng = np.random.default_rng(0)
    adj = adjacency_sets(graph)
    n = len(adj)
    max_degree = max((len(a) for a in adj), default=0)
    if params is None:
        params = HybridOverlayParams.recommended(n, max_degree, m_bound=m_bound)
    if max_degree > params.delta // 2:
        raise ValueError(
            f"input degree {max_degree} exceeds delta/2 = {params.delta // 2}; "
            "reduce the degree first (repro.hybrid.degree_reduction)"
        )

    base, base_registry = _benign_from_bounded_degree(adj, params.delta)
    builder = HybridExpanderBuilder(base, params, rng, record_traces=record_traces)
    builder.run(gap_threshold=gap_threshold, track_gap=track_gap)
    return HybridOverlayResult(
        final_graph=builder.current,
        history=builder.history,
        levels=builder.levels,
        base_registry=base_registry,
        level_registries=builder.level_registries,
        params=params,
        ledger=builder.ledger,
    )
