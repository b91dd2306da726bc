"""Churn simulation: random node failures against overlay graphs (§1.4).

The paper argues its overlays resist oblivious churn: *"If the nodes fail
independently and random with a certain probability, say p, a logarithmic
sized minimum cut (of different nodes) is enough to keep the network
connected w.h.p."*  This module provides the measurement machinery for
that claim (used by the X3 bench and the ``churn_recovery`` example):

- :func:`fail_nodes` — kill an independent ``p``-fraction of nodes and
  return the surviving induced adjacency;
- :func:`churn_report` — connectivity structure of the survivors
  (largest component fraction, component count);
- :func:`survival_curve` — sweep ``p`` over seeds for a whole graph,
  producing the robustness curve that contrasts the expander overlay
  with its fragile input topology;
- :func:`rebuild_survivor_overlay` — the paper's "throw away and
  reconstruct" step: re-run the Theorem 1.1 pipeline on the largest
  surviving component, on either execution tier (``rooting="soa"`` by
  default, so churn re-runs do not drive the object-level paths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.analysis import adjacency_sets, connected_components

__all__ = [
    "ChurnReport",
    "SurvivorRebuild",
    "fail_mask",
    "fail_nodes",
    "churn_report",
    "survival_curve",
    "rebuild_survivor_overlay",
]


def fail_mask(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Alive-mask of ``n`` nodes failing independently with probability ``p``.

    The single node-failure draw shared by graph-level churn
    (:func:`fail_nodes`) and the message-level crash waves of the
    adversarial scenario engine
    (:class:`repro.scenarios.spec.CrashWave`) — one ``rng.random(n)``
    comparison, so the two layers agree on what "fail independently with
    probability p" consumes from a stream.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return rng.random(n) > p


@dataclass
class ChurnReport:
    """Connectivity of the survivors after one churn event."""

    survivors: int
    components: int
    largest_component: int

    @property
    def largest_fraction(self) -> float:
        """Largest surviving component as a fraction of survivors."""
        if self.survivors == 0:
            return 0.0
        return self.largest_component / self.survivors

    @property
    def stayed_connected(self) -> bool:
        return self.components <= 1


def fail_nodes(
    graph, p: float, rng: np.random.Generator
) -> tuple[list[set[int]], np.ndarray]:
    """Kill each node independently with probability ``p``.

    Returns ``(surviving_adjacency, alive_mask)``; dead nodes keep empty
    adjacency entries (original labels preserved).
    """
    adj = adjacency_sets(graph)
    n = len(adj)
    alive = fail_mask(n, p, rng)
    surviving = [
        {u for u in neigh if alive[u]} if alive[v] else set()
        for v, neigh in enumerate(adj)
    ]
    return surviving, alive


def _alive_components(
    surviving_adj: list[set[int]], alive: np.ndarray
) -> list[list[int]]:
    """Connected components of the survivors (dead nodes' empty entries
    excluded) — shared by the report and the rebuild path."""
    return [c for c in connected_components(surviving_adj) if alive[c[0]]]


def _report_from_components(comps: list[list[int]], alive: np.ndarray) -> ChurnReport:
    return ChurnReport(
        survivors=int(alive.sum()),
        components=len(comps),
        largest_component=max((len(c) for c in comps), default=0),
    )


def churn_report(surviving_adj: list[set[int]], alive: np.ndarray) -> ChurnReport:
    """Connectivity structure of one churn outcome."""
    return _report_from_components(_alive_components(surviving_adj, alive), alive)


@dataclass
class SurvivorRebuild:
    """Outcome of one churn-then-reconstruct cycle.

    ``survivors`` holds the *original* labels (sorted ascending) of the
    largest surviving component; ``overlay`` is the Theorem 1.1 build on
    that component relabelled to ``0..k-1`` (position in ``survivors``),
    so ``survivors[overlay.bfs.parent[i]]`` recovers original-label
    parents.
    """

    report: ChurnReport
    survivors: np.ndarray
    overlay: object  # OverlayBuildResult (import kept lazy, see below)


def rebuild_survivor_overlay(
    graph,
    p: float,
    rng: np.random.Generator,
    rooting: str | None = None,
    expander: str | None = None,
    params=None,
    hybrid: str | None = None,
    overlay_params=None,
    *,
    ctx=None,
) -> SurvivorRebuild:
    """Churn the graph, then rebuild a fresh overlay on the survivors.

    The §1.4 recovery step end-to-end: kill an independent ``p``-fraction
    of nodes, take the largest surviving component, and re-run
    :func:`repro.core.pipeline.build_well_formed_tree` on it — with the
    rooting (and optionally expander) phase on the chosen execution tier,
    SoA by default.  The build draws from ``rng.spawn()`` *after* the
    churn draw, so under a matched seed every tier reconstructs the
    identical survivor overlay (the regression pinned by
    ``tests/graphs/test_churn.py``).

    Passing ``hybrid`` (a tier from
    :data:`repro.hybrid.components.HYBRID_TIERS`) switches the rebuild to
    the §4 pipeline instead: *all* surviving components — not just the
    largest — get per-component well-formed trees via
    :func:`repro.hybrid.components.connected_components_hybrid` on the
    chosen tier (``"soa"`` keeps churn-rebuild loops practical at
    ``n ≥ 10⁵``), with ``overlay_params`` forwarded to the hybrid
    overlay.  ``survivors`` then lists every survivor and ``overlay`` is
    the :class:`~repro.hybrid.components.ComponentsResult`.  Both hybrid
    tiers rebuild bit-for-bit identically under a matched seed.

    A resolved ``ctx`` (:class:`~repro.runtime.context.RunContext`)
    supplies ``rooting``/``expander`` (Theorem 1.1 mode) and is threaded
    into every network the rebuild constructs; explicit kwargs win.
    ``ctx`` never *selects* hybrid mode — ``hybrid=None`` always means
    the Theorem 1.1 rebuild, and the hybrid tier comes from the explicit
    kwarg (``ctx.hybrid`` configures the pipeline only once selected).

    Raises
    ------
    ValueError
        If churn leaves fewer than two connected survivors (fewer than
        two survivors total in hybrid mode) — there is no overlay to
        rebuild.
    """
    # Lazy import: repro.core imports this package at module load.
    from repro.core.pipeline import build_well_formed_tree
    import networkx as nx

    if hybrid is not None:
        # Columnar end to end: the fail draw is the same single
        # ``fail_mask`` comparison the per-node path consumes, so hybrid
        # and non-hybrid rebuilds stay seed-matched, but the survivor
        # graph, the churn report, and the rebuild never materialise
        # per-node sets — which is what keeps this path practical at the
        # n ≥ 10⁵ scale it exists for.
        from repro.hybrid.components import connected_components_hybrid
        from repro.hybrid.soa_pipeline import CSRAdjacency, flood_min_ids_columns
        from repro.runtime import validate_tier

        validate_tier("hybrid", hybrid)
        if params is not None or rooting is not None or expander not in (
            None,
            "walks",
        ):
            raise ValueError(
                "params/rooting/expander configure the Theorem 1.1 rebuild "
                "and are ignored by the hybrid pipeline — pass overlay_params "
                "instead (or drop hybrid=)"
            )
        csr = CSRAdjacency.from_graph(graph)
        alive = fail_mask(csr.n, p, rng)
        build_rng = rng.spawn(1)[0]
        survivors = np.flatnonzero(alive).astype(np.int64)
        if survivors.shape[0] < 2:
            raise ValueError(
                f"churn at p={p} left fewer than 2 survivors to rebuild on"
            )
        survivor_graph = csr.induced_by(alive)
        labels, _rounds = flood_min_ids_columns(survivor_graph)
        report = ChurnReport(
            survivors=int(survivors.shape[0]),
            components=int(np.unique(labels).shape[0]),
            largest_component=int(np.bincount(labels).max()),
        )
        components = connected_components_hybrid(
            survivor_graph,
            rng=build_rng,
            overlay_params=overlay_params,
            tier=hybrid,
            ctx=ctx,
        )
        return SurvivorRebuild(report=report, survivors=survivors, overlay=components)

    adj = adjacency_sets(graph)
    surviving, alive = fail_nodes(adj, p, rng)
    build_rng = rng.spawn(1)[0]
    comps = _alive_components(surviving, alive)
    report = _report_from_components(comps, alive)

    largest = max(comps, key=len, default=[])
    if len(largest) < 2:
        raise ValueError(
            f"churn at p={p} left no component with >= 2 nodes to rebuild on"
        )
    survivors = np.array(sorted(largest), dtype=np.int64)
    relabel = {int(v): i for i, v in enumerate(survivors.tolist())}
    g = nx.Graph()
    g.add_nodes_from(range(survivors.shape[0]))
    for v in survivors.tolist():
        for u in surviving[v]:
            if u > v:
                g.add_edge(relabel[v], relabel[u])
    if ctx is None:
        # The Theorem 1.1 rebuild runs the SoA rooting tier (not the
        # pipeline's "reference" oracle).
        rooting = rooting if rooting is not None else "soa"
        expander = expander if expander is not None else "walks"
    overlay = build_well_formed_tree(
        g, params=params, rng=build_rng, rooting=rooting, expander=expander, ctx=ctx
    )
    return SurvivorRebuild(report=report, survivors=survivors, overlay=overlay)


def survival_curve(
    graph,
    failure_probs: list[float],
    rng: np.random.Generator,
    trials: int = 5,
) -> list[dict]:
    """Sweep churn levels; average the connectivity structure per level.

    Returns one dict per ``p`` with mean largest-component fraction,
    mean component count, and the fraction of trials that stayed
    connected.
    """
    adj = adjacency_sets(graph)
    rows = []
    for p in failure_probs:
        fractions = []
        comp_counts = []
        connected_trials = 0
        for _ in range(trials):
            surviving, alive = fail_nodes(adj, p, rng)
            report = churn_report(surviving, alive)
            fractions.append(report.largest_fraction)
            comp_counts.append(report.components)
            connected_trials += int(report.stayed_connected)
        rows.append(
            {
                "p": p,
                "mean_largest_fraction": float(np.mean(fractions)),
                "mean_components": float(np.mean(comp_counts)),
                "connected_rate": connected_trials / trials,
            }
        )
    return rows
