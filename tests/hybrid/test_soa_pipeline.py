"""Columnar §4 pipeline: bit-for-bit equivalence with the per-node path.

The ISSUE 5 acceptance matrix: the SoA spanner → degree-reduction →
overlay → components pipeline must reproduce the per-node implementations
exactly (edge sets, degrees, forests, labels, token-congestion ledger
totals) over a ≥ 12-seed matrix, plus unit coverage for the columnar
building blocks (CSR adjacency, ledger, flood/BFS tails).
"""

import numpy as np
import pytest

from repro.core.bfs import build_bfs_forest, distributed_bfs, flood_min_ids
from repro.graphs import generators as G
from repro.graphs.analysis import adjacency_sets, connected_components
from repro.graphs.portgraph import PortGraph
from repro.hybrid.components import connected_components_hybrid
from repro.hybrid.degree_reduction import reduce_degree
from repro.hybrid.overlay import HybridOverlayParams, build_hybrid_overlay
from repro.hybrid.soa_pipeline import (
    CSRAdjacency,
    SoAHybridLedger,
    SpannerColumns,
    build_bfs_forest_soa,
    build_hybrid_overlay_soa,
    build_spanner_soa,
    connected_components_hybrid_soa,
    distributed_bfs_columns,
    flood_min_ids_columns,
    reduce_degree_soa,
)
from repro.hybrid.spanner import build_spanner
from repro.net.hybrid import HybridLedger

MATRIX_SEEDS = range(12)


def mixture(seed: int):
    rng = np.random.default_rng(seed)
    mix, _ = G.component_mixture(
        [
            G.line_graph(20 + seed),
            G.cycle_graph(15 + (seed % 5)),
            G.star_graph(25),
            G.erdos_renyi_connected(30, 5.0, rng),
        ]
    )
    return mix


class TestCSRAdjacency:
    def test_from_graph_matches_adjacency_sets(self, rng):
        g = G.erdos_renyi_connected(60, 6.0, rng)
        csr = CSRAdjacency.from_graph(g)
        assert csr.to_sets() == adjacency_sets(g)

    def test_portgraph_fast_path(self):
        graph = PortGraph.ring_with_chords(200, delta=16, chords=2, seed=3)
        csr = CSRAdjacency.from_graph(graph)
        assert csr.to_sets() == graph.neighbor_sets()
        assert csr.max_degree() == max(len(s) for s in graph.neighbor_sets())

    def test_from_edges_dedups_and_drops_self_loops(self):
        csr = CSRAdjacency.from_edges(
            4, np.array([0, 0, 1, 2, 2]), np.array([1, 1, 0, 2, 3])
        )
        assert csr.to_sets() == [{1}, {0}, {3}, {2}]

    def test_neighbor_gather_preserves_order(self):
        csr = CSRAdjacency.from_edges(5, np.array([0, 0, 3]), np.array([2, 4, 4]))
        senders, targets = csr.neighbor_gather(np.array([0, 4], dtype=np.int64))
        assert senders.tolist() == [0, 0, 4, 4]
        assert targets.tolist() == [2, 4, 0, 3]

    def test_adjacency_sets_accepts_csr(self):
        csr = CSRAdjacency.from_edges(3, np.array([0]), np.array([2]))
        assert adjacency_sets(csr) == [{2}, set(), {0}]


class TestSoAHybridLedger:
    def test_matches_hybrid_ledger(self):
        a, b = HybridLedger(), SoAHybridLedger()
        for ledger in (a, b):
            ledger.charge("x", local_rounds=3, global_rounds=1, global_capacity=9)
            ledger.charge("y", global_rounds=7)
        sub = HybridLedger()
        sub.charge("inner", local_rounds=2, global_capacity=30)
        a.merge(sub, prefix="p/")
        b.merge(sub, prefix="p/")
        assert a.phases == b.phases
        assert a.summary() == b.summary()
        assert a.total_rounds == b.total_rounds == 3 + 7 + 2
        assert a.max_global_capacity == b.max_global_capacity == 30

    def test_growth_beyond_initial_capacity(self):
        ledger = SoAHybridLedger()
        for i in range(40):
            ledger.charge(f"p{i}", global_rounds=i)
        assert len(ledger) == 40
        assert ledger.phases[39] == ("p39", 0, 39, 0)
        assert ledger.total_rounds == sum(range(40))

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SoAHybridLedger().charge("bad", local_rounds=-1)

    def test_to_ledger_and_reverse_merge(self):
        col = SoAHybridLedger()
        col.charge("a", local_rounds=5)
        plain = col.to_ledger()
        assert isinstance(plain, HybridLedger)
        assert plain.phases == col.phases
        # A per-node ledger can absorb a columnar one and vice versa.
        other = HybridLedger()
        other.merge(col)
        assert other.phases == col.phases

    def test_empty_totals(self):
        ledger = SoAHybridLedger()
        assert ledger.total_rounds == 0
        assert ledger.max_global_capacity == 0
        assert ledger.summary() == {
            "phases": 0,
            "total_rounds": 0,
            "max_global_capacity": 0,
        }


class TestSpannerEquivalence:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_spanner_bit_for_bit(self, seed):
        g = mixture(seed)
        per_node = build_spanner(g, np.random.default_rng(seed))
        columnar = build_spanner_soa(g, np.random.default_rng(seed))
        as_result = columnar.to_result()
        assert [set(s) for s in as_result.out_edges] == [
            set(s) for s in per_node.out_edges
        ]
        assert np.array_equal(as_result.active, per_node.active)
        assert np.array_equal(as_result.added_all, per_node.added_all)
        assert np.array_equal(as_result.shifts, per_node.shifts)
        assert as_result.rounds == per_node.rounds
        assert columnar.max_outdegree() == per_node.max_outdegree()
        assert columnar.num_directed_edges() == per_node.num_directed_edges()

    def test_dense_and_star_shapes(self, rng):
        mix, _ = G.component_mixture([G.star_graph(40), G.complete_graph(25)])
        per_node = build_spanner(mix, np.random.default_rng(5))
        columnar = build_spanner_soa(mix, np.random.default_rng(5))
        assert [set(s) for s in columnar.to_result().out_edges] == [
            set(s) for s in per_node.out_edges
        ]

    def test_component_bound_matches(self):
        g = mixture(3)
        per_node = build_spanner(g, np.random.default_rng(3), component_bound=32)
        columnar = build_spanner_soa(g, np.random.default_rng(3), component_bound=32)
        assert columnar.rounds == per_node.rounds
        assert [set(s) for s in columnar.to_result().out_edges] == [
            set(s) for s in per_node.out_edges
        ]

    def test_empty_graph(self):
        import networkx as nx

        columnar = build_spanner_soa(nx.Graph(), np.random.default_rng(0))
        assert columnar.n == 0 and columnar.num_directed_edges() == 0


class TestReductionEquivalence:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_reduction_bit_for_bit(self, seed):
        g = mixture(seed)
        per_node = reduce_degree(build_spanner(g, np.random.default_rng(seed)))
        columnar = reduce_degree_soa(build_spanner_soa(g, np.random.default_rng(seed)))
        as_reduced = columnar.to_reduced()
        assert as_reduced.adj == per_node.adj
        assert as_reduced.delegation == per_node.delegation
        assert columnar.max_degree() == per_node.max_degree()
        assert as_reduced.rounds == per_node.rounds

    def test_expand_edge_matches(self):
        g = mixture(1)
        per_node = reduce_degree(build_spanner(g, np.random.default_rng(1)))
        columnar = reduce_degree_soa(build_spanner_soa(g, np.random.default_rng(1)))
        for a, b in zip(
            columnar.edge_a.tolist()[:50], columnar.edge_b.tolist()[:50]
        ):
            assert columnar.expand_edge(a, b) == per_node.expand_edge(a, b)
            assert columnar.expand_edge(b, a) == per_node.expand_edge(b, a)


class TestOverlayEquivalence:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_overlay_bit_for_bit(self, seed):
        g = mixture(seed)
        per_spanner = build_spanner(g, np.random.default_rng(seed))
        per_node = build_hybrid_overlay(
            reduce_degree(per_spanner).adj, rng=np.random.default_rng(seed + 50)
        )
        columnar = build_hybrid_overlay_soa(
            reduce_degree_soa(build_spanner_soa(g, np.random.default_rng(seed))),
            rng=np.random.default_rng(seed + 50),
        )
        assert np.array_equal(
            per_node.final_graph.ports, columnar.final_graph.ports
        )
        assert per_node.final_graph.unique_edges() == columnar.final_graph.unique_edges()
        assert np.array_equal(
            per_node.final_graph.real_degree(), columnar.final_graph.real_degree()
        )
        assert list(per_node.base_registry) == list(columnar.base_registry)
        assert per_node.ledger.phases == columnar.ledger.phases
        assert per_node.ledger.summary() == columnar.ledger.summary()
        assert [s.__dict__ for s in per_node.history] == [
            s.__dict__ for s in columnar.history
        ]

    def test_degree_guard_matches_per_node(self):
        columnar = reduce_degree_soa(build_spanner_soa(mixture(2), np.random.default_rng(2)))
        tight = HybridOverlayParams(delta=8, ell=16, num_evolutions=1)
        with pytest.raises(ValueError, match="reduce the degree first"):
            build_hybrid_overlay_soa(columnar, params=tight)

    def test_base_registry_lazy_view(self):
        columnar = reduce_degree_soa(build_spanner_soa(mixture(0), np.random.default_rng(0)))
        overlay = build_hybrid_overlay_soa(columnar, rng=np.random.default_rng(1))
        registry = overlay.base_registry
        assert len(registry) > 0
        first = registry[0]
        assert first.source == (first.u, first.v)
        assert registry[-1].u == registry[len(registry) - 1].u
        with pytest.raises(IndexError):
            registry[len(registry)]
        assert [e.u for e in registry[:3]] == [registry[i].u for i in range(3)]


class TestFloodAndBFS:
    @pytest.mark.parametrize("seed", range(6))
    def test_flood_matches_reference(self, seed):
        g = mixture(seed)
        reference, ref_rounds = flood_min_ids(adjacency_sets(g))
        columnar, col_rounds = flood_min_ids_columns(CSRAdjacency.from_graph(g))
        assert np.array_equal(reference, columnar)
        assert ref_rounds == col_rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_bfs_matches_reference(self, seed):
        g = mixture(seed)
        adj = adjacency_sets(g)
        roots = sorted({min(c) for c in connected_components(adj)})
        p1, d1, r1 = distributed_bfs(adj, roots)
        p2, d2, r2 = distributed_bfs_columns(CSRAdjacency.from_graph(g), roots)
        assert np.array_equal(p1, p2) and np.array_equal(d1, d2) and r1 == r2

    def test_forest_matches_reference(self):
        graph = PortGraph.ring_with_chords(300, delta=16, chords=2, seed=9)
        reference = build_bfs_forest(graph)
        columnar = build_bfs_forest_soa(graph)
        assert np.array_equal(reference.parent, columnar.parent)
        assert np.array_equal(reference.depth, columnar.depth)
        assert np.array_equal(reference.root_of, columnar.root_of)
        assert reference.roots == columnar.roots
        assert reference.rounds == columnar.rounds

    def test_isolated_nodes(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(1, 3)
        reference = build_bfs_forest(adjacency_sets(g))
        columnar = build_bfs_forest_soa(CSRAdjacency.from_graph(g))
        assert np.array_equal(reference.parent, columnar.parent)
        assert reference.roots == columnar.roots
        assert reference.rounds == columnar.rounds


class TestComponentsEquivalence:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_components_bit_for_bit(self, seed):
        g = mixture(seed)
        per_node = connected_components_hybrid(
            g, rng=np.random.default_rng(seed), m_bound=64
        )
        columnar = connected_components_hybrid(
            g, rng=np.random.default_rng(seed), m_bound=64, tier="soa"
        )
        assert np.array_equal(per_node.labels, columnar.labels)
        assert np.array_equal(per_node.forest.parent, columnar.forest.parent)
        assert np.array_equal(per_node.forest.root_of, columnar.forest.root_of)
        assert np.array_equal(per_node.bfs.parent, columnar.bfs.parent)
        assert np.array_equal(per_node.bfs.depth, columnar.bfs.depth)
        assert per_node.ledger.phases == columnar.ledger.phases
        assert per_node.ledger.summary() == columnar.ledger.summary()
        assert np.array_equal(
            per_node.overlay.final_graph.ports, columnar.overlay.final_graph.ports
        )
        assert per_node.components() == columnar.components()

    def test_selected_tier_labels_ground_truth(self):
        """Runs under whichever REPRO_HYBRID the environment selects —
        the CI tier-matrix job exercises both values so neither path can
        silently rot."""
        from repro.runtime import select_choice

        tier = select_choice("hybrid")
        g = mixture(7)
        result = connected_components_hybrid(
            g, rng=np.random.default_rng(7), m_bound=64, tier=tier
        )
        truth = {
            min(c): sorted(c) for c in connected_components(adjacency_sets(g))
        }
        assert {k: sorted(v) for k, v in result.components().items()} == truth

    def test_invalid_tier_rejected(self):
        with pytest.raises(ValueError, match="tier must be one of"):
            connected_components_hybrid(mixture(0), tier="warp")

    def test_columnar_results_carry_columns(self):
        result = connected_components_hybrid(
            mixture(0), rng=np.random.default_rng(0), tier="soa"
        )
        assert isinstance(result.spanner, SpannerColumns)
        assert isinstance(result.ledger, SoAHybridLedger)
        # The columnar spanner still interops with set-based consumers.
        assert result.spanner.to_result().max_outdegree() >= 0


class TestDirtyBitBroadcast:
    def test_message_volume_collapses_but_result_matches(self):
        """The SoA broadcast suppresses unchanged re-sends (idempotent
        merges); the spanner must still equal the plainly re-sending
        per-node oracle."""
        graph = PortGraph.ring_with_chords(400, delta=16, chords=2, seed=11)
        per_node = build_spanner(graph, np.random.default_rng(4))
        columnar = build_spanner_soa(graph, np.random.default_rng(4))
        assert [set(s) for s in columnar.to_result().out_edges] == [
            set(s) for s in per_node.out_edges
        ]
