"""Columnar well-formed forest: the §4 well-forming tail end-to-end.

The acceptance matrix for the columnar well-forming
(:func:`repro.core.euler.well_formed_forest_columns`): bit-for-bit
equality with the per-tree oracle (``tests/wellform_oracle.py``) over
≥ 12 seeds — parents,
roots, per-component trees, Euler tour entry/exit indices, and round
counts — plus the operational coverage the port must not regress: the
armed ``REPRO_SANITIZE`` sanitizer, and an engine-identical fault-matrix
row with a crash wave landing mid-rebuild.
"""

import numpy as np
import pytest

from repro import sanitize
from repro.core.bfs import build_bfs_forest
from repro.core.child_sibling import RootedTree, to_child_sibling_columns
from repro.core.euler import (
    euler_tour_forest,
    list_rank_with_finish,
    well_formed_forest_columns,
)
from repro.graphs import generators as G
from repro.graphs.analysis import adjacency_sets
from repro.graphs.portgraph import PortGraph
from repro.hybrid.components import connected_components_hybrid
from repro.scenarios import CrashWave, ScenarioSpec
from repro.scenarios.runner import run_churn_rebuild_scenario, tier_invariant_view
from wellform_oracle import euler_tour, list_rank, to_child_sibling, well_formed_forest

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


def forest_input(seed: int):
    return build_bfs_forest(adjacency_sets(mixture(seed)))


class TestChildSiblingColumns:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_matches_per_tree_oracle(self, seed):
        bfs = forest_input(seed)
        cs_parent = to_child_sibling_columns(bfs.parent)
        n = bfs.parent.shape[0]
        for root in sorted(set(bfs.root_of.tolist())):
            nodes = sorted(v for v in range(n) if bfs.root_of[v] == root)
            index = {v: i for i, v in enumerate(nodes)}
            local = RootedTree(
                root=index[root],
                parent=np.array(
                    [index[int(bfs.parent[v])] for v in nodes], dtype=np.int64
                ),
            )
            oracle = to_child_sibling(local)
            for v in nodes:
                assert cs_parent[v] == nodes[int(oracle.parent[index[v]])]

    def test_identity_forest_unchanged(self):
        parent = np.arange(7, dtype=np.int64)
        assert np.array_equal(to_child_sibling_columns(parent), parent)


class TestEulerTourForest:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_entry_exit_match_per_tree_tours(self, seed):
        bfs = forest_input(seed)
        cs_parent = to_child_sibling_columns(bfs.parent)
        tour = euler_tour_forest(cs_parent, bfs.root_of)
        n = cs_parent.shape[0]
        for root in sorted(set(bfs.root_of.tolist())):
            nodes = sorted(v for v in range(n) if bfs.root_of[v] == root)
            index = {v: i for i, v in enumerate(nodes)}
            local = RootedTree(
                root=index[root],
                parent=np.array(
                    [index[int(cs_parent[v])] for v in nodes], dtype=np.int64
                ),
            )
            oracle = euler_tour(local)
            for v in nodes:
                assert tour.first_entry[v] == oracle.first_entry[index[v]]
                assert tour.exit_entry[v] == oracle.exit_entry[index[v]]

    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_rank_rounds_match_standalone_list_rank(self, seed):
        """One combined Wyllie pass must report, per component, the round
        count the component's standalone tour ranking would have used."""
        bfs = forest_input(seed)
        cs_parent = to_child_sibling_columns(bfs.parent)
        tour = euler_tour_forest(cs_parent, bfs.root_of)
        n = cs_parent.shape[0]
        for root in sorted(set(bfs.root_of.tolist())):
            nodes = [v for v in range(n) if bfs.root_of[v] == root]
            if len(nodes) == 1:
                assert tour.rank_rounds[nodes[0]] == 0
                continue
            m = 2 * (len(nodes) - 1)
            succ = np.arange(1, m + 1, dtype=np.int64)
            succ[-1] = -1
            _, standalone = list_rank(succ)
            assert int(tour.rank_rounds[nodes].max()) == standalone

    def test_single_node_forest_all_sentinels(self):
        parent = np.arange(3, dtype=np.int64)
        tour = euler_tour_forest(parent, np.arange(3, dtype=np.int64))
        assert tour.first_entry.tolist() == [-1, -1, -1]
        assert tour.exit_entry.tolist() == [-1, -1, -1]
        assert tour.rounds == 0

    def test_path_and_star(self):
        # Path 0-1-2-3 (already degree ≤ 3): tour (0,1)(1,2)(2,3)(3,2)(2,1)(1,0).
        path = np.array([0, 0, 1, 2], dtype=np.int64)
        tour = euler_tour_forest(path, np.zeros(4, dtype=np.int64))
        assert tour.first_entry.tolist() == [-1, 0, 1, 2]
        assert tour.exit_entry.tolist() == [-1, 5, 4, 3]
        # Star centred at 0: children visited ascending, each a leaf.
        star = np.zeros(5, dtype=np.int64)
        tour = euler_tour_forest(star, np.zeros(5, dtype=np.int64))
        assert tour.first_entry.tolist() == [-1, 0, 2, 4, 6]
        assert tour.exit_entry.tolist() == [-1, 1, 3, 5, 7]

    def test_root_sentinel_contract(self):
        """``first_entry[root] == exit_entry[root] == -1`` — consumers
        must mask roots out before indexing (docs/contracts.md C6): -1
        silently aliases the last tour position under numpy indexing."""
        parent = np.array([0, 0, 1], dtype=np.int64)
        tour = euler_tour_forest(parent, np.zeros(3, dtype=np.int64))
        assert tour.first_entry[0] == -1 and tour.exit_entry[0] == -1
        positions = np.concatenate([tour.first_entry[1:], tour.exit_entry[1:]])
        assert sorted(positions.tolist()) == list(range(4))


class TestListRankWithFinish:
    def test_finish_rounds_per_element(self):
        succ = np.array([1, 2, 3, -1], dtype=np.int64)
        dist, finish, rounds = list_rank_with_finish(succ)
        plain_dist, plain_rounds = list_rank(succ)
        assert np.array_equal(dist, plain_dist)
        assert rounds == plain_rounds
        assert int(finish.max()) == rounds

    def test_two_lists_finish_independently(self):
        # A 2-chain finishes in round 1; an 8-chain needs 3 rounds.
        succ = np.array([1, -1, 3, 4, 5, 6, 7, 8, 9, -1], dtype=np.int64)
        _, finish, rounds = list_rank_with_finish(succ)
        assert rounds == 3
        assert int(finish[:2].max()) == 1
        assert int(finish[2:].max()) == 3


class TestForestDifferential:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_bit_for_bit_vs_object_oracle(self, seed):
        bfs = forest_input(seed)
        oracle = well_formed_forest(bfs)
        columnar = well_formed_forest_columns(bfs)
        assert np.array_equal(oracle.parent, columnar.parent)
        assert np.array_equal(oracle.root_of, columnar.root_of)
        assert oracle.rounds == columnar.rounds
        assert list(oracle.trees) == list(columnar.trees)
        for root in oracle.trees:
            a, b = oracle.trees[root], columnar.trees[root]
            assert a.tree.root == b.tree.root
            assert np.array_equal(a.tree.parent, b.tree.parent)
            assert a.rounds == b.rounds

    def test_well_formed_properties_hold(self):
        forest = well_formed_forest_columns(forest_input(3))
        assert forest.max_degree() <= 3
        for root, wft in forest.trees.items():
            size = wft.tree.parent.shape[0]
            assert wft.depth() <= int(np.ceil(np.log2(max(2, size)))) + 1
            wft.tree.validate()

    def test_empty_and_singleton_forests(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(4))
        bfs = build_bfs_forest(adjacency_sets(g))
        oracle = well_formed_forest(bfs)
        columnar = well_formed_forest_columns(bfs)
        assert np.array_equal(oracle.parent, columnar.parent)
        assert oracle.rounds == columnar.rounds == 0
        assert list(columnar.trees) == [0, 1, 2, 3]

    def test_lazy_trees_unknown_root_raises(self):
        forest = well_formed_forest_columns(forest_input(0))
        with pytest.raises(KeyError):
            forest.trees[10**9]


class TestOperationalCoverage:
    def test_runs_under_armed_sanitizer(self, monkeypatch):
        """The columnar well-forming feeds sanitized delivery lanes; an
        armed sanitizer must stay silent on the happy path."""
        monkeypatch.setattr(sanitize, "ENABLED", True)
        bfs = forest_input(5)
        oracle = well_formed_forest(bfs)
        columnar = well_formed_forest_columns(bfs)
        assert np.array_equal(oracle.parent, columnar.parent)
        per_node = connected_components_hybrid(
            mixture(5), rng=np.random.default_rng(5), m_bound=64
        )
        sanitized = connected_components_hybrid(
            mixture(5), rng=np.random.default_rng(5), m_bound=64, tier="soa"
        )
        assert np.array_equal(per_node.labels, sanitized.labels)
        assert np.array_equal(per_node.forest.parent, sanitized.forest.parent)

    def test_fault_matrix_row_engine_identical(self):
        """Crash wave mid-rebuild: the churn-rebuild scenario row (minus
        tier/wall-clock) is identical across hybrid tiers."""
        graph = PortGraph.ring_with_chords(256, delta=16, chords=2, seed=13)
        spec = ScenarioSpec(
            name="rebuild/churn10",
            crashes=(CrashWave(round_no=2, fraction=0.1),),
            fault_seed=1,
        )
        rows = {
            tier: run_churn_rebuild_scenario(graph, spec, seed=0, tier=tier)
            for tier in ("object", "soa")
        }
        assert tier_invariant_view(rows["object"]) == tier_invariant_view(rows["soa"])
        for row in rows.values():
            assert row["labels_match_ground_truth"]
