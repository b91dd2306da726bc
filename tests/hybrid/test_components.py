"""Connected components (Theorem 1.2) tests."""

import numpy as np
import pytest

from repro.graphs import generators as G
from repro.graphs.analysis import adjacency_sets, connected_components
from repro.hybrid.components import (
    ComponentsResult,
    connected_components_hybrid,
    well_formed_forest_columns,
)
from repro.core.bfs import build_bfs_forest


def ground_truth(graph):
    return {
        min(c): sorted(c) for c in connected_components(adjacency_sets(graph))
    }


class TestLabels:
    @pytest.mark.parametrize("seed", range(3))
    def test_mixture_labels_exact(self, seed):
        rng = np.random.default_rng(seed)
        mix, _ = G.component_mixture(
            [
                G.line_graph(30),
                G.cycle_graph(25),
                G.star_graph(40),
                G.erdos_renyi_connected(35, 6.0, rng),
            ]
        )
        res = connected_components_hybrid(mix, rng=rng, m_bound=64)
        assert {k: sorted(v) for k, v in res.components().items()} == ground_truth(mix)

    def test_single_component(self, rng):
        g = G.cycle_graph(50)
        res = connected_components_hybrid(g, rng=rng)
        assert list(res.components()) == [0]

    def test_high_degree_components(self, rng):
        mix, _ = G.component_mixture([G.star_graph(60), G.complete_graph(20)])
        res = connected_components_hybrid(mix, rng=rng)
        assert {k: sorted(v) for k, v in res.components().items()} == ground_truth(mix)

    def test_singleton_components(self, rng):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(5))
        g.add_edge(0, 1)
        res = connected_components_hybrid(g, rng=rng)
        assert set(res.components()) == {0, 2, 3, 4}


def split_only(labels: np.ndarray) -> ComponentsResult:
    """A result carrying just ``labels`` — enough for ``components()``."""
    res = ComponentsResult.__new__(ComponentsResult)
    res.labels = labels
    return res


class TestComponentsSplit:
    """ISSUE 8 satellite: the columnar ``components()`` grouping sort
    replaced a per-element Python loop; its output — values *and* key
    insertion order — is pinned against the legacy loop here."""

    def test_gappy_labels_identical_to_legacy_loop(self):
        # Component-like (label = min member id) but gappy: labels
        # 0, 1, 4, 7 with nothing in between.
        labels = np.array([0, 1, 1, 0, 4, 4, 0, 7, 7, 4], dtype=np.int64)
        legacy: dict[int, list[int]] = {}
        for v, label in enumerate(labels.tolist()):
            legacy.setdefault(label, []).append(v)
        got = split_only(labels).components()
        assert got == legacy
        assert list(got) == list(legacy)  # ascending == first-occurrence order

    def test_arbitrary_labels_values_match_legacy(self):
        # Not component-like: key order differs (ascending vs first
        # occurrence) but memberships are still identical — dict
        # equality ignores order, which is all non-pipeline callers get.
        labels = np.array([7, 3, 3, 7, 0, 11, 0, 7, 11, 0], dtype=np.int64)
        legacy: dict[int, list[int]] = {}
        for v, label in enumerate(labels.tolist()):
            legacy.setdefault(label, []).append(v)
        got = split_only(labels).components()
        assert got == legacy
        assert list(got) == sorted(legacy)

    def test_noncontiguous_single_member_labels(self):
        labels = np.array([2, 0, 2, 5], dtype=np.int64)
        assert split_only(labels).components() == {0: [1], 2: [0, 2], 5: [3]}

    def test_empty_labels(self):
        assert split_only(np.empty(0, dtype=np.int64)).components() == {}

    @pytest.mark.parametrize("seed", range(3))
    def test_random_labels_differential(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 9, size=60).astype(np.int64)
        # Legacy key order was first occurrence, not ascending — make the
        # labels "component-like" (label = min member id) as the pipeline
        # guarantees, by remapping each group's label to its first index.
        first = {}
        for v, label in enumerate(labels.tolist()):
            first.setdefault(label, v)
        labels = np.array([first[label] for label in labels.tolist()])
        legacy: dict[int, list[int]] = {}
        for v, label in enumerate(labels.tolist()):
            legacy.setdefault(label, []).append(v)
        got = split_only(labels).components()
        assert got == legacy
        assert list(got) == list(legacy)


class TestForest:
    def test_trees_are_well_formed(self, rng):
        mix, members = G.component_mixture([G.line_graph(40), G.cycle_graph(33)])
        res = connected_components_hybrid(mix, rng=rng)
        assert res.forest.max_degree() <= 3
        for root, wft in res.forest.trees.items():
            size = len([v for v in range(73) if res.forest.root_of[v] == root])
            assert wft.depth() <= int(np.ceil(np.log2(max(2, size)))) + 1

    def test_forest_parent_arrays_consistent(self, rng):
        mix, members = G.component_mixture([G.line_graph(20), G.star_graph(15)])
        res = connected_components_hybrid(mix, rng=rng)
        for v in range(35):
            p = int(res.forest.parent[v])
            # Parent stays within the component.
            assert res.forest.root_of[p] == res.forest.root_of[v]

    def test_well_formed_forest_helper(self):
        mix, _ = G.component_mixture([G.line_graph(10), G.line_graph(12)])
        bfs = build_bfs_forest(adjacency_sets(mix))
        forest = well_formed_forest_columns(bfs)
        assert set(forest.trees) == {0, 10}
        assert forest.max_degree() <= 3


class TestLedger:
    def test_m_bound_shortens_broadcast(self, rng):
        mix, _ = G.component_mixture([G.line_graph(32)] * 4)
        wide = connected_components_hybrid(mix, rng=np.random.default_rng(0))
        tight = connected_components_hybrid(
            mix, rng=np.random.default_rng(0), m_bound=32
        )
        assert tight.spanner.rounds <= wide.spanner.rounds

    def test_ledger_phases_cover_pipeline(self, rng):
        res = connected_components_hybrid(G.cycle_graph(40), rng=rng)
        names = [name for name, *_ in res.ledger.phases]
        assert names[0] == "spanner_broadcast"
        assert "degree_reduction" in names
        assert any(name.startswith("overlay/") for name in names)
        assert "well_forming" in names
