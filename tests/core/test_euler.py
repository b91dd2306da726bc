"""Euler tour, list ranking, preorder, and heap-tree tests.

The tour-shape and heap-tree cases pin the per-tree reference chain in
``tests/wellform_oracle.py``; everything else runs the library's
columnar engine (:mod:`repro.core.euler`).
"""

import numpy as np
import pytest

from repro.core.bfs import BFSForest
from repro.core.child_sibling import RootedTree
from repro.core.euler import (
    build_well_formed_from_tree,
    euler_tour_forest,
    list_rank_with_finish,
    preorder_and_sizes,
    well_formed_forest_columns,
)
from wellform_oracle import euler_tour, heap_tree
from repro.graphs.analysis import adjacency_sets, bfs_tree
from repro.graphs.generators import random_tree


def path_tree(n: int) -> RootedTree:
    parent = np.maximum(np.arange(n) - 1, 0)
    return RootedTree(root=0, parent=parent)


def sample_tree(seed: int, n: int = 40) -> RootedTree:
    g = random_tree(n, np.random.default_rng(seed))
    parent = bfs_tree(adjacency_sets(g), 0)
    return RootedTree(root=0, parent=parent)


class TestEulerTour:
    def test_length_is_2n_minus_2(self):
        tree = sample_tree(0)
        tour = euler_tour(tree)
        assert tour.length == 2 * (tree.n - 1)

    def test_each_tree_edge_twice(self):
        tree = sample_tree(1)
        tour = euler_tour(tree)
        from collections import Counter

        counts = Counter(
            (min(u, v), max(u, v)) for u, v in tour.edges
        )
        assert all(c == 2 for c in counts.values())
        assert len(counts) == tree.n - 1

    def test_tour_is_contiguous(self):
        tree = sample_tree(2)
        tour = euler_tour(tree)
        for (a, b), (c, d) in zip(tour.edges, tour.edges[1:]):
            assert b == c
        assert tour.edges[0][0] == tree.root
        assert tour.edges[-1][1] == tree.root

    def test_entry_exit_indices(self):
        tree = path_tree(4)
        tour = euler_tour(tree)
        # Path tour: (0,1)(1,2)(2,3)(3,2)(2,1)(1,0).
        assert tour.first_entry[1] == 0
        assert tour.exit_entry[1] == 5
        assert tour.first_entry[3] == 2
        assert tour.exit_entry[3] == 3

    def test_single_node(self):
        tour = euler_tour(RootedTree(root=0, parent=np.array([0])))
        assert tour.length == 0


def tree_tour(tree: RootedTree):
    """The library's tour of one tree (the one-component forest)."""
    return euler_tour_forest(tree.parent, np.full(tree.n, tree.root))


class TestRootSentinel:
    """Contract C6 (docs/contracts.md): ``first_entry``/``exit_entry``
    are ``-1`` for the root — and for *every* slot of a single-node
    tree.  ``-1`` silently aliases the last tour position under numpy
    indexing, so consumers must mask roots out before gathering; these
    pins keep the sentinel itself from drifting."""

    def test_single_node_whole_array_is_sentinel(self):
        tour = tree_tour(RootedTree(root=0, parent=np.array([0])))
        assert tour.first_entry.tolist() == [-1]
        assert tour.exit_entry.tolist() == [-1]

    def test_path_root_sentinel(self):
        tour = tree_tour(path_tree(4))
        assert tour.first_entry[0] == -1 and tour.exit_entry[0] == -1
        # Every non-root entry/exit is a real tour position — no -1s.
        assert (tour.first_entry[1:] >= 0).all()
        assert (tour.exit_entry[1:] >= 0).all()

    def test_star_root_sentinel(self):
        star = RootedTree(root=0, parent=np.array([0, 0, 0, 0]))
        tour = tree_tour(star)
        assert tour.first_entry[0] == -1 and tour.exit_entry[0] == -1
        taken = np.concatenate([tour.first_entry[1:], tour.exit_entry[1:]])
        assert sorted(taken.tolist()) == list(range(6))

    def test_nonroot_entries_cover_tour_positions(self):
        tree = sample_tree(5)
        tour = tree_tour(tree)
        length = 2 * (tree.n - 1)
        nonroot = [v for v in range(tree.n) if v != tree.root]
        entries = sorted(int(tour.first_entry[v]) for v in nonroot)
        exits = sorted(int(tour.exit_entry[v]) for v in nonroot)
        assert min(entries) == 0 and max(exits) == length - 1
        assert sorted(entries + exits) == list(range(length))

    def test_non_minimum_root(self):
        # Path 0-1-2-3 rooted at 2: tour (2,1)(1,0)(0,1)(1,2)(2,3)(3,2).
        tree = RootedTree(root=2, parent=np.array([1, 2, 2, 2]))
        tour = tree_tour(tree)
        assert tour.first_entry.tolist() == [1, 0, -1, 4]
        assert tour.exit_entry.tolist() == [2, 3, -1, 5]


class TestListRank:
    def test_chain_ranks(self):
        succ = np.array([1, 2, 3, -1])
        dist, _, rounds = list_rank_with_finish(succ)
        assert dist.tolist() == [3, 2, 1, 0]
        assert rounds == 2  # ceil(log2 3) = 2 doubling rounds

    def test_rounds_logarithmic(self):
        m = 1000
        succ = np.arange(1, m + 1)
        succ[-1] = -1
        _, _, rounds = list_rank_with_finish(succ)
        assert rounds == 10  # ceil(log2(999))

    def test_empty_and_singleton(self):
        dist, _, rounds = list_rank_with_finish(np.array([-1]))
        assert dist.tolist() == [0]
        assert rounds == 0
        dist, _, rounds = list_rank_with_finish(np.array([], dtype=np.int64))
        assert dist.tolist() == [] and rounds == 0


class TestPreorder:
    def test_path_preorder(self):
        labels, sizes, _ = preorder_and_sizes(path_tree(5))
        assert labels.tolist() == [1, 2, 3, 4, 5]
        assert sizes.tolist() == [5, 4, 3, 2, 1]

    def test_matches_recursive_dfs(self):
        tree = sample_tree(3)
        labels, sizes, _ = preorder_and_sizes(tree)
        children = tree.children_lists()

        expected_labels = {}
        expected_sizes = {}
        counter = [1]

        def dfs(v):
            expected_labels[v] = counter[0]
            counter[0] += 1
            total = 1
            for c in children[v]:
                total += dfs(c)
            expected_sizes[v] = total
            return total

        dfs(tree.root)
        for v in range(tree.n):
            assert labels[v] == expected_labels[v]
            assert sizes[v] == expected_sizes[v]

    def test_labels_are_a_permutation(self):
        tree = sample_tree(4)
        labels, _, _ = preorder_and_sizes(tree)
        assert sorted(labels.tolist()) == list(range(1, tree.n + 1))


class TestHeapTree:
    def test_depth_and_degree(self):
        order = list(range(20))
        tree = heap_tree(order)
        assert tree.max_degree() <= 3
        assert int(tree.depth_array().max()) == 4  # floor(log2 19)

    def test_respects_order(self):
        order = [3, 1, 4, 0, 2]
        tree = heap_tree(order)
        assert tree.root == 3
        assert tree.parent[1] == 3 and tree.parent[4] == 3
        assert tree.parent[0] == 1 and tree.parent[2] == 1


class TestWellFormed:
    @pytest.mark.parametrize("seed", range(4))
    def test_well_formed_properties(self, seed):
        tree = sample_tree(seed, n=70)
        wft = build_well_formed_from_tree(tree)
        assert wft.max_degree() <= 3
        assert wft.depth() <= int(np.ceil(np.log2(70))) + 1
        wft.tree.validate()

    def test_rounds_are_logarithmic(self):
        tree = sample_tree(1, n=100)
        wft = build_well_formed_from_tree(tree)
        assert wft.rounds <= 4 * int(np.ceil(np.log2(100))) + 2

    def test_single_node(self):
        tree = RootedTree(root=0, parent=np.array([0]))
        wft = build_well_formed_from_tree(tree)
        assert wft.depth() == 0
        assert wft.rounds == 0


class TestCycleGuard:
    """A parent array with a cycle must raise, never hang: pointer
    jumping on a cyclic successor list has no tail to reach, so the
    ranking stops after ceil(log2 m) + 1 doubling rounds."""

    CYCLIC = np.array([0, 2, 1], dtype=np.int64)  # 1 -> 2 -> 1, root 0

    def test_build_well_formed_from_tree_raises(self):
        with pytest.raises(ValueError, match=r"cycle: 1 -> 2 -> 1"):
            build_well_formed_from_tree(RootedTree(root=0, parent=self.CYCLIC))

    def test_well_formed_forest_columns_raises(self):
        bfs = BFSForest(
            parent=self.CYCLIC,
            depth=np.zeros(3, dtype=np.int64),
            root_of=np.zeros(3, dtype=np.int64),
            roots=[0],
            rounds=0,
        )
        with pytest.raises(ValueError, match=r"cycle: 1 -> 2 -> 1"):
            well_formed_forest_columns(bfs)

    def test_preorder_and_sizes_raises(self):
        with pytest.raises(ValueError, match="cycle"):
            preorder_and_sizes(RootedTree(root=0, parent=self.CYCLIC))

    def test_cycle_hanging_off_a_path(self):
        # 3 -> 4 -> 5 -> 3 is a cycle; 6 hangs off it; 0-1-2 is a path.
        parent = np.array([0, 0, 1, 5, 3, 4, 4], dtype=np.int64)
        with pytest.raises(ValueError, match=r"cycle: 3 -> 5 -> 4 -> 3"):
            build_well_formed_from_tree(RootedTree(root=0, parent=parent))

    def test_cyclic_successor_list_raises(self):
        with pytest.raises(ValueError, match="successor array has a cycle"):
            list_rank_with_finish(np.array([1, 2, 0, -1], dtype=np.int64))

    def test_second_root_rejected(self):
        with pytest.raises(ValueError, match="single tree"):
            build_well_formed_from_tree(
                RootedTree(root=0, parent=np.array([0, 1, 0]))
            )
