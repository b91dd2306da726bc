"""Child-sibling transformation tests (degree-3 guarantee)."""

import numpy as np
import pytest

from repro.core.child_sibling import RootedTree, to_child_sibling_columns
from wellform_oracle import to_child_sibling as oracle_child_sibling


def to_child_sibling(tree: RootedTree) -> RootedTree:
    """The library's columnar rewrite of one tree, checked against the
    per-tree oracle on the way."""
    cs = RootedTree(root=tree.root, parent=to_child_sibling_columns(tree.parent))
    assert np.array_equal(cs.parent, oracle_child_sibling(tree).parent)
    return cs


def star_tree(n: int) -> RootedTree:
    parent = np.zeros(n, dtype=np.int64)
    return RootedTree(root=0, parent=parent)


class TestRootedTree:
    def test_children_lists(self):
        tree = star_tree(5)
        children = tree.children_lists()
        assert children[0] == [1, 2, 3, 4]
        assert all(children[v] == [] for v in range(1, 5))

    def test_depth_array(self):
        tree = star_tree(4)
        assert tree.depth_array().tolist() == [0, 1, 1, 1]

    def test_invalid_root_rejected(self):
        with pytest.raises(ValueError):
            RootedTree(root=0, parent=np.array([1, 1]))

    def test_cycle_detected(self):
        # 1 -> 2 -> 1 cycle unreachable from the root.
        tree = RootedTree(root=0, parent=np.array([0, 2, 1]))
        with pytest.raises(ValueError):
            tree.validate()

    def test_max_degree_of_star(self):
        assert star_tree(6).max_degree() == 5


class TestChildSibling:
    def test_star_becomes_path(self):
        cs = to_child_sibling(star_tree(6))
        # Children 1..5 become the chain 0-1-2-3-4-5.
        assert cs.parent.tolist() == [0, 0, 1, 2, 3, 4]
        assert cs.max_degree() <= 3

    def test_degree_bound_always_holds(self, rng):
        from repro.graphs.generators import random_tree
        from repro.graphs.analysis import adjacency_sets, bfs_tree

        for seed in range(5):
            g = random_tree(60, np.random.default_rng(seed))
            parent = bfs_tree(adjacency_sets(g), 0)
            tree = RootedTree(root=0, parent=parent)
            cs = to_child_sibling(tree)
            assert cs.max_degree() <= 3

    def test_spans_same_nodes(self):
        cs = to_child_sibling(star_tree(10))
        cs.validate()
        assert cs.n == 10

    def test_binary_tree_unchanged_in_size(self):
        # A node with <= 1 child keeps its parent.
        parent = np.array([0, 0, 1, 2])  # path 0-1-2-3
        tree = RootedTree(root=0, parent=parent)
        cs = to_child_sibling(tree)
        assert cs.parent.tolist() == [0, 0, 1, 2]

    def test_depth_growth_bounded_by_degree(self):
        tree = star_tree(8)
        cs = to_child_sibling(tree)
        assert int(cs.depth_array().max()) == 7  # path through siblings
