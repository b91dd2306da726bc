"""Property-based tests for core algorithm components."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.child_sibling import RootedTree, to_child_sibling_columns
from repro.core.euler import (
    build_well_formed_from_tree,
    list_rank_with_finish,
    preorder_and_sizes,
)
from repro.core.expander import _accept_tokens
from wellform_oracle import euler_tour, heap_tree


def to_child_sibling(tree: RootedTree) -> RootedTree:
    return RootedTree(root=tree.root, parent=to_child_sibling_columns(tree.parent))


@st.composite
def random_rooted_trees(draw, max_n=40):
    """Random rooted trees via random parent attachment."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parent = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        parent[v] = draw(st.integers(min_value=0, max_value=v - 1))
    return RootedTree(root=0, parent=parent)


class TestChildSiblingProperties:
    @given(random_rooted_trees())
    @settings(max_examples=50, deadline=None)
    def test_degree_at_most_three(self, tree):
        cs = to_child_sibling(tree)
        assert cs.max_degree() <= 3

    @given(random_rooted_trees())
    @settings(max_examples=50, deadline=None)
    def test_spans_all_nodes(self, tree):
        cs = to_child_sibling(tree)
        cs.validate()  # raises if not a spanning tree
        assert cs.n == tree.n


class TestEulerProperties:
    @given(random_rooted_trees())
    @settings(max_examples=40, deadline=None)
    def test_tour_shape(self, tree):
        if tree.n == 1:
            return
        tour = euler_tour(tree)
        assert tour.length == 2 * (tree.n - 1)
        # Contiguity.
        for (a, b), (c, d) in zip(tour.edges, tour.edges[1:]):
            assert b == c

    @given(random_rooted_trees())
    @settings(max_examples=40, deadline=None)
    def test_preorder_sizes_sum(self, tree):
        labels, sizes, _ = preorder_and_sizes(tree)
        assert sizes[tree.root] == tree.n
        # Subtree sizes: each node's size = 1 + sum over children.
        children = tree.children_lists()
        for v in range(tree.n):
            assert sizes[v] == 1 + sum(sizes[c] for c in children[v])

    @given(random_rooted_trees())
    @settings(max_examples=40, deadline=None)
    def test_well_formed_tree_invariants(self, tree):
        wft = build_well_formed_from_tree(tree)
        assert wft.max_degree() <= 3
        if tree.n > 1:
            assert wft.depth() <= int(np.ceil(np.log2(tree.n))) + 1


class TestListRankProperties:
    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_chain_distances(self, m):
        succ = np.arange(1, m + 1, dtype=np.int64)
        succ[-1] = -1
        dist, _, rounds = list_rank_with_finish(succ)
        assert dist.tolist() == list(range(m - 1, -1, -1))
        if m > 1:
            assert rounds <= int(np.ceil(np.log2(m))) + 1


class TestHeapTreeProperties:
    @given(st.permutations(list(range(15))))
    @settings(max_examples=30, deadline=None)
    def test_heap_tree_on_permutation(self, order):
        tree = heap_tree(list(order))
        assert tree.root == order[0]
        assert tree.max_degree() <= 3
        depth = int(tree.depth_array().max())
        assert depth <= int(np.floor(np.log2(15)))


class TestAcceptanceProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=80),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_cap_never_exceeded_and_maximal(self, endpoints, cap, seed):
        endpoints = np.array(endpoints, dtype=np.int64)
        accepted = _accept_tokens(endpoints, cap, np.random.default_rng(seed))
        if endpoints.size == 0:
            assert accepted.size == 0
            return
        kept = endpoints[accepted]
        counts = np.bincount(kept, minlength=9)
        all_counts = np.bincount(endpoints, minlength=9)
        assert (counts <= cap).all()
        # Maximality: every endpoint keeps min(cap, received).
        assert (counts == np.minimum(all_counts, cap)).all()

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_accepted_indices_are_valid_and_unique(self, endpoints, seed):
        endpoints = np.array(endpoints, dtype=np.int64)
        accepted = _accept_tokens(endpoints, 2, np.random.default_rng(seed))
        assert len(set(accepted.tolist())) == accepted.size
        assert (accepted >= 0).all() and (accepted < endpoints.size).all()
