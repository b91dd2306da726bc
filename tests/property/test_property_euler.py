"""The columnar Euler-tour engine against the per-tree oracle, on
arbitrary rooted trees.

The 12-seed matrix in ``tests/hybrid/test_columnar_forest.py`` only sees
BFS forests, whose roots are minimum ids.  Here hypothesis draws random,
path and star shapes (n = 1 included), re-roots them at any node and
relabels them by a random permutation, then checks that
:mod:`repro.core.euler` reproduces ``tests/wellform_oracle.py`` exactly:
well-formed parents and rounds, preorder labels/sizes/rounds, and the
tour's edge order.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

import wellform_oracle as oracle
from repro.core.bfs import BFSForest
from repro.core.child_sibling import RootedTree
from repro.core.euler import (
    build_well_formed_from_tree,
    euler_tour_forest,
    preorder_and_sizes,
    well_formed_forest_columns,
)
from repro.hybrid.spanning_tree import _tour_edges


def rooted_at(n: int, edges: list[tuple[int, int]], root: int) -> np.ndarray:
    """Parent array of the tree ``edges`` oriented away from ``root``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                queue.append(w)
    return parent


@st.composite
def tree_edges(draw, n):
    """Edges of a random, path or star tree over ``0..n-1``, relabelled
    by a random permutation."""
    shape = draw(st.sampled_from(["random", "path", "star"]))
    if shape == "random":
        attach = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    elif shape == "path":
        attach = list(range(n - 1))
    else:
        attach = [0] * (n - 1)
    perm = draw(st.permutations(range(n)))
    return [(perm[v], perm[a]) for v, a in zip(range(1, n), attach)]


@st.composite
def rooted_trees(draw, max_n=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(tree_edges(n))
    root = draw(st.integers(min_value=0, max_value=n - 1))
    return RootedTree(root=root, parent=rooted_at(n, edges, root))


@st.composite
def forests(draw):
    """Several arbitrary rooted trees over one id space: component ids
    interleave and roots are arbitrary members, not minimum ids."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=5))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    parent = np.empty(n, dtype=np.int64)
    root_of = np.empty(n, dtype=np.int64)
    start = 0
    for size in sizes:
        members = ids[start : start + size]
        start += size
        edges = draw(tree_edges(size))
        local_root = draw(st.integers(min_value=0, max_value=size - 1))
        local = rooted_at(size, edges, local_root)
        for i, v in enumerate(members):
            parent[v] = members[int(local[i])]
            root_of[v] = members[local_root]
    return BFSForest(
        parent=parent,
        depth=np.zeros(n, dtype=np.int64),
        root_of=root_of,
        roots=sorted(set(root_of.tolist())),
        rounds=0,
    )


@given(rooted_trees())
@settings(max_examples=150, deadline=None)
def test_well_formed_matches_oracle(tree):
    got = build_well_formed_from_tree(tree)
    want = oracle.build_well_formed_from_tree(tree)
    assert got.root == want.root == tree.root
    assert np.array_equal(got.tree.parent, want.tree.parent)
    assert got.rounds == want.rounds


@given(rooted_trees())
@settings(max_examples=150, deadline=None)
def test_preorder_and_sizes_match_oracle(tree):
    labels, sizes, rounds = preorder_and_sizes(tree)
    want_labels, want_sizes, want_rounds = oracle.preorder_and_sizes(tree)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(sizes, want_sizes)
    assert rounds == want_rounds


@given(rooted_trees())
@settings(max_examples=150, deadline=None)
def test_tour_matches_oracle(tree):
    root_of = np.full(tree.n, tree.root, dtype=np.int64)
    tour = euler_tour_forest(tree.parent, root_of)
    want = oracle.euler_tour(tree)
    assert np.array_equal(tour.first_entry, want.first_entry)
    assert np.array_equal(tour.exit_entry, want.exit_entry)
    assert _tour_edges(tree.parent, root_of) == want.edges


@given(forests())
@settings(max_examples=80, deadline=None)
def test_forest_matches_oracle(bfs):
    got = well_formed_forest_columns(bfs)
    want = oracle.well_formed_forest(bfs)
    assert np.array_equal(got.parent, want.parent)
    assert got.rounds == want.rounds
    assert sorted(got.trees) == sorted(want.trees)
    for root, wft in want.trees.items():
        assert got.trees[root].root == wft.root
        assert np.array_equal(got.trees[root].tree.parent, wft.tree.parent)
        assert got.trees[root].rounds == wft.rounds
