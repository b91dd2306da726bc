"""Per-tree reference chain for the Euler-tour engine (test oracle only).

A plainly written, one-tree-at-a-time copy of the paper's §2.1
well-forming: child–sibling rewrite → Euler tour by walking the local
successor rule → Wyllie list ranking → preorder labels → binary heap.
The library runs all of this through the columnar kernels of
:mod:`repro.core.euler`; the tests compare those kernels against this
module, bit for bit (parents, rounds, labels, sizes, tour edge order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bfs import BFSForest
from repro.core.child_sibling import RootedTree
from repro.core.euler import WellFormedTree


def to_child_sibling(tree: RootedTree) -> RootedTree:
    """Children ``c₁ < … < c_k`` of ``v``: ``c₁`` keeps ``v``, ``c_{i+1}``
    hangs off ``c_i``."""
    parent = np.arange(tree.n, dtype=np.int64)
    for v, childs in enumerate(tree.children_lists()):
        for i, c in enumerate(childs):
            parent[c] = v if i == 0 else childs[i - 1]
    cs_tree = RootedTree(root=tree.root, parent=parent)
    cs_tree.validate()
    return cs_tree


@dataclass
class EulerTour:
    """``edges[k]`` is the ``k``-th directed traversal; ``first_entry`` /
    ``exit_entry`` index each non-root node's ``(parent, v)`` /
    ``(v, parent)`` traversal (``-1`` for the root)."""

    root: int
    edges: list[tuple[int, int]]
    first_entry: np.ndarray
    exit_entry: np.ndarray

    @property
    def length(self) -> int:
        return len(self.edges)


def euler_tour(tree: RootedTree) -> EulerTour:
    """Walk the successor rule: at ``v`` (neighbours ordered children
    ascending, then parent), ``(u, v)`` is followed by ``(v, w)`` with
    ``w`` the neighbour after ``u`` cyclically."""
    n = tree.n
    first_entry = np.full(n, -1, dtype=np.int64)
    exit_entry = np.full(n, -1, dtype=np.int64)
    if n == 1:
        return EulerTour(tree.root, [], first_entry, exit_entry)
    order = tree.children_lists()
    for v in range(n):
        if v != tree.root:
            order[v].append(int(tree.parent[v]))
    index_of = [{u: i for i, u in enumerate(neigh)} for neigh in order]
    cur = (tree.root, order[tree.root][0])
    edges = [cur]
    for _ in range(2 * (n - 1) - 1):
        u, v = cur
        cur = (v, order[v][(index_of[v][u] + 1) % len(order[v])])
        edges.append(cur)
    for k, (u, v) in enumerate(edges):
        if tree.parent[v] == u and first_entry[v] < 0:
            first_entry[v] = k
        if tree.parent[u] == v:
            exit_entry[u] = k
    return EulerTour(tree.root, edges, first_entry, exit_entry)


def list_rank(successor: np.ndarray) -> tuple[np.ndarray, int]:
    """Wyllie pointer jumping: ``(distance_to_tail, rounds)``."""
    nxt = successor.copy()
    dist = (nxt >= 0).astype(np.int64)
    rounds = 0
    while (nxt >= 0).any():
        has_next = nxt >= 0
        targets = nxt[has_next]
        dist[has_next] += dist[targets]
        new_nxt = nxt.copy()
        new_nxt[has_next] = nxt[targets]
        nxt = new_nxt
        rounds += 1
    return dist, rounds


def preorder_and_sizes(tree: RootedTree) -> tuple[np.ndarray, np.ndarray, int]:
    """Labels by first tour entry, sizes ``(exit − enter + 1) / 2``, and
    the rounds of ranking the ``2(n−1)``-element tour."""
    n = tree.n
    if n == 1:
        return np.array([1], dtype=np.int64), np.array([1], dtype=np.int64), 0
    tour = euler_tour(tree)
    succ = np.arange(1, tour.length + 1, dtype=np.int64)
    succ[-1] = -1
    _dist, rounds = list_rank(succ)
    labels = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    labels[tree.root] = 1
    sizes[tree.root] = n
    others = sorted(
        (v for v in range(n) if v != tree.root), key=lambda v: int(tour.first_entry[v])
    )
    for i, v in enumerate(others):
        labels[v] = i + 2
        sizes[v] = (int(tour.exit_entry[v]) - int(tour.first_entry[v]) + 1) // 2
    return labels, sizes, rounds


def heap_tree(order: list[int]) -> RootedTree:
    """The node of rank ``r`` attaches to the node of rank ``⌊(r−1)/2⌋``."""
    parent = np.arange(len(order), dtype=np.int64)
    for r in range(1, len(order)):
        parent[order[r]] = order[(r - 1) // 2]
    return RootedTree(root=order[0], parent=parent)


def build_well_formed_from_tree(tree: RootedTree) -> WellFormedTree:
    """Child–sibling → tour → preorder → heap; rounds ``1 + ranking +
    ⌈log₂ n⌉`` (0 for a single node)."""
    n = tree.n
    if n == 1:
        return WellFormedTree(tree=tree, rounds=0)
    labels, _sizes, rank_rounds = preorder_and_sizes(to_child_sibling(tree))
    order = [0] * n
    for v in range(n):
        order[labels[v] - 1] = v
    wft = heap_tree(order)
    wft.validate()
    return WellFormedTree(tree=wft, rounds=1 + rank_rounds + int(np.ceil(np.log2(n))))


@dataclass
class ComponentForest:
    parent: np.ndarray
    root_of: np.ndarray
    trees: dict[int, WellFormedTree]
    rounds: int


def well_formed_forest(bfs: BFSForest) -> ComponentForest:
    """Every component relabelled to ``0..n_c-1`` in id order, rebalanced
    on its own and written back; rounds are the max over components."""
    n = bfs.parent.shape[0]
    parent = np.arange(n, dtype=np.int64)
    trees: dict[int, WellFormedTree] = {}
    members: dict[int, list[int]] = {}
    for v, root in enumerate(bfs.root_of.tolist()):
        members.setdefault(root, []).append(v)
    for root, nodes in members.items():
        index = {v: i for i, v in enumerate(nodes)}
        local = RootedTree(
            root=index[root],
            parent=np.array([index[int(bfs.parent[v])] for v in nodes], dtype=np.int64),
        )
        wft = build_well_formed_from_tree(local)
        trees[root] = wft
        for v in nodes:
            parent[v] = nodes[int(wft.tree.parent[index[v]])]
    rounds = max((t.rounds for t in trees.values()), default=0)
    return ComponentForest(parent, bfs.root_of.copy(), trees, rounds)
