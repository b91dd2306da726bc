"""Euler tour technique: list ranking, preorder labels, and rebalancing.

The final step of the paper's pipeline (§2.1, following [53] and [27])
turns a rooted tree into a **well-formed tree** — rooted, constant
degree, depth ``O(log n)``:

1. rewrite the tree in child–sibling form (degree ≤ 3,
   :func:`~repro.core.child_sibling.to_child_sibling_columns`);
2. construct its Euler tour (every edge traversed once in each
   direction) via the purely local successor rule;
3. compute every tour element's *position* with pointer jumping
   (``O(log n)`` doubling rounds — implemented here as actual doubling on
   arrays, not a closed-form shortcut, so the round count is real);
4. label nodes by first visit (preorder) and rebuild the tree as a
   binary heap over that order: the node of rank ``r`` attaches to the node
   of rank ``⌊(r−1)/2⌋``.  Depth becomes ``⌊log₂ n⌋`` and degree ≤ 3.

There is one engine: :func:`euler_tour_forest` tours a whole forest in
flat columns and :func:`well_formed_forest_columns` rebalances every
component at once.  A single tree is the one-component case — that is
how :func:`build_well_formed_from_tree` (Theorem 1.1) and
:func:`preorder_and_sizes` run.  The same tour provides the preorder
labels ``l(v)`` and subtree sizes ``nd(v)`` for the Tarjan–Vishkin
biconnectivity algorithm (Theorem 1.4), which consumes them directly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.bfs import BFSForest
from repro.core.child_sibling import RootedTree, to_child_sibling_columns
from repro.net.vectorops import group_argsort

__all__ = [
    "EulerTourForest",
    "euler_tour_forest",
    "list_rank_with_finish",
    "preorder_and_sizes",
    "WellFormedTree",
    "ComponentForest",
    "well_formed_forest_columns",
    "build_well_formed_from_tree",
]


def list_rank_with_finish(
    successor: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """List ranking by pointer jumping (Wyllie's algorithm).

    ``successor[k]`` is the next element of a linked list (``-1`` at the
    tail); several disjoint lists may share the array.  Returns
    ``(distance_to_tail, finish, rounds)``: ``rounds`` is the number of
    doubling rounds performed — the synchronous rounds a distributed
    implementation needs (``⌈log₂ m⌉`` for the longest list of ``m``
    elements) — and ``finish[k]`` the number of rounds during which
    element ``k`` still held a live successor.  Pointer jumping evolves
    each element exactly as it would in a standalone run of its own
    list, so ``max(finish)`` over one list's elements is that list's
    own round count — which is how the columnar well-forming charges
    per-component rounds without a closed-form shortcut.

    Raises ``ValueError`` when the successors contain a cycle: after
    ``⌈log₂ m⌉ + 1`` rounds every list must have reached its tail.
    """
    m = successor.shape[0]
    nxt = successor.copy()
    dist = (nxt >= 0).astype(np.int64)
    finish = np.zeros(m, dtype=np.int64)
    max_rounds = (m - 1).bit_length() + 1
    rounds = 0
    while True:
        has_next = np.flatnonzero(nxt >= 0)
        if has_next.shape[0] == 0:
            return dist, finish, rounds
        if rounds == max_rounds:
            raise ValueError(
                f"successor array has a cycle: element {int(has_next[0])} "
                f"never reaches a tail"
            )
        rounds += 1
        finish[has_next] = rounds
        targets = nxt[has_next]
        dist[has_next] += dist[targets]
        new_nxt = nxt.copy()
        new_nxt[has_next] = nxt[targets]
        nxt = new_nxt


@dataclass
class EulerTourForest:
    """Euler tours of every tree of a forest, as flat global columns.

    ``first_entry[v]`` / ``exit_entry[v]`` are the indices of ``v``'s
    ``(parent, v)`` and ``(v, parent)`` traversals *within its own
    component's tour* (each tour starts at its root and has
    ``2(n_c - 1)`` entries), so the values are invariant under any
    monotone relabelling of a component.

    **Root-sentinel contract** (see ``docs/contracts.md``): the root has
    no parent edge, so ``first_entry`` and ``exit_entry`` are ``-1`` for
    every component root — and therefore for every singleton
    component's only node.  Consumers must branch on the root (or on
    ``entry >= 0``) before indexing with these values — ``-1`` silently
    aliases the *last* tour position under numpy indexing, which is a
    valid-looking wrong answer, not an error.  ``rank_rounds`` charges,
    per node, the pointer-jumping rounds its tour edges stayed live in
    the combined list ranking (0 for roots); the per-component maximum
    is the round count of ranking that component's tour alone.
    """

    first_entry: np.ndarray
    exit_entry: np.ndarray
    rank_rounds: np.ndarray
    rounds: int


def euler_tour_forest(parent: np.ndarray, root_of: np.ndarray) -> EulerTourForest:
    """Vectorized Euler tours of a whole forest via the successor rule.

    ``parent`` is a global parent array (roots self-parented; constant
    degree is *not* required) and ``root_of[v]`` identifies ``v``'s
    component.  One pass builds the successor array of every directed
    tree edge — neighbour order at each node is children ascending,
    then parent: the successor of ``(u, v)`` is ``(v, w)`` where ``w``
    follows ``u`` cyclically in ``v``'s order, a rule every node
    evaluates locally.  One combined pointer-jumping ranking positions
    all tours at once, so the cost is ``O(E log E)`` array work with no
    per-node Python.  A parent array with a cycle raises ``ValueError``
    naming the cycle.
    """
    parent = np.asarray(parent, dtype=np.int64)
    root_of = np.asarray(root_of, dtype=np.int64)
    n = parent.shape[0]
    first_entry = np.full(n, -1, dtype=np.int64)
    exit_entry = np.full(n, -1, dtype=np.int64)
    rank_rounds = np.zeros(n, dtype=np.int64)
    nonroot = np.flatnonzero(parent != np.arange(n, dtype=np.int64))
    k = nonroot.shape[0]
    if k == 0:
        return EulerTourForest(first_entry, exit_entry, rank_rounds, 0)

    # Children grouped by parent (ascending inside each group, since
    # ``nonroot`` is ascending and the grouping sort is stable).
    parents_of = parent[nonroot]
    order = group_argsort(parents_of, n)
    child = nonroot[order]
    par = parents_of[order]
    is_first = np.concatenate([[True], par[1:] != par[:-1]])
    is_last = np.concatenate([par[1:] != par[:-1], [True]])
    first_child = np.full(n, -1, dtype=np.int64)
    first_child[par[is_first]] = child[is_first]
    has_children = first_child >= 0
    # Down edge i traverses (par[i] -> child[i]); up edge k + i the
    # reverse.  ``slot[v]`` is v's down/up edge index.
    # Zero-init: ``slot`` is only meaningful for non-root nodes, but
    # masked ``np.where`` branches still gather through it.
    slot = np.zeros(n, dtype=np.int64)
    slot[child] = np.arange(k, dtype=np.int64)

    succ = np.empty(2 * k, dtype=np.int64)
    # Arriving at v from its parent: continue to v's first child, or
    # bounce straight back up if v is a leaf.
    succ[:k] = np.where(
        has_children[child],
        slot[np.maximum(first_child[child], 0)],
        np.arange(k, dtype=np.int64) + k,
    )
    # Arriving at p from child c: continue to c's next sibling (the
    # next grouped row), else climb to p's own up edge; the last child
    # of a root ends the tour (-1).
    parent_is_root = parent[par] == par
    succ[k:] = np.where(
        ~is_last,
        np.arange(1, k + 1, dtype=np.int64),
        np.where(parent_is_root, -1, k + slot[par]),
    )

    try:
        dist, finish, rounds = list_rank_with_finish(succ)
    except ValueError:
        raise ValueError(
            f"parent array contains a cycle: {_parent_cycle(parent)}"
        ) from None
    # Position within the component tour: the tail edge of a tour of
    # length m sits at position m - 1 and has distance 0 to itself.
    comp_nonroot = np.bincount(root_of[nonroot], minlength=n)
    tour_len = 2 * comp_nonroot[root_of[child]]
    first_entry[child] = tour_len - 1 - dist[:k]
    exit_entry[child] = tour_len - 1 - dist[k:]
    rank_rounds[child] = np.maximum(finish[:k], finish[k:])
    return EulerTourForest(first_entry, exit_entry, rank_rounds, rounds)


def _parent_cycle(parent: np.ndarray) -> str:
    """``"a -> b -> … -> a"`` for one cycle of ``parent`` (error path)."""
    parent = parent.tolist()
    done = [False] * len(parent)
    for start in range(len(parent)):
        path: list[int] = []
        on_path: set[int] = set()
        v = start
        while not done[v] and v not in on_path and parent[v] != v:
            path.append(v)
            on_path.add(v)
            v = parent[v]
        if v in on_path:
            cycle = path[path.index(v):] + [v]
            return " -> ".join(map(str, cycle))
        for u in path:
            done[u] = True
    return "none found"


def _tree_root_of(tree: RootedTree) -> np.ndarray:
    """``root_of`` of a single tree: every node in the root's component.

    A second self-parented node would be a forest passed off as a tree;
    it is rejected here (a cycle is caught by the tour's ranking).
    """
    n = tree.n
    if np.count_nonzero(tree.parent == np.arange(n, dtype=np.int64)) != 1:
        raise ValueError("parent array does not describe a single tree")
    return np.full(n, tree.root, dtype=np.int64)


def preorder_and_sizes(tree: RootedTree) -> tuple[np.ndarray, np.ndarray, int]:
    """Preorder labels ``l(v) ∈ {1..n}`` and subtree sizes ``nd(v)``.

    Read off the tree's Euler tour: ``l`` orders nodes by first visit
    (the root's ``-1`` entry sentinel sorts it first, label 1) and
    ``nd(v) = (exit(v) − enter(v) + 1) / 2`` counts tour edges inside the
    subtree (Tarjan–Vishkin Step 1/2); the root, which has no entry or
    exit, is assigned ``nd = n`` explicitly.  Returns
    ``(labels, sizes, rounds)`` with the list-ranking round count.
    """
    n = tree.n
    tour = euler_tour_forest(tree.parent, _tree_root_of(tree))
    labels = np.empty(n, dtype=np.int64)
    labels[np.argsort(tour.first_entry)] = np.arange(1, n + 1, dtype=np.int64)
    sizes = (tour.exit_entry - tour.first_entry + 1) // 2
    sizes[tree.root] = n
    return labels, sizes, tour.rounds


@dataclass
class WellFormedTree:
    """A well-formed tree (§1.2): rooted, degree ≤ 3, depth ``O(log n)``.

    ``rounds`` charges the overlay rounds of the transformation: one round
    for the child–sibling rewiring, the pointer-jumping rounds of list
    ranking, and ``⌈log₂ n⌉`` rounds for routing the rank-to-parent
    introductions along the doubling shortcuts.
    """

    tree: RootedTree
    rounds: int

    @property
    def root(self) -> int:
        return self.tree.root

    def depth(self) -> int:
        return int(self.tree.depth_array().max(initial=0))

    def max_degree(self) -> int:
        return self.tree.max_degree()


@dataclass
class ComponentForest:
    """Per-component well-formed trees assembled into global arrays.

    ``parent[v]`` is ``v``'s parent in its component's well-formed tree
    (roots point to themselves); ``root_of[v]`` identifies the component.
    """

    parent: np.ndarray
    root_of: np.ndarray
    trees: Mapping[int, WellFormedTree]
    rounds: int

    def max_depth(self) -> int:
        return max((t.depth() for t in self.trees.values()), default=0)

    def max_degree(self) -> int:
        return max((t.max_degree() for t in self.trees.values()), default=0)


class _LazyForestTrees(Mapping):
    """On-demand :class:`WellFormedTree` views over columnar forest state.

    The columnar well-forming never materialises per-component Python
    trees; this mapping rebuilds a component's tree in compact indices
    (its members relabelled ``0..n_c-1`` in id order) only when a
    consumer actually asks for it (tests, depth/degree audits).  Keys
    iterate ascending by root id.
    """

    def __init__(
        self,
        parent: np.ndarray,
        roots: np.ndarray,
        member_lists: np.ndarray,
        member_bounds: np.ndarray,
        comp_rounds: np.ndarray,
    ) -> None:
        self._parent = parent
        self._roots = roots
        self._members = member_lists
        self._bounds = member_bounds
        self._rounds = comp_rounds
        self._cache: dict[int, WellFormedTree] = {}

    def __len__(self) -> int:
        return int(self._roots.shape[0])

    def __iter__(self):
        return iter(self._roots.tolist())

    def __getitem__(self, root: int) -> WellFormedTree:
        root = int(root)
        cached = self._cache.get(root)
        if cached is not None:
            return cached
        at = int(np.searchsorted(self._roots, root))
        if at >= self._roots.shape[0] or self._roots[at] != root:
            raise KeyError(root)
        nodes = np.sort(self._members[self._bounds[at] : self._bounds[at + 1]])
        local_parent = np.searchsorted(nodes, self._parent[nodes])
        tree = RootedTree(
            root=int(np.searchsorted(nodes, root)), parent=local_parent
        )
        wft = WellFormedTree(tree=tree, rounds=int(self._rounds[at]))
        self._cache[root] = wft
        return wft


def _well_form(parent: np.ndarray, root_of: np.ndarray) -> ComponentForest:
    """Rebalance every tree of the forest ``(parent, root_of)`` at once."""
    n = parent.shape[0]
    root_of = np.asarray(root_of, dtype=np.int64)
    if n == 0:
        return ComponentForest(
            parent=np.arange(0, dtype=np.int64),
            root_of=root_of.copy(),
            trees={},
            rounds=0,
        )
    cs_parent = to_child_sibling_columns(parent)
    tour = euler_tour_forest(cs_parent, root_of)

    # Rank nodes inside each component by first tour entry; the root's
    # -1 sentinel sorts it to rank 0.  Keys are unique (entries are
    # distinct within a component), so the default introsort is
    # deterministic; key fits int64 for any n (root < n, entry < 2n).
    ranked = np.argsort(root_of * np.int64(2 * n + 2) + tour.first_entry + 1)
    grouped_roots = root_of[ranked]
    starts = np.flatnonzero(
        np.concatenate([[True], grouped_roots[1:] != grouped_roots[:-1]])
    )
    bounds = np.append(starts, n)
    sizes = np.diff(bounds)
    offsets = np.repeat(starts, sizes)
    rank = np.arange(n, dtype=np.int64) - offsets

    # Heap writeback: rank r (>= 1) hangs off rank (r - 1) // 2 of the
    # same component segment; rank 0 is the root, self-parented.
    wf_parent = np.empty(n, dtype=np.int64)
    heap_slot = np.maximum(offsets + (rank - 1) // 2, 0)
    wf_parent[ranked] = np.where(rank == 0, ranked, ranked[heap_slot])

    # Per-component rounds: 1 child–sibling round + the component's
    # real list-ranking rounds + ceil(log2 n_c) routing rounds
    # (singletons cost nothing) — then the forest max, as the
    # components rebalance in parallel.
    rank_rounds = np.maximum.reduceat(tour.rank_rounds[ranked], starts)
    routing = np.ceil(np.log2(np.maximum(2, sizes))).astype(np.int64)
    comp_rounds = np.where(sizes == 1, 0, 1 + rank_rounds + routing)

    trees = _LazyForestTrees(
        parent=wf_parent,
        roots=grouped_roots[starts],
        member_lists=ranked,
        member_bounds=bounds,
        comp_rounds=comp_rounds,
    )
    return ComponentForest(
        parent=wf_parent,
        root_of=root_of.copy(),
        trees=trees,
        rounds=int(comp_rounds.max(initial=0)),
    )


def well_formed_forest_columns(bfs: BFSForest) -> ComponentForest:
    """Transform every tree of a BFS forest into a well-formed tree.

    The Theorem 4.1 rebalancing as four flat passes over global arrays —
    no per-component ``dict`` relabelling, no Python successor walk:

    1. **child–sibling** conversion of the whole forest in one grouped
       sort (:func:`~repro.core.child_sibling.to_child_sibling_columns`);
    2. **Euler tours** of all components from the local successor rule,
       positioned by one combined pointer-jumping ranking
       (:func:`euler_tour_forest` — the doubling rounds are real, and
       charged per component);
    3. **preorder ranks** by sorting ``(component, first_entry)`` — the
       root's ``-1`` sentinel places it at rank 0 of its segment;
    4. **heap rebuild**: the node of component-rank ``r`` attaches to
       the node of rank ``⌊(r-1)/2⌋``, written straight into the global
       parent array.

    Rounds are the maximum over components (they run in parallel);
    ``trees`` maps each root to its component's tree, materialised
    lazily.  Equality with the per-tree reference chain is pinned over a
    12-seed matrix in ``tests/hybrid/test_columnar_forest.py``.
    """
    return _well_form(np.asarray(bfs.parent, dtype=np.int64), bfs.root_of)


def build_well_formed_from_tree(tree: RootedTree) -> WellFormedTree:
    """§2.1 final stage for one tree: child–sibling → Euler tour →
    preorder ranks → binary heap tree (the one-component case of
    :func:`well_formed_forest_columns`).  Raises ``ValueError`` unless
    ``tree`` is a single tree spanning all nodes."""
    forest = _well_form(tree.parent, _tree_root_of(tree))
    return WellFormedTree(
        tree=RootedTree(root=tree.root, parent=forest.parent),
        rounds=forest.rounds,
    )
