"""Child–sibling tree transformation (§2.1, after [4] and [27]).

A BFS tree of the final expander has degree ``O(log n)``; a well-formed
tree must have *constant* degree.  The classic fix is the child–sibling
representation: each node keeps an edge only to its **first child**, and
each child keeps an edge to its **next sibling**.  Every node then has at
most three tree neighbours (parent-or-previous-sibling, first child, next
sibling), at the cost of stretching the depth by up to the maximum degree —
which the Euler-tour rebalancing (:mod:`repro.core.euler`) subsequently
repairs.

The construction is purely local: a node orders its children by identifier
and sends each child the id of its successor — one communication round in
the overlay, charged by the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.vectorops import group_argsort

__all__ = ["RootedTree", "to_child_sibling_columns"]


@dataclass
class RootedTree:
    """A rooted tree in parent-array form with derived children lists."""

    root: int
    parent: np.ndarray

    def __post_init__(self) -> None:
        self.parent = np.asarray(self.parent, dtype=np.int64)
        if self.parent[self.root] != self.root:
            raise ValueError("root must be its own parent")

    @property
    def n(self) -> int:
        return int(self.parent.shape[0])

    def children_lists(self) -> list[list[int]]:
        """Children of each node, sorted ascending."""
        children: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent.tolist()):
            if p != v:
                children[p].append(v)
        return children

    def max_degree(self) -> int:
        """Maximum tree degree (children + parent edge)."""
        counts = np.zeros(self.n, dtype=np.int64)
        for v, p in enumerate(self.parent.tolist()):
            if p != v:
                counts[p] += 1
                counts[v] += 1
        return int(counts.max(initial=0))

    def depth_array(self) -> np.ndarray:
        """Hop distance of every node from the root (iterative)."""
        depth = np.full(self.n, -1, dtype=np.int64)
        depth[self.root] = 0
        children = self.children_lists()
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in children[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        if (depth < 0).any():
            raise ValueError("parent array does not describe a single tree")
        return depth

    def validate(self) -> None:
        """Raise unless the parent array is a tree spanning all nodes."""
        self.depth_array()


def to_child_sibling_columns(parent: np.ndarray) -> np.ndarray:
    """Rewrite every tree of a forest in child–sibling form at once.

    ``parent`` is a global parent array describing any rooted forest
    (roots point to themselves).  For each node with children
    ``c₁ < c₂ < … < c_k`` (id order), ``parent(c₁)`` stays put and
    ``parent(c_{i+1})`` becomes ``c_i``, in one vectorized pass over all
    components — no per-component relabelling is needed, since child
    order is by node id and any monotone relabelling preserves it.  Each
    tree keeps its node set and gets maximum degree ≤ 3.

    Returns the new parent array; roots remain self-parented.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.shape[0]
    cs_parent = np.arange(n, dtype=np.int64)
    children = np.flatnonzero(parent != cs_parent)
    if children.shape[0] == 0:
        return cs_parent
    # ``children`` is ascending by id; the stable grouping sort yields
    # per-parent segments with children ascending inside each.
    parents_of = parent[children]
    order = group_argsort(parents_of, n)
    child = children[order]
    par = parents_of[order]
    first = np.concatenate([[True], par[1:] != par[:-1]])
    prev_sibling = np.concatenate([[0], child[:-1]])
    cs_parent[child] = np.where(first, par, prev_sibling)
    return cs_parent
