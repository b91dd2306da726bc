"""The five workloads of the end-to-end overlay-construction benchmark.

Each workload builds its inputs from the seed alone (the program under test
receives only those inputs), then offers two ways to do the same work:

- :meth:`Workload.call` — one public entry point of the stack, the
  untraced arm that every end-to-end metric is measured on;
- :meth:`Workload.layers` — the same work as the sequence of per-layer
  public calls that entry point makes, each wrapped in a bench-side
  ``layer(name)`` span, for the traced arm.

Both arms must produce the same :class:`Outcome` (fingerprint and round
count); the measurement loop checks that on every run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

import repro.core.euler as euler
from repro.core.batch_protocol import run_soa_expander
from repro.core.child_sibling import RootedTree
from repro.core.pipeline import build_well_formed_tree, rooting_flood_rounds
from repro.core.soa_rooting import csr_neighbors, run_soa_rooting
from repro.graphs import generators
from repro.graphs.portgraph import PortGraph
from repro.hybrid.components import (
    connected_components_hybrid,
    well_formed_forest_columns,
)
from repro.hybrid.overlay import HybridOverlayParams
from repro.hybrid.soa_pipeline import (
    CSRAdjacency,
    build_bfs_forest_soa,
    build_hybrid_overlay_soa,
    build_spanner_soa,
    flood_min_ids_columns,
    reduce_degree_soa,
)
from repro.runtime import RunContext
from repro.scenarios import CrashWave, LinkDelay, MessageDrop, ScenarioSpec
from repro.scenarios.runner import run_rooting_scenario, tier_invariant_view

#: Degree bound of the ring-with-chords inputs (the S2–S5 bench family).
DELTA = 16


def sha(*arrays: np.ndarray) -> str:
    """Short content hash of int64 arrays (the tree-SHA idiom of S3/S4)."""
    h = hashlib.sha1()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What a run must reproduce: output fingerprint and round count.

    ``max_node_load`` is set where the result itself carries the load (the
    §4 ledger); otherwise the measurement loop reads it from the networks.
    ``counts`` holds per-layer counts reported by the traced arm's calls.
    """

    fingerprint: dict[str, str]
    rounds: int
    max_node_load: int | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def key(self) -> tuple:
        return (sorted(self.fingerprint.items()), self.rounds)


def forest_problems(parent: np.ndarray, root_of: np.ndarray) -> list[str]:
    """Structural check of a rooted forest in parent-array form.

    Every component must have exactly one root (its ``root_of`` value,
    self-parented), every parent must lie in the child's component, and
    pointer doubling must carry every node to its root — which rules out
    cycles and proves the parent array spans each component.
    """
    n = parent.shape[0]
    problems = []
    ids = np.arange(n, dtype=np.int64)
    roots = ids[parent == ids]
    if not np.array_equal(roots, np.unique(root_of)):
        problems.append(f"roots {roots[:8].tolist()} != component ids")
    if (parent < 0).any() or (parent >= n).any():
        return problems + [f"{int(((parent < 0) | (parent >= n)).sum())} nodes unparented"]
    if not np.array_equal(root_of[parent], root_of):
        problems.append("a parent edge crosses components")
    anc = parent.copy()
    for _ in range(max(1, math.ceil(math.log2(max(2, n)))) + 1):
        anc = anc[anc]
    if not np.array_equal(anc, root_of):
        problems.append("parent pointers do not reach the root (cycle or split)")
    return problems


def tree_problems(parent: np.ndarray) -> list[str]:
    """A spanning tree with a unique root."""
    roots = np.flatnonzero(parent == np.arange(parent.shape[0]))
    if roots.shape[0] != 1:
        return [f"expected a unique root, got {roots[:8].tolist()}"]
    return forest_problems(parent, np.full(parent.shape[0], roots[0], dtype=np.int64))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a name, a size, and the calls it makes."""

    name: str
    n: int
    smoke_n: int
    workers: int = 1

    def context(self, seed: int) -> RunContext:
        """The run's whole execution configuration, pinned explicitly so
        no ``REPRO_*`` variable of the caller's shell can change it."""
        return RunContext.resolve(
            engine="vectorized",
            rooting="soa",
            expander="soa",
            hybrid="soa",
            workers=self.workers,
            seed=seed,
            sanitize=False,
            debug_soa=False,
            layout_reuse=True,
        )

    def build(self, n: int, seed: int) -> dict:
        raise NotImplementedError

    def call(self, inputs: dict, ctx: RunContext):
        raise NotImplementedError

    def outcome(self, inputs: dict, result) -> Outcome:
        raise NotImplementedError

    def validate(self, inputs: dict, result) -> list[str]:
        raise NotImplementedError

    def layers(self, inputs: dict, ctx: RunContext, layer) -> Outcome:
        raise NotImplementedError


class Theorem11(Workload):
    """``build_well_formed_tree`` on a cycle, SoA expander and rooting."""

    def build(self, n, seed):
        return {"graph": generators.cycle_graph(n), "n": n}

    def call(self, inputs, ctx):
        return build_well_formed_tree(inputs["graph"], rng=ctx.rng(), ctx=ctx)

    def outcome(self, inputs, result):
        tree = result.well_formed.tree
        return Outcome({"tree": sha(tree.parent, [tree.root])}, result.total_rounds)

    def validate(self, inputs, result):
        n = inputs["n"]
        wf = result.well_formed
        problems = tree_problems(wf.tree.parent)
        if wf.tree.n != n:
            problems.append(f"tree spans {wf.tree.n} of {n} nodes")
        if wf.max_degree() > 3:
            problems.append(f"well-formed tree degree {wf.max_degree()} > 3")
        if wf.depth() > math.ceil(math.log2(n)):
            problems.append(f"well-formed tree depth {wf.depth()} > log2 n")
        return problems

    def layers(self, inputs, ctx, layer):
        # The same calls, in the same order and on the same generator, as
        # build_well_formed_tree(expander="soa", rooting="soa").
        rng = ctx.rng()
        with layer("core.expander"):
            expanded = run_soa_expander(inputs["graph"], rng=rng)
        graph = expanded.final_graph
        with layer("core.rooting"):
            rooted = run_soa_rooting(
                graph, flood_rounds=rooting_flood_rounds(graph.n), rng=rng, ctx=ctx
            )
        tree = RootedTree(root=rooted.root, parent=rooted.parent.copy())
        with layer("core.wellform"):
            wf = euler.build_well_formed_from_tree(tree)
        rounds = 2 + expanded.rounds + rooted.rounds + wf.rounds
        return Outcome(
            {"tree": sha(wf.tree.parent, [wf.tree.root])},
            rounds,
            counts={
                "core.expander.rounds": expanded.rounds,
                "core.expander.messages": expanded.metrics.total_messages,
                "core.rooting.rounds": rooted.rounds,
                "core.rooting.messages": rooted.metrics.total_messages,
                "core.wellform.rounds": wf.rounds,
            },
        )


class Rooting(Workload):
    """``run_soa_rooting`` on a ring with two chord sets."""

    def build(self, n, seed):
        graph = PortGraph.ring_with_chords(n, delta=DELTA, chords=2, seed=seed)
        return {"graph": graph, "flood_rounds": math.ceil(math.log2(n)) + 8}

    def call(self, inputs, ctx):
        return run_soa_rooting(
            inputs["graph"], inputs["flood_rounds"], rng=ctx.rng(), ctx=ctx
        )

    def outcome(self, inputs, result):
        return Outcome({"tree": sha(result.parent, result.depth)}, result.rounds)

    def validate(self, inputs, result):
        parent, depth = result.parent, result.depth
        problems = tree_problems(parent)
        child = np.flatnonzero(parent != np.arange(parent.shape[0]))
        if not np.array_equal(depth[child], depth[parent[child]] + 1):
            problems.append("BFS depths are not parent depth + 1")
        indptr, flat = csr_neighbors(inputs["graph"])
        n = parent.shape[0]
        edges = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + flat
        wanted = child * n + parent[child]
        at = np.minimum(np.searchsorted(edges, wanted), edges.shape[0] - 1)
        if not np.array_equal(edges[at], wanted):
            problems.append("a tree edge is not a graph edge")
        return problems

    def layers(self, inputs, ctx, layer):
        with layer("core.rooting"):
            result = self.call(inputs, ctx)
        out = self.outcome(inputs, result)
        out.counts = {
            "core.rooting.rounds": result.rounds,
            "core.rooting.messages": result.metrics.total_messages,
        }
        return out


class Faults(Workload):
    """``run_rooting_scenario`` under delay, loss and a crash wave."""

    def build(self, n, seed):
        graph = PortGraph.ring_with_chords(n, delta=DELTA, chords=2, seed=seed)
        spec = ScenarioSpec(
            name="faults",
            delay=LinkDelay(4),
            drop=MessageDrop(0.05),
            crashes=(CrashWave(3, 0.1, rejoin_round=12),),
            fault_seed=seed,
        )
        return {"graph": graph, "spec": spec}

    def call(self, inputs, ctx):
        return run_rooting_scenario(
            inputs["graph"], inputs["spec"], ctx.seed, tier="soa", ctx=ctx
        )

    def outcome(self, inputs, row):
        view = json.dumps(tier_invariant_view(row), sort_keys=True)
        return Outcome(
            {"row": hashlib.sha1(view.encode()).hexdigest()[:16]}, row["rounds"]
        )

    def validate(self, inputs, row):
        return [f"scenario row has {key}=False" for key in ("converged", "spanned") if not row[key]]

    def layers(self, inputs, ctx, layer):
        with layer("scenarios"):
            row = self.call(inputs, ctx)
        return self.outcome(inputs, row)


class Hybrid(Workload):
    """``connected_components_hybrid`` (§4) on the SoA tier."""

    params = HybridOverlayParams(delta=64, ell=16, num_evolutions=3)

    def build(self, n, seed):
        graph = PortGraph.ring_with_chords(n, delta=DELTA, chords=4, seed=seed)
        return {"adj": CSRAdjacency.from_graph(graph)}

    def call(self, inputs, ctx):
        return connected_components_hybrid(
            inputs["adj"], rng=ctx.rng(), overlay_params=self.params, ctx=ctx
        )

    def outcome(self, inputs, result):
        return Outcome(
            {
                "labels": sha(result.labels),
                "forest": sha(result.forest.parent, result.forest.root_of),
            },
            result.ledger.total_rounds,
            max_node_load=result.ledger.max_global_capacity,
        )

    def validate(self, inputs, result):
        truth, _rounds = flood_min_ids_columns(inputs["adj"])
        problems = []
        if not np.array_equal(result.labels, truth):
            problems.append("labels differ from the flood_min_ids_columns ground truth")
        return problems + forest_problems(result.forest.parent, result.forest.root_of)

    def layers(self, inputs, ctx, layer):
        # The stage calls of connected_components_hybrid_soa, in its order.
        rng = ctx.rng()
        with layer("hybrid.spanner"):
            spanner = build_spanner_soa(inputs["adj"], rng=rng, ctx=ctx)
        with layer("hybrid.reduce"):
            reduced = reduce_degree_soa(spanner)
        with layer("hybrid.overlay"):
            overlay = build_hybrid_overlay_soa(reduced, rng=rng, params=self.params)
        with layer("hybrid.bfs"):
            bfs = build_bfs_forest_soa(overlay.final_graph)
        with layer("hybrid.wellform"):
            forest = well_formed_forest_columns(bfs)
        # The §4 ledger charges each stage max(local, global) rounds; the
        # overlay's own ledger is merged in whole.
        rounds = (
            spanner.rounds
            + reduced.rounds
            + overlay.ledger.total_rounds
            + bfs.rounds
            + forest.rounds
        )
        return Outcome(
            {"labels": sha(bfs.root_of), "forest": sha(forest.parent, forest.root_of)},
            rounds,
            max_node_load=overlay.ledger.max_global_capacity,
            counts={
                "hybrid.spanner.rounds": spanner.rounds,
                "hybrid.overlay.max_global_capacity": overlay.ledger.max_global_capacity,
                "hybrid.bfs.rounds": bfs.rounds,
                "hybrid.wellform.rounds": forest.rounds,
            },
        )


#: Sizes keep one call near a second on a 2-CPU box, so a 10 s run
#: yields enough samples for a steady median; ``smoke_n`` is the
#: seconds-long smoke-test size.  Why each workload exists is recorded
#: in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Theorem11("thm11-cycle-4k", n=4096, smoke_n=128),
        Rooting("rooting-250k-w1", n=250_000, smoke_n=3000),
        Rooting("rooting-250k-w2", n=250_000, smoke_n=3000, workers=2),
        Faults("faults-60k", n=60_000, smoke_n=2000),
        Hybrid("hybrid-15k", n=15_000, smoke_n=1500),
    )
}
