"""Context-path vs bare-call bit-for-bit equivalence (contract C8).

Threading one resolved :class:`~repro.runtime.context.RunContext`
through an entry point produces *identical* trees, labels, and scenario
rows to the bare call (``ctx=None``, the library default) — across
tiers and seeds.  Anything less means the context
changed execution, not just configuration.  And the context is the only
spelling: the engine it names is the engine every network runs, which
the ``TestContextEngineReachesEveryNetwork`` cases pin.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.core.batch_protocol import run_soa_expander
from repro.core.protocol import ExpanderNode, run_expander_on_network, run_protocol_expander
from repro.core.protocol_tree import (
    build_rooting_population,
    run_protocol_rooting,
    run_rooting_under_asynchrony,
)
from repro.core.pipeline import build_well_formed_tree
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.churn import rebuild_survivor_overlay
from repro.graphs.portgraph import PortGraph
from repro.net.asynchrony import run_with_asynchrony
from repro.net.network import CapacityPolicy
from repro.obs import Tracer
from repro.runtime import RunContext

SEEDS = range(12)
FLOOD_ROUNDS = 16
N = 96


def tree_sha(result) -> str:
    return hashlib.sha1(
        result.parent.tobytes() + result.depth.tobytes()
    ).hexdigest()


def rooting_graph(seed: int) -> PortGraph:
    return PortGraph.ring_with_chords(N, delta=16, chords=2, seed=seed)


class TestRootingInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_soa_ctx_matches_shim(self, seed):
        graph = rooting_graph(seed)
        shim = run_soa_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        ctx = RunContext.resolve()
        via_ctx = run_soa_rooting(
            graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed), ctx=ctx
        )
        assert tree_sha(via_ctx) == tree_sha(shim)
        assert via_ctx.metrics.as_dict() == shim.metrics.as_dict()

    def test_workers_field_selects_nothing(self, monkeypatch):
        # ``RunContext.workers`` is only recorded: delivery never leaves
        # the process, so a run at workers=2 cannot fork and builds the
        # workers=1 tree.
        def no_fork():
            raise AssertionError("delivery must not fork a process")

        monkeypatch.setattr(os, "fork", no_fork)
        graph = rooting_graph(0)
        runs = [
            run_soa_rooting(
                graph,
                FLOOD_ROUNDS,
                rng=np.random.default_rng(0),
                ctx=RunContext.resolve(workers=workers),
            )
            for workers in (1, 2)
        ]
        assert tree_sha(runs[1]) == tree_sha(runs[0])
        assert runs[1].metrics.as_dict() == runs[0].metrics.as_dict()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_object_ctx_matches_shim(self, seed):
        graph = rooting_graph(seed)
        shim = run_protocol_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        via_ctx = run_protocol_rooting(
            graph,
            FLOOD_ROUNDS,
            rng=np.random.default_rng(seed),
            ctx=RunContext.resolve(),
        )
        assert tree_sha(via_ctx) == tree_sha(shim)


class TestPipelineInvariance:
    @pytest.mark.parametrize("rooting", ("reference", "protocol", "soa"))
    def test_build_tree_ctx_matches_kwargs(self, rooting):
        ring = G.cycle_graph(64)
        shim = build_well_formed_tree(
            ring, rng=np.random.default_rng(3), rooting=rooting
        )
        ctx = RunContext.resolve(rooting=rooting)
        via_ctx = build_well_formed_tree(ring, rng=np.random.default_rng(3), ctx=ctx)
        assert np.array_equal(via_ctx.bfs.parent, shim.bfs.parent)
        assert np.array_equal(via_ctx.bfs.depth, shim.bfs.depth)
        assert via_ctx.round_ledger == shim.round_ledger

    @pytest.mark.parametrize("expander", ("protocol", "soa"))
    def test_ctx_reaches_the_expander_network(self, expander):
        """The context's tracer is threaded into the message-level
        expander phase as well as into rooting: one ``net`` table each."""
        from repro.obs import Tracer

        tracer = Tracer()
        ctx = RunContext.resolve(
            rooting="soa", expander=expander, tracer=tracer, seed=1
        )
        result = build_well_formed_tree(G.cycle_graph(64), rng=ctx.rng(), ctx=ctx)
        expander_net, rooting_net = tracer.tables_of("net")
        assert len(expander_net) == result.round_ledger["evolutions"]
        assert len(rooting_net) == result.round_ledger["bfs"]

    def test_explicit_kwarg_beats_context_field(self):
        """The shim merge: an explicit rooting kwarg wins over ctx.rooting."""
        ring = G.cycle_graph(48)
        ctx = RunContext.resolve(rooting="reference")
        overridden = build_well_formed_tree(
            ring, rng=np.random.default_rng(5), rooting="soa", ctx=ctx
        )
        plain = build_well_formed_tree(
            ring, rng=np.random.default_rng(5), rooting="soa"
        )
        assert np.array_equal(overridden.bfs.parent, plain.bfs.parent)


class TestChurnRebuildInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_theorem11_rebuild_ctx_matches_shim(self, seed):
        graph = G.complete_graph(40)
        shim = rebuild_survivor_overlay(graph, 0.3, np.random.default_rng(seed))
        # The shim default runs the SoA rooting tier; the context
        # spelling pins the same mode explicitly.
        ctx = RunContext.resolve(rooting="soa", expander="walks")
        via_ctx = rebuild_survivor_overlay(
            graph, 0.3, np.random.default_rng(seed), ctx=ctx
        )
        assert np.array_equal(via_ctx.survivors, shim.survivors)
        assert np.array_equal(via_ctx.overlay.bfs.parent, shim.overlay.bfs.parent)
        assert via_ctx.overlay.round_ledger == shim.overlay.round_ledger

    @pytest.mark.parametrize("seed", range(3))
    def test_hybrid_rebuild_ctx_matches_shim(self, seed):
        graph = PortGraph.ring_with_chords(150, delta=16, chords=2, seed=seed)
        shim = rebuild_survivor_overlay(
            graph, 0.15, np.random.default_rng(seed), hybrid="soa"
        )
        via_ctx = rebuild_survivor_overlay(
            graph,
            0.15,
            np.random.default_rng(seed),
            hybrid="soa",
            ctx=RunContext.resolve(),
        )
        assert np.array_equal(via_ctx.survivors, shim.survivors)
        assert np.array_equal(via_ctx.overlay.labels, shim.overlay.labels)
        assert np.array_equal(
            via_ctx.overlay.forest.parent, shim.overlay.forest.parent
        )
        assert via_ctx.overlay.ledger.summary() == shim.overlay.ledger.summary()

    def test_ctx_never_selects_hybrid_mode(self):
        """hybrid=None always means the Theorem 1.1 rebuild, even when the
        context carries a hybrid tier."""
        graph = G.complete_graph(40)
        ctx = RunContext.resolve(
            rooting="soa", expander="walks", hybrid="soa"
        )
        result = rebuild_survivor_overlay(graph, 0.3, np.random.default_rng(1), ctx=ctx)
        # A Theorem 1.1 SurvivorRebuild has a bfs tree, not hybrid labels.
        assert hasattr(result.overlay, "bfs")


class TestScenarioRowInvariance:
    @pytest.mark.parametrize("workload", ("rooting", "churn-rebuild"))
    def test_runner_ctx_matches_plain(self, workload):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.runner import ScenarioRunner

        tiers = ("object", "soa")
        spec = ScenarioSpec(name="invariance/baseline")
        plain = ScenarioRunner(
            sizes=(96,), seeds=(0, 1), tiers=tiers, workload=workload
        ).run_spec(spec)
        via_ctx = ScenarioRunner(
            sizes=(96,),
            seeds=(0, 1),
            tiers=tiers,
            workload=workload,
            ctx=RunContext.resolve(),
        ).run_spec(spec)
        from repro.scenarios.runner import tier_invariant_view

        assert [tier_invariant_view(r) for r in via_ctx] == [
            tier_invariant_view(r) for r in plain
        ]



def _rooting(ctx):
    return run_protocol_rooting(
        rooting_graph(0), FLOOD_ROUNDS, rng=np.random.default_rng(0), ctx=ctx
    )


def _protocol_expander(ctx):
    return run_protocol_expander(G.cycle_graph(24), rng=np.random.default_rng(0), ctx=ctx)


def _expander_on_network(ctx):
    return run_expander_on_network(
        ExpanderNode, G.cycle_graph(24), rng=np.random.default_rng(0), ctx=ctx
    )


def _asynchrony(ctx):
    graph = rooting_graph(0)
    return run_with_asynchrony(
        build_rooting_population(graph, FLOOD_ROUNDS, "object"),
        CapacityPolicy.ncc0(graph.n, graph.delta),
        np.random.default_rng(0),
        max_delay=2,
        max_rounds=5 * FLOOD_ROUNDS + 8,
        ctx=ctx,
    )


def _rooting_under_asynchrony(ctx):
    return run_rooting_under_asynchrony(
        rooting_graph(0), FLOOD_ROUNDS, 2, rng=np.random.default_rng(0), tier="object", ctx=ctx
    )


class TestContextEngineReachesEveryNetwork:
    """The engine a context names is the engine every network it reaches
    runs — otherwise ``ctx.as_dict()``, which bench artifacts embed,
    would misreport the run (contract C8)."""

    @pytest.mark.parametrize(
        "runner",
        [
            _rooting,
            _protocol_expander,
            _expander_on_network,
            _asynchrony,
            _rooting_under_asynchrony,
        ],
        ids=[
            "run_protocol_rooting",
            "run_protocol_expander",
            "run_expander_on_network",
            "run_with_asynchrony",
            "run_rooting_under_asynchrony",
        ],
    )
    def test_every_net_table_runs_the_context_engine(self, runner):
        tracer = Tracer()
        runner(RunContext.resolve(engine="legacy", tracer=tracer))
        tables = tracer.tables_of("net")
        assert tables
        assert [t.meta["engine"] for t in tables] == ["legacy"] * len(tables)

    @pytest.mark.parametrize(
        "run_soa",
        [
            lambda ctx: run_soa_rooting(rooting_graph(0), FLOOD_ROUNDS, ctx=ctx),
            lambda ctx: run_soa_expander(G.cycle_graph(16), ctx=ctx),
        ],
        ids=["run_soa_rooting", "run_soa_expander"],
    )
    def test_soa_runner_rejects_a_legacy_context(self, run_soa):
        with pytest.raises(
            ValueError, match="SoA protocol classes require the vectorized engine"
        ):
            run_soa(RunContext.resolve(engine="legacy", tracer=Tracer()))
