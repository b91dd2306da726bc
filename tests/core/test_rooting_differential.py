"""Differential tests on real evolution output: object rooting vs. SoA
rooting vs. reference BFS.

The rooting suites in ``test_soa_engines.py`` run on the ring-plus-chords
family; this one roots the graphs the message-level ``CreateExpander``
actually produces.  ``run_soa_rooting`` (the hot path) must yield the
identical ``(root, parent, depth)`` arrays, metrics and round counts as
``run_protocol_rooting`` (the oracle) over a 20-seed matrix, and both must
match the reference oracle of :mod:`repro.core.bfs` (same min-id election,
same min-id parent tie-break).  The object tier is additionally
cross-checked across both delivery engines, and both tiers under the
footnote-2 asynchrony synchroniser.  The flood fold writes its minimum
into ``best`` in place, over every node or over the nodes that heard
something; both branches are pinned to the object tier here.
"""

import math

import numpy as np
import pytest

from repro.core.bfs import build_bfs_forest
from repro.core.params import ExpanderParams
from repro.core.protocol import run_protocol_expander
from repro.core.protocol_tree import run_protocol_rooting, run_rooting_under_asynchrony
from repro.core import soa_rooting
from repro.core.soa_rooting import MIN_ID, SoARootingClass, run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.analysis import bfs_distances
from repro.runtime import RunContext

SEEDS = range(20)
TIERS = ("object", "soa")
FLOOD_ROUNDS = 8

RUNNERS = {"object": run_protocol_rooting, "soa": run_soa_rooting}


def small_expander(n: int, seed: int):
    params = ExpanderParams.recommended(n, ell=16).with_evolutions(
        math.ceil(math.log2(n)) + 2
    )
    return run_protocol_expander(
        G.line_graph(n), params=params, rng=np.random.default_rng(seed)
    ).final_graph


class TestDifferentialMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_object_and_soa_agree_bit_for_bit(self, seed):
        # Vary the size with the seed so the matrix covers several shapes.
        n = 32 + 8 * (seed % 4)
        graph = small_expander(n, seed)
        obj = run_protocol_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        soa = run_soa_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        assert obj.root == soa.root
        assert np.array_equal(obj.parent, soa.parent)
        assert np.array_equal(obj.depth, soa.depth)
        assert obj.metrics.as_dict() == soa.metrics.as_dict()
        assert obj.rounds == soa.rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_object_nodes_agree_across_engines(self, seed):
        graph = small_expander(40, seed)
        vec = run_protocol_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        leg = run_protocol_rooting(
            graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed),
            ctx=RunContext.resolve(engine="legacy")
        )
        assert vec.root == leg.root
        assert np.array_equal(vec.parent, leg.parent)
        assert np.array_equal(vec.depth, leg.depth)
        assert vec.metrics.as_dict() == leg.metrics.as_dict()


class TestAgainstReference:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_bfs(self, seed, tier):
        # The same tree as the centralised §2.1 oracle: min-id root,
        # min-id parent tie-break, true BFS depths.
        graph = small_expander(48, seed)
        result = RUNNERS[tier](graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        forest = build_bfs_forest(graph)
        assert forest.roots == [result.root]
        assert np.array_equal(result.parent, forest.parent)
        assert np.array_equal(result.depth, forest.depth)
        dist = bfs_distances(graph.neighbor_sets(), result.root)
        assert np.array_equal(result.depth, dist)

    @pytest.mark.parametrize("tier", TIERS)
    def test_no_drops_within_capacity(self, tier):
        graph = small_expander(64, seed=3)
        result = RUNNERS[tier](graph, FLOOD_ROUNDS)
        assert result.metrics.total_drops == 0
        assert result.metrics.max_sent_per_round <= graph.delta


class TestUnderAsynchrony:
    @pytest.mark.parametrize("tier", TIERS)
    def test_delayed_run_builds_the_synchronous_tree(self, tier):
        graph = small_expander(40, seed=5)
        sync = run_protocol_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(5))
        delayed, report = run_rooting_under_asynchrony(
            graph,
            FLOOD_ROUNDS,
            max_delay=4,
            rng=np.random.default_rng(5),
            tier=tier,
        )
        assert delayed.root == sync.root
        assert np.array_equal(delayed.parent, sync.parent)
        assert np.array_equal(delayed.depth, sync.depth)
        assert report.converged
        assert report.dilation == 4.0
        assert 1 <= report.observed_max_delay <= 4


class FoldSpy(SoARootingClass):
    """Records, per flood round that hears something, whether some node
    heard nothing, whether the staged payloads share memory with
    ``best`` (the in-place fold would then rewrite its own inbox), and
    whether the fold equals a per-message Python fold of the inbox.
    Min-id flooding heals a wrong fold within a round or two, so the
    final tree alone does not pin it."""

    log: list[tuple[int, bool, bool, bool]] = []

    def on_round_soa(self, round_no, inbox):
        heard = inbox.of_kind(MIN_ID)
        if round_no > self.flood_rounds or not len(heard):
            return super().on_round_soa(round_no, inbox)
        partial = heard.segments()[1].shape[0] < self.n
        shared = np.shares_memory(heard.payloads, self.best)
        expected = self.best.tolist()
        for v, p in zip(heard.receivers.tolist(), heard.payloads.tolist()):
            expected[v] = min(expected[v], p)
        out = super().on_round_soa(round_no, inbox)
        folded = self.best.tolist() == expected
        FoldSpy.log.append((round_no, partial, shared, folded))
        return out


@pytest.fixture
def fold_log(monkeypatch):
    FoldSpy.log = []
    monkeypatch.setattr(soa_rooting, "SoARootingClass", FoldSpy)
    return FoldSpy.log


class TestFloodFold:
    DEAF = 17

    @classmethod
    def _deaf_hook(cls, round_no, senders, receivers):
        # Node DEAF hears nothing while the first waves are in flight.
        return (receivers != cls.DEAF) | (round_no > 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_node_hearing_nothing_matches_object_tier(self, seed, fold_log):
        graph = small_expander(40, seed)
        ctx = RunContext.resolve(fault_hook=self._deaf_hook)
        obj = run_protocol_rooting(
            graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed), ctx=ctx
        )
        soa = run_soa_rooting(
            graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed), ctx=ctx
        )
        assert any(partial for _, partial, _, _ in fold_log)
        assert all(folded for _, _, _, folded in fold_log)
        assert soa.metrics.fault_drops > 0
        assert obj.root == soa.root
        assert np.array_equal(obj.parent, soa.parent)
        assert np.array_equal(obj.depth, soa.depth)
        assert obj.metrics.as_dict() == soa.metrics.as_dict()
        assert obj.rounds == soa.rounds

    @pytest.mark.parametrize("layout_reuse", [True, False])
    def test_staged_payloads_do_not_alias_best(self, layout_reuse, fold_log):
        graph = small_expander(48, seed=2)
        run_soa_rooting(
            graph,
            FLOOD_ROUNDS,
            rng=np.random.default_rng(2),
            ctx=RunContext.resolve(layout_reuse=layout_reuse),
        )
        assert [r for r, _, _, _ in fold_log] == list(range(1, FLOOD_ROUNDS + 1))
        assert not any(partial for _, partial, _, _ in fold_log)
        assert not any(shared for _, _, shared, _ in fold_log)
        assert all(folded for _, _, _, folded in fold_log)
