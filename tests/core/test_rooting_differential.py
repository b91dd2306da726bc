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
footnote-2 asynchrony synchroniser.
"""

import math

import numpy as np
import pytest

from repro.core.bfs import build_bfs_forest
from repro.core.params import ExpanderParams
from repro.core.protocol import run_protocol_expander
from repro.core.protocol_tree import run_protocol_rooting, run_rooting_under_asynchrony
from repro.core.soa_rooting import run_soa_rooting
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
