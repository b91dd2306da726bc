"""Tier validation tests: the one consistent choice-listing message
shared by every layer that used to hand-roll the check."""

from __future__ import annotations

import pytest

from repro.runtime import validate_tier


class TestValidation:
    def test_valid_tier_returned(self):
        assert validate_tier("hybrid", "soa") == "soa"
        assert validate_tier("rooting", "object") == "object"

    def test_invalid_tier_message_lists_choices(self):
        with pytest.raises(
            ValueError,
            match=r"hybrid tier must be one of \('object', 'soa'\), got 'warp'",
        ):
            validate_tier("hybrid", "warp")

    def test_message_is_consistent_across_workloads(self):
        for name in ("rooting", "hybrid", "churn-rebuild"):
            with pytest.raises(ValueError, match=f"{name} tier must be one of"):
                validate_tier(name, "warp")

    def test_unknown_workload(self):
        with pytest.raises(
            ValueError,
            match=r"unknown workload 'grooting'; known: \['churn-rebuild', 'hybrid', 'rooting'\]",
        ):
            validate_tier("grooting", "soa")


class TestDedupedCallSites:
    """The three layers that owned private HYBRID_TIERS copies now raise
    the shared message."""

    def test_components_site(self):
        import numpy as np

        from repro.graphs import generators as G
        from repro.hybrid.components import connected_components_hybrid

        mix, _ = G.component_mixture([G.cycle_graph(8)])
        with pytest.raises(ValueError, match="hybrid tier must be one of"):
            connected_components_hybrid(
                mix, rng=np.random.default_rng(0), tier="warp"
            )

    def test_churn_site(self):
        import numpy as np

        from repro.graphs.churn import rebuild_survivor_overlay
        from repro.graphs.portgraph import PortGraph

        graph = PortGraph.ring_with_chords(32, delta=16, chords=1, seed=0)
        with pytest.raises(ValueError, match="hybrid tier must be one of"):
            rebuild_survivor_overlay(
                graph, 0.1, np.random.default_rng(0), hybrid="warp"
            )

    def test_scenario_runner_site(self):
        from repro.scenarios.runner import ScenarioRunner

        # The runner validates under the *workload* name — same shape,
        # same choice listing.
        with pytest.raises(ValueError, match="churn-rebuild tier must be one of"):
            ScenarioRunner(workload="churn-rebuild", tiers=("warp",))

    def test_scenario_runner_rooting_site(self):
        from repro.scenarios.runner import ScenarioRunner

        with pytest.raises(ValueError, match="rooting tier must be one of"):
            ScenarioRunner(workload="rooting", tiers=("warp",))
