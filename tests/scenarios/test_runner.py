"""ScenarioRunner: cross-tier differential grids and JSON output."""

import json

import pytest

from repro.graphs.portgraph import PortGraph
from repro.scenarios import (
    SCENARIO_GRIDS,
    CrashWave,
    LinkDelay,
    MessageDrop,
    ScenarioRunner,
    ScenarioSpec,
    run_rooting_scenario,
)
from repro.scenarios.runner import delay_drop_churn_grid, tier_invariant_view

COMPOSITE = ScenarioSpec(
    name="test/composite",
    delay=LinkDelay(3),
    drop=MessageDrop(0.05),
    crashes=(CrashWave(round_no=2, fraction=0.1, rejoin_round=7),),
    fault_seed=11,
)


class TestGridDifferential:
    """A named delay x drop x churn grid runs on both tiers with
    identical fault streams per seed."""

    def test_tiers_identical_rows(self):
        runner = ScenarioRunner(sizes=(128,), seeds=(0, 1), tiers=("object", "soa"))
        payload = runner.run_grid((COMPOSITE, ScenarioSpec(name="test/clean")))
        cells = {}
        for row in payload["rows"]:
            key = (row["scenario"]["name"], row["seed"])
            cells.setdefault(key, []).append(row)
        assert len(cells) == 4
        for key, rows in cells.items():
            assert len(rows) == 2, key
            views = [tier_invariant_view(r) for r in rows]
            assert views[1] == views[0], key

    def test_named_delay_drop_churn_grid_runs(self):
        runner = ScenarioRunner(sizes=(96,), seeds=(0,), tiers=("object", "soa"))
        grid = delay_drop_churn_grid(delays=(1, 3), drops=(0.0, 0.05), crash_fractions=(0.0, 0.2))
        payload = runner.run_grid(grid)
        assert len(payload["rows"]) == 8 * 2
        names = {r["scenario"]["name"] for r in payload["rows"]}
        assert len(names) == 8
        for row in payload["rows"]:
            assert row["rounds"] > 0
            assert row["elapsed_time_units"] == row["rounds"] * row["scenario"]["max_delay"]


class TestRows:
    def test_clean_cell_converges_and_spans(self):
        graph = PortGraph.ring_with_chords(128, delta=16, chords=2, seed=1)
        row = run_rooting_scenario(graph, ScenarioSpec(name="clean"), seed=0, tier="soa")
        assert row["converged"] and row["spanned"]
        assert row["num_roots"] == 1
        assert row["assigned_fraction"] == 1.0
        assert row["fault_drops"] == 0
        assert len(row["tree_sha"]) == 16

    def test_crash_at_start_partitions_into_a_forest(self):
        # Nodes isolated from round 0 never hear a smaller id, so they
        # root *themselves*: the run quiesces as a forest — converged,
        # but not spanned by one tree.
        graph = PortGraph.ring_with_chords(128, delta=16, chords=2, seed=1)
        spec = ScenarioSpec(
            name="crash0", crashes=(CrashWave(round_no=0, fraction=0.3),)
        )
        row = run_rooting_scenario(graph, spec, seed=0, tier="soa")
        assert row["converged"]
        assert not row["spanned"]
        assert row["num_roots"] > 1
        assert row["assigned_fraction"] == 1.0
        assert row["fault_drops"] > 0

    def test_mid_flood_crash_starves_convergence(self):
        # Nodes crashed *after* hearing a smaller id know they are not
        # roots but can never adopt a parent (isolated), so the network
        # never quiesces: the require_quiescence=False path flags it.
        graph = PortGraph.ring_with_chords(128, delta=16, chords=2, seed=1)
        spec = ScenarioSpec(
            name="crash3", crashes=(CrashWave(round_no=3, fraction=0.3),)
        )
        row = run_rooting_scenario(graph, spec, seed=0, tier="soa")
        assert not row["converged"]
        assert not row["spanned"]
        assert row["assigned_fraction"] < 1.0
        assert row["fault_drops"] > 0

    def test_payload_is_jsonable(self):
        runner = ScenarioRunner(sizes=(64,), seeds=(0,), tiers=("soa",))
        payload = runner.run_grid((COMPOSITE,))
        text = json.dumps(payload)
        assert json.loads(text)["rows"][0]["n"] == 64

    def test_write_json_roundtrip(self, tmp_path):
        runner = ScenarioRunner(sizes=(64,), seeds=(0,), tiers=("soa",))
        payload = runner.run_grid("partition")
        path = tmp_path / "rows.json"
        ScenarioRunner.write_json(payload, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(payload))


class TestValidation:
    def test_unknown_grid_raises(self):
        with pytest.raises(ValueError, match="unknown grid"):
            ScenarioRunner().run_grid("nope")

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="tier"):
            ScenarioRunner(tiers=("hyperdrive",))

    def test_known_grids_registered(self):
        assert {"smoke", "delay_drop_churn", "partition"} <= set(SCENARIO_GRIDS)


class TestGraphCache:
    def test_graphs_are_reused_across_specs(self):
        runner = ScenarioRunner(sizes=(64,), seeds=(0,), tiers=("soa",))
        g1 = runner.graph_for(64)
        g2 = runner.graph_for(64)
        assert g1 is g2


class TestChurnRebuildWorkload:
    """The scenario-driven churn-rebuild workload (ISSUE 5): crash waves
    kill for good, the §4 hybrid pipeline rebuilds per-component trees
    over the survivors, identically on both hybrid tiers."""

    SPEC = ScenarioSpec(
        name="rebuild/churn20",
        crashes=(CrashWave(round_no=2, fraction=0.2),),
        fault_seed=6,
    )

    def test_cell_is_tier_invariant(self):
        from repro.scenarios.runner import run_churn_rebuild_scenario

        graph = PortGraph.ring_with_chords(256, delta=16, chords=2, seed=1)
        rows = [
            run_churn_rebuild_scenario(graph, self.SPEC, seed=0, tier=tier)
            for tier in ("object", "soa")
        ]
        assert tier_invariant_view(rows[0]) == tier_invariant_view(rows[1])
        assert rows[0]["workload"] == "churn-rebuild"
        assert rows[0]["survivors"] < 256
        assert rows[0]["labels_match_ground_truth"]

    def test_kill_set_is_a_function_of_the_spec(self):
        from repro.scenarios.runner import run_churn_rebuild_scenario

        graph = PortGraph.ring_with_chords(200, delta=16, chords=2, seed=2)
        a = run_churn_rebuild_scenario(graph, self.SPEC, seed=0, tier="soa")
        b = run_churn_rebuild_scenario(graph, self.SPEC, seed=1, tier="soa")
        # Different delivery seeds, same fault_seed: same survivors.
        assert a["survivors"] == b["survivors"]

    def test_rejoined_waves_count_as_alive(self):
        from repro.scenarios.runner import run_churn_rebuild_scenario

        graph = PortGraph.ring_with_chords(128, delta=16, chords=2, seed=3)
        rejoined = ScenarioSpec(
            name="rebuild/rejoined",
            crashes=(
                CrashWave(round_no=0, fraction=0.3, rejoin_round=2),
                CrashWave(round_no=2, fraction=0.1),
            ),
            fault_seed=9,
        )
        row = run_churn_rebuild_scenario(graph, rejoined, seed=0, tier="soa")
        # Only the second (never-rejoining) wave is down at the reference
        # round, so strictly fewer than 30% + 10% of nodes are missing.
        assert row["survivors"] > 128 * 0.75

    def test_runner_grid_dispatches_by_workload(self):
        runner = ScenarioRunner(
            sizes=(96,), seeds=(0,), tiers=("object", "soa"),
            workload="churn-rebuild",
        )
        payload = runner.run_grid((self.SPEC,))
        assert len(payload["rows"]) == 2
        views = [tier_invariant_view(r) for r in payload["rows"]]
        assert views[0] == views[1]

    def test_workload_validates_tiers(self):
        with pytest.raises(ValueError, match="churn-rebuild"):
            ScenarioRunner(tiers=("batch",), workload="churn-rebuild")
        with pytest.raises(ValueError, match="rooting"):
            ScenarioRunner(tiers=("walks",), workload="rooting")
        with pytest.raises(ValueError, match="workload must be"):
            ScenarioRunner(workload="mining")

    def test_invalid_tier_in_cell(self):
        from repro.scenarios.runner import run_churn_rebuild_scenario

        graph = PortGraph.ring_with_chords(64, delta=16, chords=2, seed=0)
        with pytest.raises(ValueError, match="tier must be one of"):
            run_churn_rebuild_scenario(graph, self.SPEC, seed=0, tier="batch")
