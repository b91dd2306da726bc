"""Worker-count differential matrix: sharding never changes a bit.

ISSUE 6's tentpole acceptance: the sharded SoA round loop is **bit-for-
bit** equal to the single-process path — tree, per-node metrics, round
ledger — at every worker count, over the same 20-seed matrix the
three-way engine tests use.  Per-shard stable sorts over disjoint
ascending receiver ranges concatenate to the global stable receiver
sort, so nothing downstream can tell the difference; these tests pin
that end to end (rooting, synchroniser, fault hooks, and the per-node
send/receive counters that flush through ``metrics.as_dict()``).
"""

import math

import numpy as np
import pytest

from repro.core.protocol_tree import build_rooting_population, run_protocol_rooting
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs.portgraph import PortGraph
from repro.net.asynchrony import run_with_asynchrony
from repro.net.network import CapacityPolicy
from repro.runtime import RunContext
from repro.scenarios import MessageDrop, ScenarioSpec

SEEDS = range(20)


def overlay_like(n: int, seed: int, chords: int = 2) -> PortGraph:
    return PortGraph.ring_with_chords(n, delta=16, chords=chords, seed=seed)


def _flood_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n)))) + 4


def _run(graph, fr, seed, workers):
    return run_soa_rooting(
        graph, fr, rng=np.random.default_rng(seed), ctx=RunContext.resolve(workers=workers)
    )


def _assert_identical(a, b):
    assert a.root == b.root
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.depth, b.depth)
    # as_dict carries the per-node sent/received counters — the
    # "metrics flushing under the sharded path" satellite: identical
    # dictionaries mean identical per-node totals, not just aggregates.
    assert a.metrics.as_dict() == b.metrics.as_dict()
    assert a.rounds == b.rounds


class TestShardedRootingMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_workers_bit_for_bit(self, seed):
        n = 48 + 8 * (seed % 5)
        graph = overlay_like(n, seed, chords=2 + seed % 2)
        fr = _flood_rounds(n)
        _assert_identical(_run(graph, fr, seed, 1), _run(graph, fr, seed, 2))

    @pytest.mark.parametrize("workers", [3, 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_higher_worker_counts(self, seed, workers):
        n = 48 + 8 * (seed % 5)
        graph = overlay_like(n, seed)
        fr = _flood_rounds(n)
        _assert_identical(_run(graph, fr, seed, 1), _run(graph, fr, seed, workers))

    @pytest.mark.parametrize("seed", range(4))
    def test_sharded_counters_match_object_tier_oracle(self, seed):
        # Per-node sent/received totals of the sharded run equal the
        # per-message object engine's — the strongest counter oracle.
        n = 48 + 8 * (seed % 5)
        graph = overlay_like(n, seed)
        fr = _flood_rounds(n)
        obj = run_protocol_rooting(
            graph, fr, rng=np.random.default_rng(seed), ctx=RunContext.resolve(engine="legacy")
        )
        sharded = _run(graph, fr, seed, 3)
        _assert_identical(sharded, obj)

    def test_env_var_workers_engage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        graph = overlay_like(64, seed=9)
        fr = _flood_rounds(64)
        via_env = run_soa_rooting(graph, fr, rng=np.random.default_rng(9))
        monkeypatch.delenv("REPRO_WORKERS")
        single = run_soa_rooting(graph, fr, rng=np.random.default_rng(9))
        _assert_identical(via_env, single)


class TestShardedScenarioInvariance:
    """Fault streams and delay draws are shard-invariant: the hook sees
    the canonical pre-sort stream and the delay queue the merged
    receiver-sorted columns, both outside the sharded sort."""

    SPEC = ScenarioSpec(name="drop", drop=MessageDrop(0.2), fault_seed=13)

    @pytest.mark.parametrize("seed", range(4))
    def test_synchronised_faulty_run_is_worker_invariant(self, seed):
        n = 64
        graph = overlay_like(n, seed)
        hook = self.SPEC.compile(n)
        runs = {}
        for workers in (1, 2, 3):
            soa_class = build_rooting_population(
                graph, _flood_rounds(n), tier="soa"
            )
            report, network = run_with_asynchrony(
                soa_class,
                CapacityPolicy(max_send=16, max_receive=None),
                np.random.default_rng(seed),
                max_delay=4,
                max_rounds=4 * _flood_rounds(n),
                ctx=RunContext.resolve(fault_hook=hook, workers=workers),
                require_quiescence=False,
            )
            runs[workers] = (
                report.logical_rounds,
                report.observed_max_delay,
                report.converged,
                network.metrics.as_dict(),
            )
        assert runs[1] == runs[2] == runs[3]
        assert runs[1][3]["fault_drops"] > 0
