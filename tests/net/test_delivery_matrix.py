"""Single-process delivery matrix: the layout cache never changes a bit.

``SyncNetwork`` delivers every round in one process.  A round is either
one stable receiver sort (``group_argsort`` plus gathers) or, when the
protocol re-emits identity-stable and value-verified columns, a reuse of
an earlier round's receiver-sorted layout.  ``layout_reuse=True`` turns
that cache on (permutation, sorted key columns, counts, segments);
``layout_reuse=False`` turns it off, so every round sorts afresh.  The
cache is timing-only, so every protocol must come out bit-for-bit the
same with it on and off — tree, per-node counters in
``metrics.as_dict()``, round count — and every inbox must be exactly the
stable receiver sort of what was sent, local messages first.  These tests
pin that over seed matrices for each SoA protocol class (rooting,
expander, spanner), under binding capacities, delays and faults, and for
the Theorem 1.1 pipeline.
"""

import math

import numpy as np
import pytest

from repro.core.batch_protocol import run_soa_expander
from repro.core.params import ExpanderParams
from repro.core.pipeline import build_well_formed_tree
from repro.core.protocol_tree import build_rooting_population, run_protocol_rooting
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.portgraph import PortGraph
from repro.hybrid.soa_pipeline import build_spanner_soa
from repro.net.asynchrony import run_with_asynchrony
from repro.net.batch import MessageBatch
from repro.net.network import CapacityPolicy, SyncNetwork
from repro.net.soa import SoAProtocolClass
from repro.obs import capture
from repro.runtime import RunContext
from repro.scenarios import MessageDrop, ScenarioSpec

SEEDS = range(20)
MODES = (True, False)


def overlay_like(n: int, seed: int, chords: int = 2) -> PortGraph:
    return PortGraph.ring_with_chords(n, delta=16, chords=chords, seed=seed)


def _flood_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n)))) + 4


def _ctx(layout_reuse: bool, **overrides) -> RunContext:
    return RunContext.resolve(layout_reuse=layout_reuse, **overrides)


def _rooting(graph, seed, layout_reuse, **kwargs):
    return run_soa_rooting(
        graph,
        _flood_rounds(graph.n),
        rng=np.random.default_rng(seed),
        ctx=_ctx(layout_reuse),
        **kwargs,
    )


def _assert_identical(a, b):
    assert a.root == b.root
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.depth, b.depth)
    # as_dict carries the per-node sent/received counters, so equal
    # dictionaries mean equal per-node totals, not just aggregates.
    assert a.metrics.as_dict() == b.metrics.as_dict()
    assert a.rounds == b.rounds


class TestRootingMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reuse_on_equals_off(self, seed):
        n = 48 + 8 * (seed % 5)
        graph = overlay_like(n, seed, chords=2 + seed % 2)
        _assert_identical(_rooting(graph, seed, True), _rooting(graph, seed, False))

    @pytest.mark.parametrize("seed", range(6))
    def test_long_cycle_reuse_on_equals_off(self, seed):
        # Diameter n/2: the flood runs many rounds over one fixed
        # adjacency, the longest run of consecutive cache hits.
        n = 40 + 8 * seed
        graph = overlay_like(n, seed, chords=0)
        _assert_identical(_rooting(graph, seed, True), _rooting(graph, seed, False))

    @pytest.mark.parametrize("seed", range(4))
    def test_fresh_sort_arm_matches_object_tier_oracle(self, seed):
        # The per-message object engine never caches a layout: the
        # strongest oracle for the cache-off arm.
        n = 48 + 8 * (seed % 5)
        graph = overlay_like(n, seed)
        obj = run_protocol_rooting(
            graph,
            _flood_rounds(n),
            rng=np.random.default_rng(seed),
            ctx=RunContext.resolve(engine="legacy"),
        )
        _assert_identical(_rooting(graph, seed, False), obj)

    @pytest.mark.parametrize("layout_reuse", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_matrix_exercises_the_cache(self, seed, layout_reuse):
        # Without hits the equality above would compare two fresh sorts;
        # with the cache off, no round may read a layout.
        graph = overlay_like(64, seed)
        with capture() as tracer:
            result = run_soa_rooting(
                graph,
                _flood_rounds(64),
                rng=np.random.default_rng(seed),
                ctx=_ctx(layout_reuse, tracer=tracer),
            )
        hits = result.metrics.per_round.layout_hits()
        assert hits.shape[0] == result.rounds
        assert hits[0] == 0
        if layout_reuse:
            assert hits.sum() > 0
        else:
            assert hits.sum() == 0


class TestCapacityMatrix:
    """Binding capacities truncate the emitted columns, so the rounds that
    drop messages must neither store nor reuse a layout, and the drop
    draws must come off the delivery RNG identically in both modes."""

    @pytest.mark.parametrize("seed", range(6))
    def test_send_and_receive_drops_are_mode_invariant(self, seed):
        n = 48
        graph = overlay_like(n, seed, chords=3)
        runs = {}
        for layout_reuse in MODES:
            report, network = run_with_asynchrony(
                build_rooting_population(graph, _flood_rounds(n), tier="soa"),
                CapacityPolicy(max_send=3, max_receive=4),
                np.random.default_rng(seed),
                max_delay=1,
                max_rounds=4 * _flood_rounds(n),
                ctx=_ctx(layout_reuse),
                require_quiescence=False,
            )
            runs[layout_reuse] = (
                report.logical_rounds,
                report.converged,
                network.metrics.as_dict(),
            )
        assert runs[True] == runs[False]
        metrics = runs[True][2]
        assert metrics["send_drops"] > 0
        assert metrics["receive_drops"] > 0


class TestScenarioMatrix:
    """The fault hook sees the canonical pre-sort stream and the delay
    queue the receiver-sorted columns; neither may depend on the mode."""

    SPEC = ScenarioSpec(name="drop", drop=MessageDrop(0.2), fault_seed=13)

    def _synchronised(self, graph, seed, layout_reuse, max_delay, hook=None):
        n = graph.n
        report, network = run_with_asynchrony(
            build_rooting_population(graph, _flood_rounds(n), tier="soa"),
            CapacityPolicy(max_send=16, max_receive=None),
            np.random.default_rng(seed),
            max_delay=max_delay,
            max_rounds=4 * _flood_rounds(n),
            ctx=_ctx(layout_reuse, fault_hook=hook),
            require_quiescence=False,
        )
        return (
            report.logical_rounds,
            report.observed_max_delay,
            report.converged,
            network.metrics.as_dict(),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_faulty_run_is_mode_invariant(self, seed):
        graph = overlay_like(64, seed)
        runs = [
            self._synchronised(graph, seed, mode, 4, self.SPEC.compile(graph.n))
            for mode in MODES
        ]
        assert runs[0] == runs[1]
        assert runs[0][3]["fault_drops"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_delayed_run_is_mode_invariant(self, seed):
        graph = overlay_like(64, seed)
        runs = [self._synchronised(graph, seed, mode, 3) for mode in MODES]
        assert runs[0] == runs[1]
        assert runs[0][2]


def _expander_params(n: int) -> ExpanderParams:
    return ExpanderParams.recommended(n, ell=16).with_evolutions(
        math.ceil(math.log2(n)) + 2
    )


class TestExpanderMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_reuse_on_equals_off(self, seed):
        n = 24 + 8 * (seed % 4)
        graph = G.line_graph(n) if seed % 2 else G.cycle_graph(n)
        params = _expander_params(n)
        runs = [
            run_soa_expander(
                graph, params=params, rng=np.random.default_rng(seed), ctx=_ctx(mode)
            )
            for mode in MODES
        ]
        assert np.array_equal(runs[0].final_graph.ports, runs[1].final_graph.ports)
        assert runs[0].metrics.as_dict() == runs[1].metrics.as_dict()
        assert runs[0].rounds == runs[1].rounds


class TestSpannerMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_reuse_on_equals_off(self, seed):
        rng = np.random.default_rng(seed)
        graph, _ = G.component_mixture(
            [
                G.line_graph(20 + seed),
                G.cycle_graph(15 + seed % 5),
                G.star_graph(25),
                G.erdos_renyi_connected(30, 5.0, rng),
            ]
        )
        runs = [
            build_spanner_soa(graph, np.random.default_rng(seed), ctx=_ctx(mode))
            for mode in MODES
        ]
        for column in ("src", "dst", "active", "added_all", "shifts"):
            assert np.array_equal(getattr(runs[0], column), getattr(runs[1], column)), column
        assert runs[0].rounds == runs[1].rounds


class TestPipelineMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_theorem_11_pipeline_is_mode_invariant(self, seed):
        graph = G.cycle_graph(48 + 8 * seed)
        runs = [
            build_well_formed_tree(
                graph,
                rng=np.random.default_rng(seed),
                expander="soa",
                rooting="soa",
                ctx=_ctx(mode),
            )
            for mode in MODES
        ]
        a, b = runs
        assert np.array_equal(a.expander.final_graph.ports, b.expander.final_graph.ports)
        assert np.array_equal(a.bfs.parent, b.bfs.parent)
        assert np.array_equal(a.bfs.depth, b.bfs.depth)
        assert a.tree.root == b.tree.root
        assert np.array_equal(a.tree.parent, b.tree.parent)
        assert a.round_ledger == b.round_ledger


class Replay(SoAProtocolClass):
    """Emits a prescribed batch per round and records every inbox."""

    def __init__(self, n, batches):
        super().__init__(n)
        self.batches = batches
        self.seen: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def on_round_soa(self, round_no, inbox):
        self.seen.append(
            (
                np.asarray(inbox.receivers).copy(),
                np.asarray(inbox.senders).copy(),
                np.asarray(inbox.payloads).copy(),
            )
        )
        if round_no < len(self.batches):
            return self.batches[round_no]
        return None


def _stable_receiver_sort(batch: MessageBatch):
    """The reference inbox: stable by receiver, self-addressed first."""
    rcv, snd, pay = batch.receivers, batch.senders, batch.payloads
    order = np.lexsort((np.arange(rcv.shape[0]), rcv != snd, rcv))
    return rcv[order], snd[order], pay[order]


def _replay_batches(rng, n, rounds):
    """Random rounds with ascending senders; every other round re-emits
    the previous round's sender and receiver arrays (a cache hit) with
    fresh payloads."""
    batches = []
    rcv = snd = None
    for r in range(rounds):
        m = int(rng.integers(1, 4 * n))
        if r % 2 == 0:
            snd = np.sort(rng.integers(0, n, size=m)).astype(np.int64)
            rcv = rng.integers(0, n, size=m).astype(np.int64)
        pay = rng.integers(-(2**40), 2**40, size=snd.shape[0]).astype(np.int64)
        batches.append(MessageBatch._raw(snd, rcv, 0, pay))
    return batches


class TestInboxIsTheStableReceiverSort:
    @pytest.mark.parametrize("layout_reuse", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_every_inbox_equals_the_reference_sort(self, seed, layout_reuse):
        rng = np.random.default_rng(seed)
        n = 5 + 7 * seed
        batches = _replay_batches(rng, n, rounds=8)
        cls = Replay(n, batches)
        network = SyncNetwork(
            cls, CapacityPolicy.unbounded(), np.random.default_rng(seed), ctx=_ctx(layout_reuse)
        )
        for _ in range(len(batches) + 1):
            network.run_round()
        # Round 0 sees an empty inbox; round r + 1 sees batch r.
        for batch, got in zip(batches, cls.seen[1:]):
            for g, want in zip(got, _stable_receiver_sort(batch)):
                assert np.array_equal(g, want)
        # Self-addressed messages bypass the network and its counters.
        remote = sum(int((b.receivers != b.senders).sum()) for b in batches)
        assert network.metrics.total_messages == remote
