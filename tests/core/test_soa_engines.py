"""Differential matrix: object (the oracle) vs. SoA (the hot path).

Rooting nodes draw no randomness of their own, so both execution tiers
must produce **bit-for-bit** identical ``(root, parent, depth)`` arrays,
metrics, and round counts over a 20-seed matrix — on both delivery
engines for the object tier — and match the reference BFS oracle.

For the expander the exact comparison runs where randomness streams are
matched: :func:`run_soa_expander` is bit-for-bit equal to object
:class:`~repro.core.protocol.ExpanderNode` populations sharing one
generator (``rng_mode="shared"``) — same final port matrix, same
accepted-edge log, same metrics — over a 20-seed matrix on both engines,
while the default per-node-spawned object run agrees with SoA on the
round ledger and the structural invariants (no drops, degree bound,
laziness, symmetry).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.batch_protocol import SoAExpanderClass, run_soa_expander
from repro.core.bfs import build_bfs_forest
from repro.core.params import ExpanderParams
from repro.core.pipeline import build_well_formed_tree
from repro.core.protocol import ExpanderNode, run_expander_on_network, run_protocol_expander
from repro.core.protocol_tree import run_protocol_rooting
from repro.core.soa_rooting import SoARootingClass, csr_neighbors, run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.portgraph import PortGraph
from repro.runtime import RunContext

SEEDS = range(20)
ENGINES = ("legacy", "vectorized")


def overlay_like(n: int, seed: int, chords: int = 2, delta: int = 16) -> PortGraph:
    """Connected low-diameter multigraph standing in for evolution output
    (the ring-plus-chords family shared with the S3 bench)."""
    return PortGraph.ring_with_chords(n, delta=delta, chords=chords, seed=seed)


def _flood_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n)))) + 4


class TestRootingObjectVsSoA:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_object_and_soa_bit_for_bit(self, seed):
        # Vary size and chord structure with the seed.
        n = 48 + 8 * (seed % 5)
        graph = overlay_like(n, seed, chords=2 + seed % 2)
        fr = _flood_rounds(n)
        soa = run_soa_rooting(graph, fr, rng=np.random.default_rng(seed))
        for engine in ENGINES:
            obj = run_protocol_rooting(
                graph, fr, rng=np.random.default_rng(seed), ctx=RunContext.resolve(engine=engine)
            )
            assert soa.root == obj.root, engine
            assert np.array_equal(soa.parent, obj.parent), engine
            assert np.array_equal(soa.depth, obj.depth), engine
            assert soa.metrics.as_dict() == obj.metrics.as_dict(), engine
            assert soa.rounds == obj.rounds, engine

    @pytest.mark.parametrize("seed", range(6))
    def test_soa_matches_reference_bfs(self, seed):
        graph = overlay_like(56, seed)
        soa = run_soa_rooting(graph, _flood_rounds(56), rng=np.random.default_rng(seed))
        forest = build_bfs_forest(graph)
        assert forest.roots == [soa.root]
        assert np.array_equal(soa.parent, forest.parent)
        assert np.array_equal(soa.depth, forest.depth)

    def test_no_drops_within_capacity(self):
        graph = overlay_like(200, seed=3)
        result = run_soa_rooting(graph, _flood_rounds(200))
        assert result.metrics.total_drops == 0
        assert result.metrics.max_sent_per_round <= graph.delta

    def test_csr_matches_neighbor_sets(self):
        graph = overlay_like(80, seed=5, chords=3)
        indptr, flat = csr_neighbors(graph)
        sets = graph.neighbor_sets()
        for v in range(graph.n):
            assert flat[indptr[v] : indptr[v + 1]].tolist() == sorted(sets[v])

    def test_soa_rejects_legacy_engine(self):
        with pytest.raises(ValueError, match="vectorized"):
            run_soa_rooting(overlay_like(32, 0), 6, ctx=RunContext.resolve(engine="legacy"))

    def test_unreached_nodes_raise(self):
        # Two disjoint rings: the flood never crosses, BFS cannot span.
        idx = np.arange(8, dtype=np.int64)
        half = np.concatenate([np.roll(idx[:4], -1), 4 + np.roll(idx[:4], -1)])
        graph = PortGraph.from_edge_multiset(
            n=8, delta=4, endpoints_a=idx, endpoints_b=half
        )
        with pytest.raises(RuntimeError):
            run_soa_rooting(graph, 6)


def _expander_params(n: int) -> ExpanderParams:
    return ExpanderParams.recommended(n, ell=16).with_evolutions(
        math.ceil(math.log2(n)) + 2
    )


class TestExpanderObjectVsSoA:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_soa_equals_shared_rng_object_bit_for_bit(self, seed, engine):
        n = 24 + 8 * (seed % 4)
        params = _expander_params(n)
        g = G.line_graph(n)
        obj = run_expander_on_network(
            ExpanderNode,
            g,
            params=params,
            rng=np.random.default_rng(seed),
            ctx=RunContext.resolve(engine=engine),
            rng_mode="shared",
        )
        soa = run_soa_expander(g, params=params, rng=np.random.default_rng(seed))
        assert np.array_equal(obj.final_graph.ports, soa.final_graph.ports)
        assert obj.metrics.as_dict() == soa.metrics.as_dict()
        assert obj.rounds == soa.rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_tiers_agree_on_ledger_and_invariants(self, seed):
        n = 32
        params = _expander_params(n)
        g = G.cycle_graph(n)
        runs = {
            "object": run_protocol_expander(g, params=params, rng=np.random.default_rng(seed)),
            "soa": run_soa_expander(g, params=params, rng=np.random.default_rng(seed)),
        }
        rounds = {tier: r.rounds for tier, r in runs.items()}
        assert len(set(rounds.values())) == 1, rounds
        for tier, r in runs.items():
            assert r.metrics.total_drops == 0, tier
            assert r.metrics.max_sent_per_round <= params.delta, tier
            assert r.final_graph.delta == params.delta, tier
            assert r.final_graph.is_lazy(), tier
            assert r.final_graph.is_symmetric(), tier

    def test_accepted_log_matches_object_nodes(self):
        # The columnar accepted-edge log equals the per-node logs of the
        # shared-generator object run, node by node and in order.
        n = 40
        params = _expander_params(n)
        g = G.line_graph(n)
        from repro.core.batch_protocol import SoAExpanderClass
        from repro.core.protocol import prepare_network_inputs
        from repro.net.network import SyncNetwork

        rng = np.random.default_rng(11)
        _, neighbors, params2, capacity = prepare_network_inputs(g, params, None)
        proto_rng, net_rng = rng.spawn(2)
        cls = SoAExpanderClass(n, neighbors, params2, proto_rng)
        network = SyncNetwork(cls, capacity, net_rng)
        network.run(max_rounds=params2.num_evolutions * (params2.ell + 2) + 1)

        proto_o, net_o = np.random.default_rng(11).spawn(2)
        nodes = {v: ExpanderNode(v, neighbors[v], params2, proto_o) for v in range(n)}
        SyncNetwork(nodes, capacity, net_o).run(
            max_rounds=params2.num_evolutions * (params2.ell + 2) + 1
        )

        assert len(cls.accepted_log) == params2.num_evolutions
        for v in range(n):
            mine = [
                origin
                for acceptors, origins in cls.accepted_log
                for origin in origins[acceptors == v].tolist()
            ]
            assert mine == [origin for origin, _ in nodes[v].accepted_log], v
            assert all(acceptor == v for _, acceptor in nodes[v].accepted_log)

    def test_soa_rejects_legacy_engine(self):
        with pytest.raises(ValueError, match="vectorized"):
            run_soa_expander(G.cycle_graph(16), ctx=RunContext.resolve(engine="legacy"))


class TestMakeBenignPorts:
    """The SoA class builds MakeBenign's port matrix with one keyed sort;
    each row must be the object node's per-node ``sorted`` layout."""

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_object_nodes(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        params = _expander_params(n)
        max_deg = params.delta // (2 * params.lam)
        # Unsorted lists with repeated neighbours (multi-edges) and some
        # isolated nodes.
        neighbors = [
            rng.integers(0, n, int(rng.integers(0, max_deg + 1))).tolist()
            for _ in range(n)
        ]
        cls = SoAExpanderClass(n, neighbors, params, rng)
        for v in range(n):
            node = ExpanderNode(v, neighbors[v], params, rng)
            assert cls.ports[v].tolist() == node.ports, v

    def test_out_of_range_neighbour_raises(self):
        params = _expander_params(4)
        with pytest.raises(ValueError, match="outside"):
            SoAExpanderClass(4, [[1], [0, 4], [], []], params, np.random.default_rng(0))


class TestExpanderPinnedAtScale:
    """The benchmark's CreateExpander call, pinned bit for bit.

    ``run_soa_expander`` on a 4096-node cycle under seed 1 is the
    expander phase of the ``thm11-cycle-4k`` workload: 288 rounds whose
    deliveries are mostly self-addressed (the walk tokens that stay put
    on the self-loop padding), at ~61k tokens a round.  The digest covers
    the final port matrix and ``metrics.as_dict()``.  It is the digest of
    the tail that concatenated local and remote rows ahead of one
    receiver sort, so the keyed sort must reproduce it; any change to
    delivery order, truncation draws or metrics moves it.
    """

    DIGEST = "76fb64ef37608927e7ebf564a41d3e88b626a2a8138c4b0e0c6bb5932cfd3ab2"

    def test_cycle_4k_digest(self):
        result = run_soa_expander(G.cycle_graph(4096), rng=np.random.default_rng(1))
        ports = np.ascontiguousarray(result.final_graph.ports)
        h = hashlib.sha256()
        h.update(str(ports.dtype).encode())
        h.update(str(ports.shape).encode())
        h.update(ports.tobytes())
        h.update(json.dumps(result.metrics.as_dict(), sort_keys=True).encode())
        assert result.rounds == 288
        assert h.hexdigest() == self.DIGEST


class TestPipelineSoAModes:
    def test_rooting_soa_builds_the_identical_tree(self):
        g = G.cycle_graph(72)
        runs = {
            mode: build_well_formed_tree(g, rng=np.random.default_rng(9), rooting=mode)
            for mode in ("reference", "protocol", "soa")
        }
        ref = runs["reference"]
        for mode, run in runs.items():
            assert np.array_equal(run.bfs.parent, ref.bfs.parent), mode
            assert np.array_equal(run.bfs.depth, ref.bfs.depth), mode
        assert runs["protocol"].round_ledger == runs["soa"].round_ledger

    def test_expander_soa_mode_builds_valid_overlay(self):
        g = G.cycle_graph(64)
        result = build_well_formed_tree(
            g, rng=np.random.default_rng(2), expander="soa", rooting="soa"
        )
        n = g.number_of_nodes()
        assert result.well_formed.max_degree() <= 3
        assert result.well_formed.depth() <= math.ceil(math.log2(n)) + 1
        assert result.round_ledger["evolutions"] > 0
        assert result.total_rounds == sum(result.round_ledger.values())

    def test_message_expander_modes_reject_walk_only_features(self):
        with pytest.raises(ValueError, match="walks"):
            build_well_formed_tree(G.cycle_graph(32), expander="soa", track_gap=True)
        with pytest.raises(ValueError, match="expander must be one of"):
            build_well_formed_tree(G.cycle_graph(32), expander="hyperdrive")


class TestSoAStateMachine:
    def test_rooting_class_is_idle_only_after_spanning(self):
        graph = overlay_like(40, 1)
        from repro.net.network import CapacityPolicy, SyncNetwork

        cls = SoARootingClass(*csr_neighbors(graph), _flood_rounds(40))
        net = SyncNetwork(
            cls, CapacityPolicy.ncc0(40, graph.delta), np.random.default_rng(0)
        )
        assert not cls.is_idle()
        net.run(max_rounds=200)
        assert cls.is_idle()
        assert (cls.parent >= 0).all()
        assert (cls.announced).all()
