"""Rapid sampling (Lemma 4.2) tests: stitching mechanics and distribution.

``_pair_tokens`` is checked against the rank/mask formulation it
replaced (same pairs, same generator state), and one seeded
``stitched_walks`` run is pinned by a golden digest so a change to the
random stream fails here, not only in the end-to-end fingerprints.
"""

import hashlib

import numpy as np
import pytest

from repro.core.benign import make_benign
from repro.core.params import ExpanderParams
from repro.core.walks import run_token_walks
from repro.graphs import generators as G
from repro.graphs.portgraph import SELF_LOOP
from repro.hybrid.rapid_sampling import _pair_tokens, stitched_walks


PARAMS = ExpanderParams(delta=32, lam=2, ell=8, num_evolutions=1)

#: sha256 of the int64 bytes of ``origins``, ``endpoints`` and
#: ``max_load_per_round`` of ``stitched_walks`` on the Δ=32 benign 200-cycle
#: (64 tokens per node, length 32, seed 20211).
GOLDEN_STITCH = "706d843d4432f1bacd1f5ca3ed4167808870f7d07d24c648a2d87f719fb2b582"


def _reference_pair(positions: np.ndarray, rng: np.random.Generator):
    """The former ``_pair_tokens``: a per-token rank within each node's
    run and two boolean masks over the whole sorted column."""
    m = positions.shape[0]
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    perm = rng.permutation(m)
    order = perm[np.argsort(positions[perm], kind="stable")]
    sorted_pos = positions[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_pos[1:] != sorted_pos[:-1]]))
    counts = np.diff(np.append(starts, m))
    rank = np.arange(m, dtype=np.int64) - np.repeat(starts, counts)
    pairs = np.repeat(counts // 2, counts)
    return order[rank < pairs], order[(rank >= pairs) & (rank < 2 * pairs)]


@pytest.fixture
def cycle_pg():
    pg, _ = make_benign(G.cycle_graph(10), PARAMS)
    return pg


class TestPairing:
    def test_pairs_are_at_same_node(self, rng):
        positions = np.array([0, 0, 0, 0, 1, 1, 2])
        reds, blues = _pair_tokens(positions, rng)
        assert len(reds) == len(blues) == 3  # two pairs at 0, one at 1
        for r, b in zip(reds, blues):
            assert positions[r] == positions[b]

    def test_odd_token_dropped(self, rng):
        positions = np.array([5, 5, 5])
        reds, blues = _pair_tokens(positions, rng)
        assert len(reds) == 1

    def test_red_blue_disjoint(self, rng):
        positions = np.zeros(20, dtype=np.int64)
        reds, blues = _pair_tokens(positions, rng)
        assert len(set(reds.tolist()) & set(blues.tolist())) == 0

    def test_empty(self, rng):
        reds, blues = _pair_tokens(np.empty(0, dtype=np.int64), rng)
        assert reds.size == 0 and blues.size == 0


def _random_positions(seed: int) -> np.ndarray:
    gen = np.random.default_rng(500 + seed)
    n = int(gen.integers(1, 2000))
    m = int(gen.integers(0, 40_000))
    # Skewed loads: some nodes hold many tokens, some one, some none.
    weights = gen.random(n) ** 4
    return gen.choice(n, size=m, p=weights / weights.sum())


class TestPairingMatchesReference:
    def _check(self, positions: np.ndarray, seed: int) -> None:
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        reds, blues = _pair_tokens(positions, rng_new)
        want_reds, want_blues = _reference_pair(positions, rng_ref)
        np.testing.assert_array_equal(reds, want_reds)
        np.testing.assert_array_equal(blues, want_blues)
        assert reds.dtype == blues.dtype == np.int64
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_random_loads(self, seed):
        self._check(_random_positions(seed), seed)

    @pytest.mark.parametrize(
        "case", ["empty", "one-token", "single-node", "sorted", "reversed", "sparse-ids"]
    )
    def test_structured(self, case):
        positions = {
            "empty": np.empty(0, dtype=np.int64),
            "one-token": np.array([4]),
            "single-node": np.full(1001, 7),
            "sorted": np.repeat(np.arange(300), np.arange(300) % 5),
            "reversed": np.repeat(np.arange(300), 3)[::-1].copy(),
            "sparse-ids": np.array([10**6, 3, 10**6, 3, 3, 10**6 - 1]),
        }[case]
        self._check(positions, 17)

    @pytest.mark.parametrize("n", [15_000, 2**16 + 1])
    def test_packed_sort_sizes(self, n):
        # m >= 2**19 sends the grouping sort down its packed-key branch.
        positions = np.random.default_rng(n).integers(0, n, size=2**19 + 3)
        self._check(positions, 3)


def test_stitched_walks_golden_digest():
    pg, _ = make_benign(G.cycle_graph(200), PARAMS)
    res = stitched_walks(pg, 64, target_length=32, rng=np.random.default_rng(20211))
    digest = hashlib.sha256()
    for column in (res.origins, res.endpoints, res.max_load_per_round):
        digest.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    assert res.num_tokens == 703
    assert digest.hexdigest() == GOLDEN_STITCH


class TestStitching:
    def test_target_length_validation(self, cycle_pg, rng):
        with pytest.raises(ValueError):
            stitched_walks(cycle_pg, 4, target_length=6, rng=rng)  # 6 != 2*2^k
        with pytest.raises(ValueError):
            stitched_walks(cycle_pg, 4, target_length=1, rng=rng)

    def test_rounds_logarithmic_in_length(self, cycle_pg, rng):
        res = stitched_walks(cycle_pg, 64, target_length=32, rng=rng)
        assert res.rounds == 2 + 4  # 2 plain steps + log2(16) stitches
        assert res.length == 32

    def test_survivor_count_scales(self, cycle_pg, rng):
        tokens = 40
        res = stitched_walks(cycle_pg, tokens, target_length=16, rng=rng)
        expected = 10 * tokens * 2 // 16  # n * tokens * s0 / ell
        assert res.num_tokens == pytest.approx(expected, rel=0.4)

    def test_traces_consistent(self, cycle_pg, rng):
        res = stitched_walks(
            cycle_pg, 32, target_length=8, rng=rng, record_traces=True
        )
        assert res.node_traces.shape == (res.num_tokens, 9)
        assert res.edge_traces.shape == (res.num_tokens, 8)
        assert (res.node_traces[:, 0] == res.origins).all()
        assert (res.node_traces[:, -1] == res.endpoints).all()

    def test_trace_steps_are_graph_moves(self, cycle_pg, rng):
        res = stitched_walks(
            cycle_pg, 32, target_length=8, rng=rng, record_traces=True
        )
        for k in range(min(res.num_tokens, 50)):
            for step in range(8):
                a = int(res.node_traces[k, step])
                b = int(res.node_traces[k, step + 1])
                eid = int(res.edge_traces[k, step])
                if eid == SELF_LOOP:
                    assert a == b
                else:
                    # Edge id must connect a and b on the base graph.
                    found = False
                    for i in range(cycle_pg.delta):
                        if (
                            cycle_pg.port_edge_ids[a, i] == eid
                            and cycle_pg.ports[a, i] == b
                        ):
                            found = True
                    assert found


class TestDistributionEquivalence:
    def test_stitched_matches_plain_walks(self, rng):
        # Lemma 4.2: stitched endpoints follow the plain ell-step walk
        # distribution.  Compare conditional on one origin by TV distance.
        pg, _ = make_benign(G.cycle_graph(12), PARAMS)
        ell = 8
        samples = 50_000
        plain = run_token_walks(
            pg,
            tokens_per_node=0,
            length=ell,
            rng=rng,
            starts=np.zeros(samples, dtype=np.int64),
        )
        # Survival is ~2/ell per token: 8000 tokens -> ~2000 survivors
        # per origin.
        stitched = stitched_walks(pg, 8000, target_length=ell, rng=rng)
        mask = stitched.origins == 0
        assert mask.sum() > 1200
        p = np.bincount(plain.endpoints, minlength=12) / samples
        q = np.bincount(stitched.endpoints[mask], minlength=12) / mask.sum()
        tv = 0.5 * np.abs(p - q).sum()
        assert tv < 0.05
