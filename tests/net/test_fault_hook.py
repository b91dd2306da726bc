"""Fault-hook contract: one decode for both delivery engines.

ISSUE 5's bugfix satellite: the hook used to be decoded with a bare
``np.flatnonzero``, which silently misreads an integer keep-*indices*
return (the shape the network's own truncation primitive,
``segmented_keep_indices``, produces) as a keep-*mask* — dropping the
wrong messages and miscounting ``metrics.fault_drops``.  Both engines now
share ``_fault_keep_indices``: boolean masks and ascending integer
indices are decoded identically, anything else raises, and the
``fault_drops`` metric is identical across engines per seed.
"""

import numpy as np
import pytest

from repro.net.message import Message
from repro.net.network import (
    CapacityPolicy,
    ProtocolNode,
    SyncNetwork,
    _fault_keep_indices,
)
from repro.net.vectorops import segmented_keep_indices
from repro.runtime import RunContext
from repro.scenarios import CrashWave, MessageDrop, Partition, ScenarioSpec

N = 12
ROUNDS = 5


class Chatter(ProtocolNode):
    """Sends one message to every other node each round."""

    def __init__(self, node_id: int, n: int, rounds: int) -> None:
        super().__init__(node_id)
        self.n = n
        self.rounds = rounds
        self.received: list[tuple[int, int, int]] = []

    def on_round(self, round_no, inbox):
        self.received.extend(
            (round_no, m.sender, int(m.payload)) for m in inbox
        )
        if round_no >= self.rounds:
            return []
        return [
            Message(self.node_id, v, "chat", round_no)
            for v in range(self.n)
            if v != self.node_id
        ]

    def is_idle(self):
        return True


def run_chatter(engine: str, hook, seed: int = 0, capacity=None, n: int = N):
    nodes = {v: Chatter(v, n, ROUNDS) for v in range(n)}
    network = SyncNetwork(
        nodes,
        capacity or CapacityPolicy.unbounded(),
        np.random.default_rng(seed),
        ctx=RunContext.resolve(engine=engine, fault_hook=hook),
    )
    for _ in range(ROUNDS + 1):
        network.run_round()
    inboxes = {v: nodes[v].received for v in range(n)}
    return inboxes, network.metrics.as_dict()


class TestDecodeHelper:
    def test_bool_mask_decodes_to_indices(self):
        mask = np.array([True, False, True, True])
        assert _fault_keep_indices(mask, 4).tolist() == [0, 2, 3]

    def test_integer_indices_pass_through(self):
        idx = np.array([0, 2, 3], dtype=np.int64)
        assert _fault_keep_indices(idx, 4).tolist() == [0, 2, 3]

    def test_index_zero_only_is_not_read_as_mask(self):
        # The historical np.flatnonzero decode read [0] as an all-false
        # mask; the unified contract keeps exactly message 0.
        assert _fault_keep_indices(np.array([0]), 3).tolist() == [0]

    def test_wrong_length_mask_raises(self):
        with pytest.raises(ValueError, match="keep-mask has length 3"):
            _fault_keep_indices(np.ones(3, dtype=bool), 5)

    def test_out_of_range_indices_raise(self):
        with pytest.raises(ValueError, match="out of range"):
            _fault_keep_indices(np.array([1, 7]), 5)
        with pytest.raises(ValueError, match="out of range"):
            _fault_keep_indices(np.array([-1, 2]), 5)

    def test_unsorted_indices_raise(self):
        with pytest.raises(ValueError, match="ascending"):
            _fault_keep_indices(np.array([3, 1]), 5)
        with pytest.raises(ValueError, match="ascending"):
            _fault_keep_indices(np.array([2, 2]), 5)

    def test_float_return_raises(self):
        with pytest.raises(TypeError, match="boolean keep-mask or integer"):
            _fault_keep_indices(np.array([0.0, 1.0]), 2)

    def test_two_dimensional_raises(self):
        with pytest.raises(ValueError, match="1-d"):
            _fault_keep_indices(np.ones((2, 2), dtype=bool), 4)


class TestMaskIndexParity:
    """A mask hook and the equivalent indices hook drop identically on
    both engines."""

    @staticmethod
    def _mask_hook(round_no, senders, receivers):
        return (senders + receivers + round_no) % 3 != 0

    @classmethod
    def _index_hook(cls, round_no, senders, receivers):
        return np.flatnonzero(cls._mask_hook(round_no, senders, receivers))

    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_mask_equals_indices(self, engine):
        by_mask = run_chatter(engine, self._mask_hook)
        by_index = run_chatter(engine, self._index_hook)
        assert by_mask == by_index
        assert by_mask[1]["fault_drops"] > 0

    def test_cross_engine_identical(self):
        legacy = run_chatter("legacy", self._mask_hook)
        vectorized = run_chatter("vectorized", self._index_hook)
        assert legacy == vectorized

    def test_truncation_style_hook_composes(self):
        """A hook built from the network's own keep-indices primitive —
        the composition the old mask-only decode silently corrupted."""
        def hook(round_no, senders, receivers):
            return segmented_keep_indices(
                receivers, 4, np.random.default_rng(round_no)
            )

        legacy = run_chatter("legacy", hook)
        vectorized = run_chatter("vectorized", hook)
        assert legacy == vectorized
        assert legacy[1]["fault_drops"] > 0

    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_bad_hook_return_raises_on_both_engines(self, engine):
        with pytest.raises(ValueError, match="keep-mask has length"):
            run_chatter(engine, lambda r, s, d: np.ones(1, dtype=bool))


class GappyChatter(ProtocolNode):
    """Chatter over an explicit (gappy, unsorted-at-insertion) id set."""

    def __init__(self, node_id: int, ids: tuple[int, ...], rounds: int) -> None:
        super().__init__(node_id)
        self.ids = ids
        self.rounds = rounds
        self.received: list[tuple[int, int, int]] = []

    def on_round(self, round_no, inbox):
        self.received.extend(
            (round_no, m.sender, int(m.payload)) for m in inbox
        )
        if round_no >= self.rounds:
            return []
        return [
            Message(self.node_id, v, "chat", round_no)
            for v in self.ids
            if v != self.node_id
        ]

    def is_idle(self):
        return True


class TestGappyNodeIdRegression:
    """ISSUE 6's cross-engine pin: non-contiguous node ids inserted out
    of order exercise the id-mapping path of the vectorized tail (raw ids
    → dense indices → raw ids), where a fault hook composed with capacity
    truncation historically had the most room to diverge from the
    per-message legacy engine.  The matrix pins inbox contents,
    ``fault_drops``, and the full metrics dict as engine-identical."""

    IDS = (12, 0, 30, 7, 22, 3, 21, 15)

    @classmethod
    def _run(cls, engine, hook, seed):
        nodes = {v: GappyChatter(v, cls.IDS, ROUNDS) for v in cls.IDS}
        network = SyncNetwork(
            nodes,
            CapacityPolicy(4, 4),
            np.random.default_rng(seed),
            ctx=RunContext.resolve(engine=engine, fault_hook=hook),
        )
        for _ in range(ROUNDS + 1):
            network.run_round()
        return {v: nodes[v].received for v in cls.IDS}, network.metrics.as_dict()

    @staticmethod
    def _mask_hook(round_no, senders, receivers):
        # Hooks see *raw* ids on both engines — the parity below would
        # break immediately if one engine passed dense indices instead.
        return (senders + receivers + round_no) % 3 != 0

    @staticmethod
    def _truncation_hook(round_no, senders, receivers):
        return segmented_keep_indices(
            receivers, 3, np.random.default_rng(round_no)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_mask_hook_cross_engine(self, seed):
        legacy = self._run("legacy", self._mask_hook, seed)
        vectorized = self._run("vectorized", self._mask_hook, seed)
        assert legacy[1]["fault_drops"] == vectorized[1]["fault_drops"]
        assert legacy == vectorized
        assert legacy[1]["fault_drops"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_truncation_hook_cross_engine(self, seed):
        legacy = self._run("legacy", self._truncation_hook, seed)
        vectorized = self._run("vectorized", self._truncation_hook, seed)
        assert legacy == vectorized
        assert legacy[1]["fault_drops"] > 0

    def test_hook_receives_raw_ids(self):
        seen: set[int] = set()

        def spy(round_no, senders, receivers):
            seen.update(np.asarray(senders).tolist())
            seen.update(np.asarray(receivers).tolist())
            return np.ones(np.asarray(senders).shape[0], dtype=bool)

        self._run("vectorized", spy, seed=0)
        assert seen == set(self.IDS)


class TestFaultDropsCrossEngineRegression:
    """Acceptance criterion: identical ``fault_drops`` for identical
    seeds/specs on both delivery engines (and with capacity enforcement
    interleaved)."""

    SPECS = [
        ScenarioSpec(name="drop", drop=MessageDrop(0.25), fault_seed=3),
        ScenarioSpec(
            name="crash",
            crashes=(CrashWave(round_no=1, fraction=0.3, rejoin_round=4),),
            fault_seed=5,
        ),
        ScenarioSpec(
            name="partition", partition=Partition(start=1, stop=4), fault_seed=7
        ),
        ScenarioSpec(
            name="composite",
            drop=MessageDrop(0.1),
            crashes=(CrashWave(round_no=2, fraction=0.2),),
            partition=Partition(start=0, stop=3, blocks=3),
            fault_seed=11,
        ),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_identical_fault_drops_per_seed(self, spec, seed):
        hook = spec.compile(N)
        legacy = run_chatter(
            "legacy", hook, seed=seed, capacity=CapacityPolicy(6, 6)
        )
        vectorized = run_chatter(
            "vectorized", hook, seed=seed, capacity=CapacityPolicy(6, 6)
        )
        assert legacy[1]["fault_drops"] == vectorized[1]["fault_drops"]
        assert legacy == vectorized
        assert legacy[1]["fault_drops"] > 0
