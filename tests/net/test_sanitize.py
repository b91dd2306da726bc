"""REPRO_SANITIZE runtime sanitizer: delivery asserts, hook validation.

The sanitizer is the runtime half of the determinism contracts that
``python -m repro.analysis`` checks statically (docs/contracts.md maps
one to the other).  These tests arm the module flag directly — the env
var is only read at import — and verify that:

- armed runs are behaviourally identical to unarmed runs (the checks
  observe, they never steer);
- a fault hook that consumes the delivery RNG or edits the lanes it is
  shown fails loudly.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro import sanitize
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.runtime import RunContext


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", True)


class Chatter(ProtocolNode):
    """Sends one message to every other node for a few rounds."""

    def __init__(self, node_id: int, n: int, rounds: int) -> None:
        super().__init__(node_id)
        self.n = n
        self.rounds = rounds
        self.received: list[tuple[int, int, int]] = []

    def on_round(self, round_no, inbox):
        self.received.extend((round_no, m.sender, int(m.payload)) for m in inbox)
        if round_no >= self.rounds:
            return []
        return [
            Message(self.node_id, v, "chat", round_no)
            for v in range(self.n)
            if v != self.node_id
        ]

    def is_idle(self):
        return True


def run_chatter(hook=None, n: int = 8, rounds: int = 3, seed: int = 0):
    nodes = {v: Chatter(v, n, rounds) for v in range(n)}
    network = SyncNetwork(
        nodes,
        CapacityPolicy.unbounded(),
        np.random.default_rng(seed),
        ctx=RunContext.resolve(engine="vectorized", fault_hook=hook),
    )
    for _ in range(rounds + 1):
        network.run_round()
    return {v: nodes[v].received for v in range(n)}, network


class TestHelpers:
    def test_sanitize_error_is_assertion_error(self):
        assert issubclass(sanitize.SanitizeError, AssertionError)

    def test_check_int64(self):
        sanitize.check_int64("ok", np.zeros(3, dtype=np.int64))
        sanitize.check_int64("none", None)
        with pytest.raises(sanitize.SanitizeError, match="int32"):
            sanitize.check_int64("lane", np.zeros(3, dtype=np.int32))

    def test_check_nondecreasing(self):
        sanitize.check_nondecreasing("ok", np.array([0, 0, 1, 5]))
        sanitize.check_nondecreasing("tiny", np.array([7]))
        with pytest.raises(sanitize.SanitizeError, match="index 2"):
            sanitize.check_nondecreasing("bad", np.array([0, 4, 3]))

    def test_rng_state_moves_on_draw(self):
        rng = np.random.default_rng(5)
        before = sanitize.rng_state(rng)
        assert sanitize.rng_state(rng) == before
        rng.random()
        assert sanitize.rng_state(rng) != before


class TestEnvWiring:
    def test_env_arms_flag_and_implies_soa_validation(self):
        # ENABLED is read at import, so probe a fresh interpreter.
        code = (
            "import repro.sanitize, repro.net.soa as soa; "
            "print(repro.sanitize.ENABLED, soa.DEBUG_VALIDATE)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_SANITIZE": "1", "PATH": "/usr/bin:/bin"},
            cwd=".",
            check=True,
        ).stdout
        assert out.split() == ["True", "True"]


class TestArmedRunsAreIdentical:
    def test_chatter_identical(self, armed):
        armed_inboxes, _ = run_chatter()
        sanitize.ENABLED = False
        plain_inboxes, _ = run_chatter()
        sanitize.ENABLED = True
        assert armed_inboxes == plain_inboxes

    def test_soa_rooting_identical(self, armed):
        from repro.core.soa_rooting import run_soa_rooting
        from repro.graphs.portgraph import PortGraph

        graph = PortGraph.ring_with_chords(300, delta=8, chords=1, seed=3)
        a = run_soa_rooting(graph, 12, rng=np.random.default_rng(1))
        sanitize.ENABLED = False
        b = run_soa_rooting(graph, 12, rng=np.random.default_rng(1))
        sanitize.ENABLED = True
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.depth, b.depth)


class TestFaultHookValidation:
    def test_hook_consuming_delivery_rng_raises(self, armed):
        box = {}

        def hook(round_no, snd, rcv):
            box["net"].rng.random()  # the forbidden draw
            return None

        nodes = {v: Chatter(v, 6, 3) for v in range(6)}
        net = SyncNetwork(
            nodes,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            ctx=RunContext.resolve(engine="vectorized", fault_hook=hook),
        )
        box["net"] = net
        with pytest.raises(sanitize.SanitizeError, match="consumed the delivery RNG"):
            for _ in range(3):
                net.run_round()

    def test_hook_mutating_lanes_raises(self, armed):
        def hook(round_no, snd, rcv):
            rcv[:] = 0
            return None

        with pytest.raises(sanitize.SanitizeError, match="mutated"):
            run_chatter(hook=hook)

    def test_oblivious_hook_passes_and_matches_unarmed(self, armed):
        def drop_even_rounds(round_no, snd, rcv):
            if round_no % 2 == 0:
                return np.zeros(snd.shape[0], dtype=bool)
            return None

        armed_inboxes, armed_net = run_chatter(hook=drop_even_rounds)
        sanitize.ENABLED = False
        plain_inboxes, plain_net = run_chatter(hook=drop_even_rounds)
        sanitize.ENABLED = True
        assert armed_inboxes == plain_inboxes
        assert (
            armed_net.metrics.as_dict()["fault_drops"]
            == plain_net.metrics.as_dict()["fault_drops"]
            > 0
        )

    def test_legacy_engine_also_validated(self, armed):
        def hook(round_no, snd, rcv):
            rcv[:] = 0
            return None

        nodes = {v: Chatter(v, 5, 2) for v in range(5)}
        net = SyncNetwork(
            nodes,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            ctx=RunContext.resolve(engine="legacy", fault_hook=hook),
        )
        with pytest.raises(sanitize.SanitizeError, match="mutated"):
            for _ in range(2):
                net.run_round()
