"""REPRO_SANITIZE runtime sanitizer: asserts, canaries, hook validation.

The sanitizer is the runtime half of the determinism contracts that
``python -m repro.analysis`` checks statically (docs/contracts.md maps
one to the other).  These tests arm the module flag directly — the env
var is only read at import — and verify that:

- armed runs are behaviourally identical to unarmed runs (the checks
  observe, they never steer);
- a fault hook that consumes the delivery RNG or edits the lanes it is
  shown fails loudly;
- the shard-arena canary catches workers writing outside their
  prefix-sum ranges;
- the fork-unavailable serial fallback warns once and reports
  ``workers_effective=1``.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro.net.shard as shard
from repro import sanitize
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.net.shard import ShardPool, effective_workers, fork_available
from repro.net.vectorops import group_argsort
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

    def test_soa_rooting_with_sharding_passes(self, armed):
        from repro.core.soa_rooting import run_soa_rooting
        from repro.graphs.portgraph import PortGraph

        graph = PortGraph.ring_with_chords(300, delta=8, chords=1, seed=3)
        a = run_soa_rooting(
            graph, 12, rng=np.random.default_rng(1), ctx=RunContext.resolve(workers=2)
        )
        sanitize.ENABLED = False
        b = run_soa_rooting(
            graph, 12, rng=np.random.default_rng(1), ctx=RunContext.resolve(workers=1)
        )
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


def _round_data(rng, n, m):
    rcv = rng.integers(0, n, size=m).astype(np.int64)
    snd = np.sort(rng.integers(0, n, size=m)).astype(np.int64)
    pay = rng.integers(0, 2**40, size=m).astype(np.int64)
    return rcv, snd, pay


class TestShardCanary:
    def test_armed_pool_still_bit_for_bit(self, armed):
        rng = np.random.default_rng(9)
        n, m = 19, 120
        pool = ShardPool(n, 3, capacity=256)
        try:
            rcv, snd, pay = _round_data(rng, n, m)
            got = pool.sort_round(rcv, snd, pay, None, np.bincount(rcv, minlength=n))
            order = group_argsort(rcv, n)
            assert np.array_equal(got[0], order)
            assert np.array_equal(got[1], rcv[order])
        finally:
            pool.close()

    def _serial_pool(self, n=13, workers=2, capacity=128):
        pool = ShardPool(n, workers, capacity=capacity)
        pool._stop_workers()
        pool._serial = True
        return pool

    def test_uncovered_slot_detected(self, armed):
        pool = self._serial_pool()
        orig = pool._serial_sort

        def hole_after(m, offs, want_pay2):
            orig(m, offs, want_pay2)
            pool._cols["order"][0] = -1  # simulate a skipped output slot

        pool._serial_sort = hole_after
        try:
            rcv, snd, pay = _round_data(np.random.default_rng(2), 13, 40)
            with pytest.raises(sanitize.SanitizeError, match="unwritten"):
                pool.sort_round(rcv, snd, pay, None, np.bincount(rcv, minlength=13))
        finally:
            pool.close()

    def test_guard_trample_detected(self, armed):
        pool = self._serial_pool()
        orig = pool._serial_sort

        def overrun(m, offs, want_pay2):
            orig(m, offs, want_pay2)
            pool._cols["order"][m] = 0  # write one slot past the round

        pool._serial_sort = overrun
        try:
            rcv, snd, pay = _round_data(np.random.default_rng(2), 13, 40)
            with pytest.raises(sanitize.SanitizeError, match="guard slot"):
                pool.sort_round(rcv, snd, pay, None, np.bincount(rcv, minlength=13))
        finally:
            pool.close()

    def test_unarmed_pool_skips_canary(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ENABLED", False)
        pool = self._serial_pool()
        orig = pool._serial_sort

        def overrun(m, offs, want_pay2):
            orig(m, offs, want_pay2)
            pool._cols["order"][m] = 0

        pool._serial_sort = overrun
        try:
            rcv, snd, pay = _round_data(np.random.default_rng(2), 13, 40)
            pool.sort_round(rcv, snd, pay, None, np.bincount(rcv, minlength=13))
        finally:
            pool.close()


class TestSerialFallback:
    def _patch_no_fork(self, monkeypatch):
        def no_fork(method):
            raise ValueError(f"start method {method!r} unavailable")

        monkeypatch.setattr(shard.mp, "get_context", no_fork)

    def test_warns_once_and_degrades(self, monkeypatch):
        self._patch_no_fork(monkeypatch)
        monkeypatch.setattr(shard, "_SERIAL_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="serial"):
            pool = ShardPool(8, 2, capacity=32)
        assert pool._serial
        pool.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would fail
            pool2 = ShardPool(8, 4, capacity=32)
        pool2.close()

    def test_effective_workers_reports_one(self, monkeypatch):
        self._patch_no_fork(monkeypatch)
        assert not fork_available()
        assert effective_workers(4) == 1
        assert effective_workers(1) == 1

    def test_effective_workers_under_fork(self):
        assert fork_available()
        assert effective_workers(4) == 4
