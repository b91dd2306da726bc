"""Sharded receiver sort: the pool is bit-for-bit the in-process sort.

The equality contract of :mod:`repro.net.shard`: concatenating stable
per-shard sorts over disjoint ascending receiver ranges *is* the global
stable receiver sort, so ``ShardPool.sort_round`` must return exactly —
not merely equivalently — what ``group_argsort`` + gathers produce.
Everything downstream (the worker-count differential matrices) leans on
this invariant.
"""

import numpy as np
import pytest

from repro.net.shard import ShardPool, shard_bounds
from repro.net.vectorops import group_argsort
from repro.runtime import resolve_workers


def reference_sort(rcv, snd, pay, pay2):
    order = group_argsort(rcv, int(rcv.max(initial=0)) + 1 if rcv.size else 1)
    return (
        order,
        rcv[order],
        snd[order],
        pay[order],
        pay2[order] if pay2 is not None else None,
    )


def random_round(rng, n, m, with_pay2=False):
    rcv = rng.integers(0, n, size=m).astype(np.int64)
    snd = np.sort(rng.integers(0, n, size=m)).astype(np.int64)
    pay = rng.integers(-(2**40), 2**40, size=m).astype(np.int64)
    pay2 = rng.integers(0, 2**20, size=m).astype(np.int64) if with_pay2 else None
    return rcv, snd, pay, pay2


class TestResolveWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(2) == 2

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)


class TestShardBounds:
    def test_partition_is_even_and_complete(self):
        bounds = shard_bounds(10, 3)
        assert bounds.tolist() == [0, 3, 6, 10]

    def test_more_workers_than_nodes_allows_empty_shards(self):
        bounds = shard_bounds(2, 4)
        assert bounds[0] == 0 and bounds[-1] == 2
        widths = np.diff(bounds)
        assert (widths >= 0).all() and widths.sum() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)


class TestSortRoundEquality:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_for_bit_vs_group_argsort(self, workers, seed):
        rng = np.random.default_rng(seed)
        n = 37
        pool = ShardPool(n, workers, capacity=64)
        try:
            for round_no in range(5):
                m = int(rng.integers(1, 400))
                rcv, snd, pay, pay2 = random_round(
                    rng, n, m, with_pay2=round_no % 2 == 0
                )
                counts = np.bincount(rcv, minlength=n)
                got = pool.sort_round(rcv, snd, pay, pay2, counts)
                order = group_argsort(rcv, n)
                assert np.array_equal(got[0], order)
                assert np.array_equal(got[1], rcv[order])
                assert np.array_equal(got[2], snd[order])
                assert np.array_equal(got[3], pay[order])
                if pay2 is None:
                    assert got[4] is None
                else:
                    assert np.array_equal(got[4], pay2[order])
        finally:
            pool.close()

    def test_empty_shards_are_fine(self):
        # workers > n: some shards own an empty receiver range.
        pool = ShardPool(3, 5, capacity=16)
        try:
            rcv = np.array([2, 0, 2, 1, 0], dtype=np.int64)
            snd = np.array([0, 0, 1, 1, 2], dtype=np.int64)
            pay = np.arange(5, dtype=np.int64)
            got = pool.sort_round(rcv, snd, pay, None, np.bincount(rcv, minlength=3))
            order = group_argsort(rcv, 3)
            assert np.array_equal(got[0], order)
            assert np.array_equal(got[3], pay[order])
        finally:
            pool.close()

    def test_arena_resize_preserves_equality(self):
        rng = np.random.default_rng(7)
        pool = ShardPool(11, 2, capacity=8)  # tiny: first big round resizes
        try:
            for m in (4, 200, 40, 1000):
                rcv, snd, pay, _ = random_round(rng, 11, m)
                got = pool.sort_round(rcv, snd, pay, None, np.bincount(rcv, minlength=11))
                order = group_argsort(rcv, 11)
                assert np.array_equal(got[0], order)
                assert np.array_equal(got[2], snd[order])
        finally:
            pool.close()

    def test_bad_recv_counts_length_raises(self):
        pool = ShardPool(5, 2, capacity=8)
        try:
            with pytest.raises(ValueError, match="length n=5"):
                pool.sort_round(
                    np.zeros(2, dtype=np.int64),
                    np.zeros(2, dtype=np.int64),
                    np.zeros(2, dtype=np.int64),
                    None,
                    np.zeros(3, dtype=np.int64),
                )
        finally:
            pool.close()


class TestGatherPayloads:
    def test_gather_reuses_cached_shard_permutation(self):
        rng = np.random.default_rng(3)
        n = 19
        pool = ShardPool(n, 3, capacity=64)
        try:
            rcv, snd, pay, _ = random_round(rng, n, 120)
            counts = np.bincount(rcv, minlength=n)
            order, *_ = pool.sort_round(rcv, snd, pay, None, counts)
            gen = pool.gen
            # Same layout, new payloads (the flooding steady state).
            for _ in range(3):
                pay = rng.integers(0, 2**40, size=120).astype(np.int64)
                pay2 = rng.integers(0, 2**10, size=120).astype(np.int64)
                pay_s, pay2_s = pool.gather_payloads(120, pay, pay2, gen)
                assert np.array_equal(pay_s, pay[order])
                assert np.array_equal(pay2_s, pay2[order])
        finally:
            pool.close()

    def test_stale_generation_raises(self):
        rng = np.random.default_rng(4)
        n = 9
        pool = ShardPool(n, 2, capacity=64)
        try:
            rcv, snd, pay, _ = random_round(rng, n, 30)
            counts = np.bincount(rcv, minlength=n)
            pool.sort_round(rcv, snd, pay, None, counts)
            old_gen = pool.gen
            pool.sort_round(rcv, snd, pay, None, counts)  # gen moves on
            with pytest.raises(RuntimeError, match="stale shard generation"):
                pool.gather_payloads(30, pay, None, old_gen)
        finally:
            pool.close()


class TestSerialFallback:
    def test_serial_mode_is_bit_for_bit_the_pool(self):
        # Force the no-fork degradation and check it computes the same
        # per-shard jobs (portability escape hatch, must not change
        # semantics).
        rng = np.random.default_rng(5)
        n = 23
        pooled = ShardPool(n, 3, capacity=64)
        serial = ShardPool(n, 3, capacity=64)
        serial._stop_workers()
        serial._serial = True
        try:
            for _ in range(3):
                rcv, snd, pay, pay2 = random_round(rng, n, 150, with_pay2=True)
                counts = np.bincount(rcv, minlength=n)
                a = pooled.sort_round(rcv, snd, pay, pay2, counts)
                b = serial.sort_round(rcv, snd, pay, pay2, counts)
                for x, y in zip(a, b):
                    assert np.array_equal(x, y)
            pay = rng.integers(0, 99, size=150).astype(np.int64)
            a = pooled.gather_payloads(150, pay, None, pooled.gen)
            b = serial.gather_payloads(150, pay, None, serial.gen)
            assert np.array_equal(a[0], b[0])
        finally:
            pooled.close()
            serial.close()


class TestLifecycle:
    def test_close_is_idempotent_and_workers_exit(self):
        pool = ShardPool(5, 2, capacity=8)
        procs = list(pool._procs)
        pool.close()
        pool.close()
        for proc in procs:
            proc.join(timeout=5)
            assert not proc.is_alive()

    def test_one_worker_is_rejected(self):
        with pytest.raises(ValueError, match=">= 2 workers"):
            ShardPool(5, 1)
