"""Sharded shared-memory receiver sort for the SoA delivery tail.

At ``n = 10⁷`` one round of SoA delivery is a handful of O(m) column
passes, and the heaviest of them — the receiver-grouping sort plus the
sorted gathers that build the next :class:`~repro.net.soa.SoAInbox` —
parallelise cleanly: the inbox layout is already *sharded by receiver*
(receiver-sorted columns are the concatenation of disjoint receiver
ranges).  This module supplies the worker pool behind ``RunContext.workers``
(``SyncNetwork(..., ctx=...)``):

- **arena**: one anonymous ``mmap`` (``MAP_SHARED``) per column, created
  *before* the workers fork so parent and children address the same
  physical pages — no pickling, no per-round serialisation.  The parent
  copies the round's flat columns in; workers write their sorted slices
  out; the parent copies the results back out (the arena is reused the
  next round).
- **shards**: worker ``w`` owns the contiguous receiver-index range
  ``[bounds[w], bounds[w+1])``.  It selects its messages with one
  ``flatnonzero`` scan, sorts them with the same stable
  :func:`~repro.net.vectorops.group_argsort` the single-process tail
  uses, and writes order + gathered columns at its global offset
  (the cumulative receiver-count prefix at its lower bound).
- **merge**: nothing to do.  ``np.flatnonzero`` yields ascending
  indices, so each shard's sort is the stable sort of a *subsequence*,
  and concatenating stable sorts over disjoint ascending receiver
  ranges is exactly the global stable receiver sort.  The sharded
  result is therefore **bit-for-bit** the single-process permutation —
  not merely equivalent — which is what lets the differential matrices
  compare executions across worker counts directly.

Steady-state rounds whose receiver layout is unchanged (the flooding
fast path — see the layout cache in :mod:`repro.net.network`) skip the
sort entirely: workers keep their shard permutation across rounds
(keyed by a generation counter) and a ``gather`` job re-gathers only
the payload lanes.

When ``fork`` is unavailable the pool degrades to an in-process serial
loop over the same per-shard jobs — bit-for-bit identical by
construction, so worker counts stay portable knobs rather than
semantics.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import time
import warnings
import weakref

import numpy as np

from repro import sanitize as _sanitize
from repro.net.vectorops import group_argsort

__all__ = [
    "ShardPool",
    "effective_workers",
    "fork_available",
    "shard_bounds",
]

_COLUMNS = (
    # round inputs (parent writes, workers read)
    "rcv",
    "snd",
    "pay",
    "pay2",
    # sorted outputs (workers write, parent reads)
    "order",
    "rcv_s",
    "snd_s",
    "pay_s",
    "pay2_s",
)

_WORKER_TIMEOUT = 60.0  # seconds; a shard job is a few O(m/W) passes

#: Guard value planted one slot past the round's extent under
#: ``REPRO_SANITIZE=1``; any other value after a sort means a worker
#: wrote beyond its prefix-sum range.
_CANARY = -0x5EEDCAFE


def fork_available() -> bool:
    """Whether the fork start method (and hence a real worker pool)
    exists on this platform."""
    try:
        mp.get_context("fork")
    except ValueError:
        return False
    return True


def effective_workers(workers: int) -> int:
    """The process count a ``workers``-worker pool actually runs with:
    ``workers`` under fork, 1 under the serial fallback.  Bench JSON
    records this next to the requested count so cross-platform result
    files stay honest about their parallelism."""
    if workers > 1 and not fork_available():
        return 1
    return int(workers)


_SERIAL_FALLBACK_WARNED = False


def _warn_serial_fallback(workers: int) -> None:
    """One warning per process: requested parallelism quietly degrading
    to a serial loop is worth a single loud line, not per-pool spam."""
    global _SERIAL_FALLBACK_WARNED
    if _SERIAL_FALLBACK_WARNED:
        return
    _SERIAL_FALLBACK_WARNED = True
    warnings.warn(
        f"ShardPool(workers={workers}): the fork start method is "
        "unavailable on this platform; running the per-shard jobs as an "
        "in-process serial loop (bit-for-bit identical results, no "
        "parallel speedup). Bench rows record workers_effective=1.",
        RuntimeWarning,
        stacklevel=3,
    )


def shard_bounds(n: int, workers: int) -> np.ndarray:
    """Contiguous receiver-index ranges: shard ``w`` owns
    ``[bounds[w], bounds[w+1])``.  Ranges partition ``0..n-1`` evenly
    (within one) and may be empty when ``workers > n``."""
    if n < 0 or workers < 1:
        raise ValueError("need n >= 0 and workers >= 1")
    return np.asarray(
        [(n * w) // workers for w in range(workers + 1)], dtype=np.int64
    )


def _worker_loop(conn, cols, lo: int, hi: int) -> None:
    """One shard worker: serve sort/gather jobs over the shared arena."""
    rcv_in, snd_in, pay_in, pay2_in = (
        cols["rcv"],
        cols["snd"],
        cols["pay"],
        cols["pay2"],
    )
    order_out, rcv_out, snd_out, pay_out, pay2_out = (
        cols["order"],
        cols["rcv_s"],
        cols["snd_s"],
        cols["pay_s"],
        cols["pay2_s"],
    )
    local = None  # cached global indices of this shard's messages
    gen_seen = -1
    off_seen = 0
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent vanished
            break
        op = job[0]
        if op == "stop":
            break
        try:
            if op == "sort":
                _, m, off, gen, want_pay2 = job
                # Per-job wall seconds ride back on the reply so a traced
                # run can report shard balance; measurement is telemetry's
                # job, the sort itself stays seed-determined.
                start = time.perf_counter()  # repro-lint: disable=RL202
                rcv = rcv_in[:m]
                sel = np.flatnonzero((rcv >= lo) & (rcv < hi))
                # sel is ascending, so this is the stable sort of a
                # subsequence — stability of the global order preserved.
                perm = group_argsort(rcv[sel] - lo, hi - lo)
                local = sel[perm]
                gen_seen, off_seen = gen, off
                k = local.shape[0]
                end = off + k
                order_out[off:end] = local
                rcv_out[off:end] = rcv[local]
                snd_out[off:end] = snd_in[local]
                pay_out[off:end] = pay_in[local]
                if want_pay2:
                    pay2_out[off:end] = pay2_in[local]
                dt = time.perf_counter() - start  # repro-lint: disable=RL202
                conn.send(("ok", k, dt))
            elif op == "gather":
                _, gen, want_pay2 = job
                if local is None or gen != gen_seen:
                    conn.send(("error", "stale shard generation", 0.0))
                    continue
                start = time.perf_counter()  # repro-lint: disable=RL202
                end = off_seen + local.shape[0]
                pay_out[off_seen:end] = pay_in[local]
                if want_pay2:
                    pay2_out[off_seen:end] = pay2_in[local]
                dt = time.perf_counter() - start  # repro-lint: disable=RL202
                conn.send(("ok", int(local.shape[0]), dt))
            else:
                conn.send(("error", f"unknown shard op {op!r}", 0.0))
        except Exception as exc:  # pragma: no cover - defensive relay
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}", 0.0))
            except OSError:
                break
    conn.close()


def _shutdown(procs, conns) -> None:
    """Stop workers (also the ``weakref.finalize`` target, so it must not
    hold the pool itself)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, BrokenPipeError, ValueError):
            pass
    for proc in procs:
        proc.join(timeout=2)
        if proc.is_alive():  # pragma: no cover - wedged worker
            proc.terminate()
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardPool:
    """Persistent worker pool computing the receiver sort in shards.

    ``sort_round`` is a drop-in for the single-process tail's

    .. code-block:: python

        order = group_argsort(rcv_idx, n)
        rcv_s, snd_s, pay_s = rcv_idx[order], snd_all[order], pay_all[order]

    returning bit-for-bit identical arrays (see module docstring for the
    stability argument).  The pool owns its arena and workers; arenas are
    resized by re-creating the pool state when a round outgrows them.
    """

    def __init__(self, n: int, workers: int, capacity: int = 1024) -> None:
        if workers < 2:
            raise ValueError(
                "ShardPool needs >= 2 workers; the 1-worker path is the "
                "in-process sort"
            )
        self.n = int(n)
        self.workers = int(workers)
        self.bounds = shard_bounds(self.n, self.workers)
        self.gen = 0
        # Telemetry of the most recent op (sort or gather): per-worker
        # message counts and wall seconds, plus an op sequence number so
        # a traced network can turn "ops since last seen" into per-round
        # shard rows.  Pure observation — never read by the sort itself.
        self.last_counts = np.zeros(self.workers, dtype=np.int64)
        self.last_seconds = np.zeros(self.workers, dtype=np.float64)
        self.last_op: str | None = None
        self.op_seq = 0
        self._capacity = 0
        self._cols: dict[str, np.ndarray] | None = None
        self._procs: list = []
        self._conns: list = []
        self._serial_cache: list[tuple[np.ndarray, int]] = []
        self._finalizer = None
        try:
            self._ctx = mp.get_context("fork")
            self._serial = False
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = None
            self._serial = True
            _warn_serial_fallback(self.workers)
        self._setup(max(int(capacity), 1))

    # ------------------------------------------------------------------
    def _setup(self, capacity: int) -> None:
        self._stop_workers()
        # A fresh arena invalidates every worker-side permutation cache;
        # bumping the generation makes the parent-side layout cache fall
        # back to a full sort instead of a stale gather.
        self.gen += 1
        self._capacity = capacity
        cols: dict[str, np.ndarray] = {}
        for name in _COLUMNS:
            # Anonymous MAP_SHARED pages: untouched columns (e.g. an
            # unused pay2 lane) cost address space only.  The old arena
            # is reclaimed when its last numpy view is garbage-collected.
            cols[name] = np.frombuffer(
                mmap.mmap(-1, capacity * 8), dtype=np.int64
            )
        self._cols = cols
        if self._serial:
            return
        procs, conns = [], []
        for w in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_loop,
                args=(
                    child_conn,
                    cols,
                    int(self.bounds[w]),
                    int(self.bounds[w + 1]),
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        self._procs, self._conns = procs, conns
        self._finalizer = weakref.finalize(self, _shutdown, procs, conns)

    def _stop_workers(self) -> None:
        if self._finalizer is not None:
            self._finalizer()  # idempotent
            self._finalizer = None
        self._procs, self._conns = [], []
        self._serial_cache = []

    def close(self) -> None:
        """Stop the workers and drop the arena (safe to call twice)."""
        self._stop_workers()
        self._cols = None
        self._capacity = 0

    def _ensure(self, m: int) -> None:
        if m <= self._capacity and self._cols is not None:
            return
        self._setup(max(2 * m, 2 * self._capacity, 1024))

    # ------------------------------------------------------------------
    def _collect(self) -> int:
        total = 0
        for w, conn in enumerate(self._conns):
            if not conn.poll(_WORKER_TIMEOUT):  # pragma: no cover
                raise RuntimeError(f"shard worker {w} timed out")
            tag, val, dt = conn.recv()
            if tag != "ok":
                raise RuntimeError(f"shard worker {w} failed: {val}")
            self.last_counts[w] = val
            self.last_seconds[w] = dt
            total += val
        return total

    def _serial_sort(self, m: int, offs: np.ndarray, want_pay2: bool) -> None:
        cols = self._cols
        rcv = cols["rcv"][:m]
        self._serial_cache = []
        for w in range(self.workers):
            start = time.perf_counter()  # repro-lint: disable=RL202
            lo, hi = int(self.bounds[w]), int(self.bounds[w + 1])
            sel = np.flatnonzero((rcv >= lo) & (rcv < hi))
            perm = group_argsort(rcv[sel] - lo, hi - lo)
            local = sel[perm]
            off = int(offs[w])
            end = off + local.shape[0]
            cols["order"][off:end] = local
            cols["rcv_s"][off:end] = rcv[local]
            cols["snd_s"][off:end] = cols["snd"][local]
            cols["pay_s"][off:end] = cols["pay"][local]
            if want_pay2:
                cols["pay2_s"][off:end] = cols["pay2"][local]
            self._serial_cache.append((local, off))
            self.last_counts[w] = local.shape[0]
            self.last_seconds[w] = time.perf_counter() - start  # repro-lint: disable=RL202

    # ------------------------------------------------------------------
    def sort_round(
        self,
        rcv_idx: np.ndarray,
        snd_all: np.ndarray,
        pay_all: np.ndarray,
        pay2_all: np.ndarray | None,
        recv_counts: np.ndarray,
    ):
        """Sharded receiver sort + delivery gathers for one round.

        ``recv_counts`` is the round's per-receiver ``bincount`` (length
        ``n``) — its prefix sums at the shard bounds are the workers'
        output offsets, which is the whole "merge".  Returns
        ``(order, rcv_s, snd_s, pay_s, pay2_s)`` bit-for-bit equal to
        the in-process ``group_argsort`` path.
        """
        m = int(rcv_idx.shape[0])
        if recv_counts.shape[0] != self.n:
            raise ValueError(
                f"recv_counts must have length n={self.n}, "
                f"got {recv_counts.shape[0]}"
            )
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty, (None if pay2_all is None else empty)
        self._ensure(m)
        cols = self._cols
        cols["rcv"][:m] = rcv_idx
        cols["snd"][:m] = snd_all
        cols["pay"][:m] = pay_all
        want_pay2 = pay2_all is not None
        if want_pay2:
            cols["pay2"][:m] = pay2_all
        csum = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(recv_counts, out=csum[1:])
        offs = csum[self.bounds[:-1]]
        self.gen += 1
        sanitize = _sanitize.ENABLED
        guarded = False
        if sanitize:
            # Arena canary: a valid ``order`` entry is an index in
            # ``[0, m)``, so poison the lane with -1 and plant a guard
            # one slot past the round's extent.  A worker writing outside
            # its prefix-sum range either leaves a poisoned slot
            # uncovered (overlap elsewhere) or tramples the guard —
            # both the write-overlap race class the shard merge relies
            # on never happening.
            cols["order"][:m] = -1
            guarded = self._capacity > m
            if guarded:
                cols["order"][m] = _CANARY
        if self._serial:
            self._serial_sort(m, offs, want_pay2)
        else:
            for w, conn in enumerate(self._conns):
                conn.send(("sort", m, int(offs[w]), self.gen, want_pay2))
            total = self._collect()
            if total != m:
                raise RuntimeError(
                    f"shard sort covered {total} of {m} messages — "
                    "receiver indices outside [0, n)?"
                )
        if sanitize:
            order_lane = cols["order"][:m]
            if bool((order_lane < 0).any()):
                hole = int(np.argmax(order_lane < 0))
                raise _sanitize.SanitizeError(
                    f"sanitize: shard sort left output slot {hole} of {m} "
                    "unwritten — workers overlapped or skipped a "
                    "prefix-sum range"
                )
            if guarded and int(cols["order"][m]) != _CANARY:
                raise _sanitize.SanitizeError(
                    "sanitize: shard sort trampled the guard slot past "
                    f"the round's extent (m={m}) — a worker wrote beyond "
                    "its range"
                )
            _sanitize.check_receiver_sorted("rcv_s", cols["rcv_s"][:m])
        self.last_op = "sort"
        self.op_seq += 1
        return (
            cols["order"][:m].copy(),
            cols["rcv_s"][:m].copy(),
            cols["snd_s"][:m].copy(),
            cols["pay_s"][:m].copy(),
            cols["pay2_s"][:m].copy() if want_pay2 else None,
        )

    def gather_payloads(
        self,
        m: int,
        pay_all: np.ndarray,
        pay2_all: np.ndarray | None,
        gen: int,
    ):
        """Re-gather only the payload lanes with the shard permutations
        cached by the ``gen``-th :meth:`sort_round` (steady-state rounds
        whose receiver layout is unchanged)."""
        if gen != self.gen:
            raise RuntimeError("stale shard generation for payload gather")
        cols = self._cols
        cols["pay"][:m] = pay_all
        want_pay2 = pay2_all is not None
        if want_pay2:
            cols["pay2"][:m] = pay2_all
        if self._serial:
            for w, (local, off) in enumerate(self._serial_cache):
                start = time.perf_counter()  # repro-lint: disable=RL202
                end = off + local.shape[0]
                cols["pay_s"][off:end] = cols["pay"][local]
                if want_pay2:
                    cols["pay2_s"][off:end] = cols["pay2"][local]
                self.last_counts[w] = local.shape[0]
                self.last_seconds[w] = time.perf_counter() - start  # repro-lint: disable=RL202
        else:
            for conn in self._conns:
                conn.send(("gather", gen, want_pay2))
            self._collect()
        self.last_op = "gather"
        self.op_seq += 1
        return (
            cols["pay_s"][:m].copy(),
            cols["pay2_s"][:m].copy() if want_pay2 else None,
        )
