"""Generated differential test of the delivery tail.

Hypothesis draws scripted SoA round sequences that mix, within one run,
everything the delivery phases branch on: column pairs re-emitted as the
same array objects (layout-cache hits), one pool column re-emitted next
to a fresh one (half hits), fresh columns, self-addressed rows, a fault
hook returning a boolean keep-mask or keep-indices (or ``None``),
per-row and per-sender payload lanes, and send/receive caps that bind
or not.  Three executions of each script must agree exactly — inboxes,
``metrics.as_dict()`` and the delivery generator's state:

- the SoA tier with the layout cache on;
- the SoA tier with the cache off (every round sorts afresh);
- the same traffic as per-message object nodes on the legacy engine,
  the plainly written oracle.

A second strategy draws what CreateExpander's lazy walks deliver: rounds
at least 75% self-addressed, with or without a fault hook installed and
with caps that mostly bind, so the local rows' keyed sort runs both on
the uncut entry columns and after a phase cut the remote rows out.
There the object tier also runs on the vectorized engine.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.batch import BySender, MessageBatch
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.net.soa import SoAProtocolClass
from repro.runtime import RunContext

CAPS = (None, 1, 2, 3, 10)


@dataclass(frozen=True)
class Round:
    """One scripted round: the columns to emit and what happens to them."""

    pair: int  # index into the script's pool, or -1 for fresh columns
    reuse: str  # which pool columns are re-emitted: "both", "snd" or "rcv"
    snd: tuple
    rcv: tuple
    hook: str  # "none" (the hook returns None), "mask" or "indices"
    keep: tuple  # keep bits over the round's remote rows
    by_sender: bool


@dataclass(frozen=True)
class Script:
    n: int
    pool: tuple  # ((snd, rcv), ...) pairs re-emitted as the same arrays
    rounds: tuple
    capacity: CapacityPolicy
    hooked: bool = True  # whether the network installs the fault hook


@st.composite
def scripts(draw) -> Script:
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)

    def columns(snd=None):
        """Ascending senders (drawn unless given) and their receivers;
        half the time no row is self-addressed, so the round may use
        the layout cache."""
        if snd is None:
            m = draw(st.integers(1, 10))
            snd = tuple(sorted(draw(st.lists(node, min_size=m, max_size=m))))
        m = len(snd)
        if draw(st.booleans()):
            rcv = draw(st.lists(node, min_size=m, max_size=m))
        else:
            shift = draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m))
            rcv = [(s + d) % n for s, d in zip(snd, shift)]
        return snd, tuple(rcv)

    pool = tuple(columns() for _ in range(draw(st.integers(1, 2))))
    rounds = []
    for _ in range(draw(st.integers(1, 8))):
        index = draw(st.integers(-1, len(pool) - 1))
        reuse = draw(st.sampled_from(["both", "both", "snd", "rcv"]))
        if index < 0:
            snd, rcv = columns()
        elif reuse == "snd":
            # A half re-emission pairs one pool column with a fresh one.
            snd, rcv = columns(pool[index][0])
        elif reuse == "rcv":
            rcv = pool[index][1]
            m = len(rcv)
            snd = tuple(sorted(draw(st.lists(node, min_size=m, max_size=m))))
        else:
            snd, rcv = pool[index]
        rounds.append(
            Round(
                index,
                reuse,
                snd,
                rcv,
                draw(st.sampled_from(["none", "mask", "indices"])),
                tuple(draw(st.lists(st.booleans(), min_size=len(snd), max_size=len(snd)))),
                draw(st.booleans()),
            )
        )
    capacity = CapacityPolicy(draw(st.sampled_from(CAPS)), draw(st.sampled_from(CAPS)))
    return Script(n, pool, tuple(rounds), capacity)


@st.composite
def local_heavy_scripts(draw) -> Script:
    """Fresh rounds in which at most a quarter of the rows leave their
    sender; the rest are self-addressed."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    rounds = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(1, 24))
        snd = sorted(draw(st.lists(node, min_size=m, max_size=m)))
        rcv = list(snd)
        for i in draw(st.sets(st.integers(0, m - 1), max_size=m // 4)):
            rcv[i] = (snd[i] + draw(st.integers(1, n - 1))) % n
        assert 4 * sum(r != s for r, s in zip(rcv, snd)) <= m
        rounds.append(
            Round(
                -1,
                "both",
                tuple(snd),
                tuple(rcv),
                draw(st.sampled_from(["none", "mask", "indices"])),
                tuple(draw(st.lists(st.booleans(), min_size=m, max_size=m))),
                draw(st.booleans()),
            )
        )
    binding = st.sampled_from((1, 2, 3, None))
    capacity = CapacityPolicy(draw(binding), draw(binding))
    return Script(n, (), tuple(rounds), capacity, draw(st.booleans()))


def _payload_column(round_no: int, n: int) -> np.ndarray:
    return 1000 * round_no + 100 + np.arange(n, dtype=np.int64)


def _payloads(script: Script, round_no: int) -> np.ndarray:
    """Round ``round_no``'s payload per row (what either lane delivers)."""
    rnd = script.rounds[round_no]
    if rnd.by_sender:
        return _payload_column(round_no, script.n)[np.asarray(rnd.snd)]
    return 1000 * round_no + np.arange(len(rnd.snd), dtype=np.int64)


def _hook(script: Script):
    """The same oblivious adversary for every execution: round ``r``'s
    keep bits over its remote rows, in canonical order."""

    def hook(round_no, senders, receivers):
        if round_no >= len(script.rounds):
            return None
        rnd = script.rounds[round_no]
        if rnd.hook == "none":
            return None
        keep = np.array(rnd.keep[: senders.shape[0]], dtype=bool)
        return keep if rnd.hook == "mask" else np.flatnonzero(keep)

    return hook


class Emitter(SoAProtocolClass):
    """Emits the script's rounds; pool pairs as the same arrays each time."""

    def __init__(self, script: Script):
        super().__init__(script.n)
        self.script = script
        self.pool = [
            (np.array(snd, dtype=np.int64), np.array(rcv, dtype=np.int64))
            for snd, rcv in script.pool
        ]
        self.log: list[tuple[int, int, int, int]] = []

    def on_round_soa(self, round_no, inbox):
        self.log.extend(
            (round_no, int(r), int(s), int(p))
            for r, s, p in zip(inbox.receivers, inbox.senders, inbox.payloads)
        )
        if round_no >= len(self.script.rounds):
            return None
        rnd = self.script.rounds[round_no]
        snd = np.array(rnd.snd, dtype=np.int64)
        rcv = np.array(rnd.rcv, dtype=np.int64)
        if rnd.pair >= 0:
            pool_snd, pool_rcv = self.pool[rnd.pair]
            snd = pool_snd if rnd.reuse != "rcv" else snd
            rcv = pool_rcv if rnd.reuse != "snd" else rcv
        if rnd.by_sender:
            pay = BySender(_payload_column(round_no, self.n))
        else:
            pay = _payloads(self.script, round_no)
        return MessageBatch._raw(snd, rcv, 0, pay)


class ObjectNode(ProtocolNode):
    """One node's share of the script as per-message objects."""

    def __init__(self, node_id, script: Script, log):
        super().__init__(node_id)
        self.script = script
        self.log = log

    def on_round(self, round_no, inbox):
        self.log.extend((round_no, self.node_id, m.sender, m.payload) for m in inbox)
        if round_no >= len(self.script.rounds):
            return []
        rnd = self.script.rounds[round_no]
        pay = _payloads(self.script, round_no)
        return [
            Message(self.node_id, rnd.rcv[i], "x", int(pay[i]))
            for i, s in enumerate(rnd.snd)
            if s == self.node_id
        ]


def _execute(script: Script, mode: str, seed: int):
    rng = np.random.default_rng(seed)
    hook = _hook(script) if script.hooked else None
    if mode.startswith("object"):
        log: list = []
        nodes = {v: ObjectNode(v, script, log) for v in range(script.n)}
        engine = "vectorized" if mode == "object-vectorized" else "legacy"
        ctx = RunContext.resolve(engine=engine, fault_hook=hook)
        net = SyncNetwork(nodes, script.capacity, rng, ctx=ctx)
    else:
        cls = Emitter(script)
        log = cls.log
        ctx = RunContext.resolve(layout_reuse=mode == "cache-on", fault_hook=hook)
        net = SyncNetwork(cls, script.capacity, rng, ctx=ctx)
    for _ in range(len(script.rounds) + 1):
        net.run_round()
    return log, net.metrics.as_dict(), rng.bit_generator.state


@given(scripts(), st.integers(0, 2**16))
@settings(max_examples=400, deadline=None)
def test_cache_on_cache_off_and_object_tier_agree(script, seed):
    want = _execute(script, "object", seed)
    for mode in ("cache-on", "cache-off"):
        got = _execute(script, mode, seed)
        assert got[0] == want[0], mode
        assert got[1] == want[1], mode
        assert got[2] == want[2], mode


@given(local_heavy_scripts(), st.integers(0, 2**16))
@settings(max_examples=300, deadline=None)
def test_self_addressed_rounds_agree(script, seed):
    want = _execute(script, "object", seed)
    for mode in ("cache-on", "cache-off", "object-vectorized"):
        got = _execute(script, mode, seed)
        assert got[0] == want[0], mode
        assert got[1] == want[1], mode
        assert got[2] == want[2], mode
