"""Bench-side instrumentation: who spent the time, measured from outside.

Nothing here changes the program.  The traced arm runs a workload's
per-layer calls under a :func:`repro.obs.capture` session (which records
the ``net`` / ``shard`` / ``sync`` round tables) with

- :class:`LayerSpans` — one ``cat="layer"`` span per bench-side call into
  a layer, remembering which round tables were opened inside it;
- :class:`CallTimers` — wrappers that time ``on_round_soa`` of the three
  SoA protocol classes and ``ScenarioSpec.compile``, installed only for
  the duration of a traced run.  A ``net`` row times the whole round, so
  round time minus protocol time is delivery time.

:func:`breakdown` turns one traced run into per-layer self-times (which
partition the layer spans exactly) and the per-layer metrics.
:func:`recorded_networks` lets the untraced warm-up read the engine's own
``NetworkMetrics`` for the message counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.core.batch_protocol import SoAExpanderClass
from repro.core.soa_rooting import SoARootingClass
from repro.hybrid.soa_pipeline import SoASpannerClass
from repro.net.network import SyncNetwork
from repro.scenarios.spec import ScenarioSpec

#: Layers whose self-times partition a traced run, in report order.
SELF_LAYERS = (
    "net",
    "core.expander",
    "core.rooting",
    "core.wellform",
    "hybrid.spanner",
    "hybrid.reduce",
    "hybrid.overlay",
    "hybrid.bfs",
    "hybrid.wellform",
    "scenarios",
)

#: Protocol classes whose rounds run inside ``net`` rows, by owning layer.
PROTOCOL_LAYERS = {
    SoAExpanderClass: "core.expander",
    SoARootingClass: "core.rooting",
    SoASpannerClass: "hybrid.spanner",
}

#: Per-layer counts the traced arm's calls report (0 where a workload
#: does not run the layer).
COUNT_METRICS = (
    "core.expander.rounds",
    "core.expander.messages",
    "core.rooting.rounds",
    "core.rooting.messages",
    "core.wellform.rounds",
    "hybrid.spanner.rounds",
    "hybrid.overlay.max_global_capacity",
    "hybrid.bfs.rounds",
    "hybrid.wellform.rounds",
)

#: Percentiles tried for ``net.round_ms.tail``, highest first.
TAIL_LADDER = (0.999, 0.99, 0.9, 0.5)


class LayerSpans:
    """Bench-side layer spans on a tracer, with the round tables each one
    opened (a ``SyncNetwork`` opens its table when it is built)."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.records: list[tuple[str, float, list]] = []

    @contextmanager
    def layer(self, name: str):
        first = len(self.tracer.tables)
        with self.tracer.span(name, cat="layer") as span:
            yield span
        self.records.append((name, span.seconds, self.tracer.tables[first:]))


class CallTimers:
    """Context manager timing selected methods by patching their classes."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._targets = [(cls, "on_round_soa", layer) for cls, layer in PROTOCOL_LAYERS.items()]
        self._targets.append((ScenarioSpec, "compile", "scenarios.compile"))
        self._saved: list[tuple[type, str, object]] = []

    def _wrap(self, fn, key: str):
        seconds = self.seconds
        seconds[key] = 0.0

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - start

        return timed

    def __enter__(self) -> "CallTimers":
        for owner, attr, key in self._targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, key))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


@contextmanager
def recorded_networks():
    """Collect every :class:`SyncNetwork` built inside the block; the list
    is emptied on exit so shard pools can close with their networks."""
    built: list[SyncNetwork] = []
    init = SyncNetwork.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    SyncNetwork.__init__ = recording_init
    try:
        yield built
    finally:
        SyncNetwork.__init__ = init
        built.clear()


def network_counts(networks: list[SyncNetwork]) -> tuple[int, int]:
    """``(messages, max_node_load)`` summed / maxed over the networks."""
    metrics = [net.metrics for net in networks]
    messages = sum(m.total_messages for m in metrics)
    load = max(
        (max(m.max_sent_per_round, m.max_received_per_round) for m in metrics),
        default=0,
    )
    return messages, load


def _column(tables, name: str) -> np.ndarray:
    if not tables:
        return np.empty(0)
    return np.concatenate([t.column(name) for t in tables])


def _shard_ops(tables) -> tuple[float, float, float]:
    """Sort seconds, gather seconds (slowest worker per op, summed) and the
    median max/mean worker-seconds imbalance per op."""
    sort_s = gather_s = 0.0
    ratios = []
    for table in tables:
        rounds, ops, secs = (table.column(c) for c in ("round", "op", "seconds"))
        keys = rounds * 2 + ops
        for key in np.unique(keys):
            per_worker = secs[keys == key]
            slowest = float(per_worker.max())
            if key % 2 == 0:
                sort_s += slowest
            else:
                gather_s += slowest
            if per_worker.mean() > 0:
                ratios.append(slowest / float(per_worker.mean()))
    return sort_s, gather_s, float(np.median(ratios)) if ratios else 0.0


def breakdown(
    tracer, spans: LayerSpans, timers: CallTimers, wall: float, scale: float = 1.0
) -> dict:
    """Per-layer view of one traced run, every time multiplied by ``scale``.

    Self-time rules: a layer span's self-time is its duration minus the
    ``net`` rounds it ran; a protocol class's ``on_round_soa`` time is
    its layer's; the rest of the ``net`` rounds is delivery, ``net``'s
    own.  The self-times therefore sum to the spans' total, and
    ``obs.unattributed_pct`` is what fell between spans.
    """
    wall *= scale
    net = tracer.tables_of("net")
    round_secs = _column(net, "seconds") * scale
    round_s = float(round_secs.sum())
    protocol = {
        layer: timers.seconds.get(layer, 0.0) * scale for layer in PROTOCOL_LAYERS.values()
    }
    protocol_s = sum(protocol.values())
    deliver_s = round_s - protocol_s

    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    span_s = dict.fromkeys(SELF_LAYERS, 0.0)
    for name, seconds, tables in spans.records:
        span_s[name] += seconds * scale
        self_s[name] += scale * (
            seconds - sum(float(t.column("seconds").sum()) for t in tables if t.kind == "net")
        )
    for layer, seconds in protocol.items():
        self_s[layer] += seconds
    self_s["net"] += deliver_s
    span_s["net"] = round_s

    sent = float(_column(net, "sent").sum())
    delivered = float(_column(net, "delivered").sum())
    drops = float(_column(net, "send_drops").sum() + _column(net, "receive_drops").sum())
    sync = tracer.tables_of("sync")
    sync_s = float(_column(sync, "seconds").sum()) * scale
    sort_s, gather_s, imbalance = _shard_ops(tracer.tables_of("shard"))
    sort_s, gather_s = sort_s * scale, gather_s * scale

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    metrics = {
        "net.round_s": round_s,
        "net.deliver_s": deliver_s,
        "net.protocol_s": protocol_s,
        "net.rounds": float(round_secs.shape[0]),
        "net.delivered_per_s": delivered / deliver_s,
        "net.layout_hit_ratio": float(_column(net, "layout_hit").mean()),
        "net.drop_ratio": drops / sent if sent else 0.0,
        "net.fault_drop_ratio": float(_column(net, "fault_drops").sum()) / sent if sent else 0.0,
        "net.shard.sort_pct": pct(sort_s),
        "net.shard.gather_pct": pct(gather_s),
        "net.shard.imbalance": imbalance,
        "scenarios.sync.self_pct": pct(sync_s - round_s) if sync else 0.0,
        "scenarios.sync.staged": float(_column(sync, "staged").sum()),
        "scenarios.sync.held_peak": float(_column(sync, "held").max(initial=0)),
        "scenarios.faults.compile_pct": pct(
            timers.seconds.get("scenarios.compile", 0.0) * scale
        ),
        "obs.traced_wall_s": wall,
        "obs.unattributed_pct": pct(wall - sum(self_s.values())),
    }
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_pct"] = pct(self_s[layer])
    for layer, seconds in protocol.items():
        metrics[f"{layer}.protocol_pct"] = pct(seconds)
    return {
        "metrics": metrics,
        "round_ms": (round_secs * 1e3).tolist(),
        "self_s": self_s,
        "span_s": span_s,
    }


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it
    (the median when there are fewer than twenty samples)."""
    for p in TAIL_LADDER:
        if (1.0 - p) * count >= 10:
            return p
    return 0.5
