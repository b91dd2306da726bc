"""Tracer core: columnar round tables, span nesting, ambient resolution.

The resolution precedence under test is the probe-site contract
(docs/observability.md): an explicit ``tracer=`` kwarg beats the
session-scoped :func:`~repro.obs.activate`/:func:`~repro.obs.capture`
tracer, which beats the ``REPRO_TRACE`` environment singleton; ``None``
everywhere means every hook stays un-entered.
"""

import numpy as np
import pytest

from repro.graphs.portgraph import PortGraph
from repro.obs import (
    TRACE_ENV,
    RoundTrace,
    Tracer,
    activate,
    active_tracer,
    capture,
    maybe_span,
    read_trace,
    resolve_tracer,
)
from repro.obs.tracer import _reset_ambient_for_tests


@pytest.fixture(autouse=True)
def clean_ambient():
    _reset_ambient_for_tests()
    yield
    _reset_ambient_for_tests()


def fake_clock(step=1.0):
    state = {"t": 0.0}

    def clock():
        t = state["t"]
        state["t"] += step
        return t

    return clock


class TestRoundTrace:
    def test_append_and_column_views(self):
        rt = RoundTrace("net#0", "net", ("round", "sent"), capacity=16)
        for i in range(5):
            rt.append(i, 10 * i, 0.5 * i)
        assert len(rt) == 5
        assert rt.columns == ("round", "sent", "seconds")
        assert rt.column("round").dtype == np.int64
        assert rt.column("seconds").dtype == np.float64
        assert rt.column("sent").tolist() == [0, 10, 20, 30, 40]
        assert rt.column("seconds").tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_growth_past_capacity_preserves_rows(self):
        rt = RoundTrace("t#0", "t", ("x",), capacity=4)  # clamps to 16
        for i in range(100):
            rt.append(i, float(i))
        assert len(rt) == 100
        assert rt.column("x").tolist() == list(range(100))
        assert rt.column("seconds")[99] == 99.0

    def test_rows_are_plain_scalars(self):
        rt = RoundTrace("t#0", "t", ("a", "b"))
        rt.append(1, 2, 0.25)
        (row,) = rt.rows()
        assert row == [1, 2, 0.25]
        assert all(type(v) in (int, float) for v in row)


class TestSpans:
    def test_nesting_parent_links(self):
        tr = Tracer(clock=fake_clock())
        with tr.span("run", cat="run") as outer:
            with tr.span("round", cat="round") as inner:
                pass
        assert outer.parent == -1
        assert inner.parent == outer.id
        assert inner.seconds > 0
        assert outer.seconds > inner.seconds

    def test_attrs_mutable_after_close(self):
        tr = Tracer(clock=fake_clock())
        with tr.span("scenario", cat="scenario", n=8) as sp:
            pass
        sp.attrs["rounds"] = 17
        assert tr.spans[0].attrs == {"n": 8, "rounds": 17}

    def test_counter_events(self):
        tr = Tracer(clock=fake_clock())
        tr.counter("queue_depth", 3, {"round": 1})
        (name, ts, value, attrs) = tr.counters[0]
        assert (name, value, attrs) == ("queue_depth", 3, {"round": 1})
        assert ts >= 0

    def test_table_naming_and_kind_lookup(self):
        tr = Tracer(clock=fake_clock())
        a = tr.table("net", ("round",))
        b = tr.table("net", ("round",))
        c = tr.table("shard", ("round", "shard"))
        assert (a.name, b.name, c.name) == ("net#0", "net#1", "shard#0")
        assert tr.tables_of("net") == [a, b]
        assert tr.tables_of("sync") == []

    def test_maybe_span_disabled_is_noop(self):
        with maybe_span(None, "stage") as sp:
            assert sp is None

    def test_maybe_span_enabled_records(self):
        tr = Tracer(clock=fake_clock())
        with maybe_span(tr, "stage", cat="stage", tier="soa") as sp:
            assert sp is not None
        assert tr.spans[0].attrs == {"tier": "soa"}


class TestResolution:
    def test_off_by_default(self):
        assert active_tracer() is None
        assert resolve_tracer(None) is None

    def test_explicit_kwarg_beats_ambient(self):
        ambient = Tracer(clock=fake_clock())
        explicit = Tracer(clock=fake_clock())
        activate(ambient)
        assert resolve_tracer(explicit) is explicit
        assert resolve_tracer(None) is ambient

    def test_activate_returns_previous(self):
        first = Tracer(clock=fake_clock())
        assert activate(first) is None
        second = Tracer(clock=fake_clock())
        assert activate(second) is first
        assert resolve_tracer(None) is second

    def test_env_singleton(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "env_trace.jsonl"))
        _reset_ambient_for_tests()
        env = resolve_tracer(None)
        assert isinstance(env, Tracer)
        assert env.meta["source"] == "env"
        assert resolve_tracer(None) is env  # cached singleton

    def test_session_tracer_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "env_trace.jsonl"))
        _reset_ambient_for_tests()
        session = Tracer(clock=fake_clock())
        activate(session)
        assert resolve_tracer(None) is session

    def test_capture_scopes_and_writes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with capture(str(path), meta={"k": "v"}) as tr:
            assert resolve_tracer(None) is tr
            with tr.span("x"):
                pass
        assert resolve_tracer(None) is None
        data = read_trace(str(path))
        assert data.meta == {"k": "v"}
        assert len(data.spans) == 1

    def test_capture_writes_partial_trace_on_error(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        with pytest.raises(RuntimeError):
            with capture(str(path)) as tr:
                with tr.span("doomed"):
                    pass
                raise RuntimeError("boom")
        assert resolve_tracer(None) is None
        assert len(read_trace(str(path)).spans) == 1


class TestNetworkWiring:
    """The engine-facing surface: per-round views exist exactly when a
    tracer resolved at network construction."""

    def _run(self, tracer=None):
        from repro.core.soa_rooting import run_soa_rooting
        from repro.runtime import RunContext

        graph = PortGraph.ring_with_chords(64, delta=4, chords=1, seed=0)
        return run_soa_rooting(
            graph, 8, rng=np.random.default_rng(0), ctx=RunContext.resolve(tracer=tracer)
        )

    def test_untraced_run_materialises_nothing(self):
        result = self._run()
        assert result.metrics.per_round is None

    def test_traced_run_exposes_per_round_views(self):
        tr = Tracer()
        result = self._run(tracer=tr)
        view = result.metrics.per_round
        assert view is not None
        assert len(view) == result.rounds
        assert view.rounds().tolist() == list(range(result.rounds))
        assert int(view.messages_sent().sum()) == result.metrics.total_messages
        assert view.seconds().dtype == np.float64
        (net,) = tr.tables_of("net")
        assert net.meta["tier"] == "soa"

    def test_per_round_view_excluded_from_metrics_equality(self):
        base = self._run()
        traced = self._run(tracer=Tracer())
        assert traced.metrics.as_dict() == base.metrics.as_dict()
        assert "per_round" not in base.metrics.as_dict()
        assert traced.metrics == base.metrics
