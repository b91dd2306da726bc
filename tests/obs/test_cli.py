"""trace/v1 round-trip and ``python -m repro.obs`` golden outputs.

A fake stepping clock makes every timestamp deterministic, so the CLI's
fixed-width output can be pinned exactly (the formatting is built in
:mod:`repro.obs.cli` with no external table dependency for precisely
this reason).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.obs import Tracer, read_trace, write_trace
from repro.obs.cli import main


def stepping_clock():
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


def make_trace(path: str) -> Tracer:
    """One of everything: nested spans, a counter, net + sync tables."""
    tr = Tracer(clock=stepping_clock(), meta={"n": 8, "tier": "soa"})
    with tr.span("trace/crash", cat="scenario", n=8):
        with tr.span("spanner", cat="stage"):
            pass
    tr.counter("queue_depth", 3, {"round": 1})
    net = tr.table(
        "net",
        (
            "round",
            "inbox",
            "sent",
            "delivered",
            "fault_drops",
            "send_drops",
            "receive_drops",
            "layout_hit",
        ),
    )
    net.append(0, 0, 10, 10, 0, 0, 0, 0, 0.25)
    net.append(1, 10, 6, 6, 2, 0, 0, 1, 0.5)
    sync = tr.table(
        "sync", ("round", "staged", "released", "held"), meta={"max_delay": 2}
    )
    sync.append(0, 10, 4, 6, 0.25)
    sync.append(1, 6, 6, 0, 0.125)
    write_trace(path, tr)
    return tr


class TestRoundTrip:
    def test_everything_survives_serialisation(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tr = make_trace(path)
        data = read_trace(path)

        assert data.meta == {"n": 8, "tier": "soa"}
        assert [sp["name"] for sp in data.spans] == ["trace/crash", "spanner"]
        assert data.spans[0]["parent"] == -1
        assert data.spans[1]["parent"] == data.spans[0]["id"]
        assert data.spans[0]["attrs"] == {"n": 8}

        (counter,) = data.counters
        assert counter["name"] == "queue_depth"
        assert counter["value"] == 3

        assert [t.name for t in data.tables] == ["net#0", "sync#0"]
        net = data.tables_of("net")[0]
        assert net.columns == tr.tables_of("net")[0].columns
        for col in net.columns:
            assert np.array_equal(
                net.column(col), tr.tables_of("net")[0].column(col)
            ), col
        assert net.column("seconds").dtype == np.float64
        assert data.tables_of("sync")[0].meta == {"max_delay": 2}

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "trace/v99", "meta": {}}\n')
        with pytest.raises(ValueError, match="schema"):
            read_trace(str(path))


class TestSummary:
    def test_golden_lines(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        make_trace(path)
        assert main(["summary", path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()

        assert lines[0] == f"trace/v1 · {path}"
        assert lines[1] == "meta: n=8 tier=soa"
        assert "spans (2 total):" in lines
        # Sorted by total descending: the scenario span encloses the stage.
        cat_col = [ln.split()[0] for ln in lines if ln and ln[0].isalpha()]
        assert cat_col.index("scenario") < cat_col.index("stage")
        assert "counters: 1 events" in out
        assert "net tables (1):" in lines
        assert "[net#0]" in lines
        assert (
            "  rounds=2 sent=16 delivered=16 fault_drops=2 send_drops=0 "
            "receive_drops=0 layout_hits=1/2 seconds=0.750000" in lines
        )
        assert "  top 2 slowest rounds:" in lines
        assert "sync tables (1):" in lines
        assert "[sync#0] max_delay=2" in lines
        assert "  rounds=2 seconds=0.375000" in lines
        assert not any(ln.startswith("other tables") for ln in lines)

    def test_top_limits_rows(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        make_trace(path)
        main(["summary", path, "--top", "1"])
        out = capsys.readouterr().out
        assert "  top 1 slowest rounds:" in out.splitlines()
        # Only the slowest net round (round 1, 0.5s) is listed; the
        # sync table's slowest is round 0.
        data_rows = [ln for ln in out.splitlines() if ln.startswith("    1 ")]
        assert len(data_rows) == 1


class TestDiff:
    def test_self_diff_is_all_zero(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        make_trace(path)
        assert main(["diff", path, path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == f"diff: a={path} b={path}"
        assert "span totals (seconds):" in lines
        assert "net table totals:" in lines
        assert "sync table totals:" in lines
        data = [
            ln
            for ln in lines
            if ln.endswith("%") and not ln.startswith(("span", "column"))
        ]
        assert data, "expected delta rows"
        assert all(ln.endswith("+0.0%") for ln in data), data


class TestTimeline:
    def test_ascii_golden(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        make_trace(path)
        assert main(["timeline", path, "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "[net#0]",
            "  r   0 sent=      10 0.250000 " + "#" * 20,
            "  r   1 sent=       6 0.500000 " + "#" * 40 + " !faults",
        ]

    def test_csv_golden(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        make_trace(path)
        assert main(["timeline", path, "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "table,round,inbox,sent,delivered,fault_drops,send_drops,"
            "receive_drops,layout_hit,seconds",
            "net#0,0,0,10,10,0,0,0,0,0.250000",
            "net#0,1,10,6,6,2,0,0,1,0.500000",
        ]

    def test_table_filter_selects_non_net_tables(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        make_trace(path)
        assert main(["timeline", path, "--table", "sync#0", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "table,round,staged,released,held,seconds",
            "sync#0,0,10,4,6,0.250000",
            "sync#0,1,6,6,0,0.125000",
        ]

    def test_unknown_table_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        make_trace(path)
        assert main(["timeline", path, "--table", "nope#9"]) == 1
        assert "no table named" in capsys.readouterr().err

    def test_bad_artifact_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "trace/v99", "meta": {}}\n')
        assert main(["timeline", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "schema" in err

    def test_missing_artifact_is_a_clean_error(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


#: A committed artifact of the multiprocess delivery pool that no longer
#: exists: its ``shard`` table is a kind this CLI has no renderer for.
OLD_SHARD_TRACE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks/e2e/results/set-a/traced.rooting-250k-w2.trace.jsonl"
)


class TestOlderArtifacts:
    def test_shard_table_listed_under_other_tables(self, capsys):
        path = str(OLD_SHARD_TRACE)
        assert main(["summary", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "net tables (1):" in lines
        other = lines.index("other tables (1):")
        assert lines[other + 1] == "[shard#0] n=250000 workers=2"
        # Two worker rows per op of a 38-round run: rows, not rounds.
        assert lines[other + 2] == "  rows=74 seconds=0.668917"
        assert lines[other + 3] == "  top 3 slowest rows:"
        net = lines.index("net tables (1):")
        assert lines[net + 2].startswith("  rounds=38 ")

    def test_diff_reads_shard_table(self, capsys):
        path = str(OLD_SHARD_TRACE)
        assert main(["diff", path, path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "net table totals:" in lines
        assert "shard table totals:" in lines
