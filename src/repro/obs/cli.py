"""``python -m repro.obs`` — inspect trace/v1 artifacts.

Three subcommands, all read-only over the JSON-lines artifact:

- ``summary <trace>`` — per-(cat, name) span aggregates, per-tier
  round tables with the top-k slowest rounds and synchroniser queue
  depths; tables of any other kind (e.g. the ``shard`` tables of older
  artifacts) are listed under "other tables";
- ``diff <a> <b>`` — regression deltas: span totals and table column
  sums side by side with absolute and percentage change;
- ``timeline <trace>`` — per-round ASCII timeline (messages + a time
  bar, fault rounds flagged) or ``--csv`` for machine consumption.

Formatting is plain fixed-width text built here (no external table
dependency) so golden-output tests can pin it exactly.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.obs.trace_io import TableData, TraceData, read_trace

__all__ = ["main"]


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------
def _render(headers, rows) -> str:
    """Fixed-width table: headers + stringified rows, right-aligned
    numerics are the caller's job (everything arrives as str)."""
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        line = "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        lines.append(line)
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt_seconds(value: float) -> str:
    return f"{value:.6f}"


def _span_aggregates(trace: TraceData) -> dict:
    """(cat, name) -> dict(count, total, max) over span durations."""
    agg: dict = {}
    for sp in trace.spans:
        key = (sp["cat"], sp["name"])
        seconds = sp["end"] - sp["start"]
        entry = agg.setdefault(key, {"count": 0, "total": 0.0, "max": 0.0})
        entry["count"] += 1
        entry["total"] += seconds
        entry["max"] = max(entry["max"], seconds)
    return agg


def _table_totals(table: TableData) -> dict:
    """Column sums (per-round counters are deltas, so sums are run
    totals); ``layout_hit`` and ``round`` are reported specially."""
    totals = {}
    for name in table.columns:
        col = table.column(name)
        if len(col) == 0:
            totals[name] = 0
        elif name in table.float_columns:
            totals[name] = float(col.sum())
        else:
            totals[name] = int(col.sum())
    return totals


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
def _summarize_net_table(table: TableData, top: int, out, unit: str = "rounds") -> None:
    """Print a table's totals; ``unit`` names its rows (rounds in net/sync)."""
    meta = table.meta
    label = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    print(f"[{table.name}] {label}".rstrip(), file=out)
    n = len(table)
    if n == 0:
        print(f"  (no {unit} recorded)", file=out)
        return
    totals = _table_totals(table)
    hits = totals.get("layout_hit", 0)
    parts = [f"{unit}={n}"]
    for name in ("sent", "delivered", "fault_drops", "send_drops", "receive_drops"):
        if name in table.columns:
            parts.append(f"{name}={totals[name]}")
    if "layout_hit" in table.columns:
        parts.append(f"layout_hits={hits}/{n}")
    if "seconds" in table.columns:
        parts.append(f"seconds={_fmt_seconds(totals['seconds'])}")
    print("  " + " ".join(parts), file=out)
    if "seconds" not in table.columns:
        return
    seconds = table.column("seconds")
    k = min(top, n)
    slowest = np.argsort(seconds, kind="stable")[::-1][:k]
    headers = list(table.columns)
    rows = []
    for i in slowest:
        row = []
        for name in headers:
            value = table.column(name)[i]
            row.append(
                _fmt_seconds(float(value))
                if name in table.float_columns
                else str(int(value))
            )
        rows.append(row)
    print(f"  top {k} slowest {unit}:", file=out)
    body = _render(headers, rows)
    print("    " + body.replace("\n", "\n    "), file=out)


def cmd_summary(args) -> int:
    trace = read_trace(args.trace)
    out = sys.stdout
    print(f"trace/v1 · {args.trace}", file=out)
    if trace.meta:
        meta = " ".join(f"{k}={trace.meta[k]}" for k in sorted(trace.meta))
        print(f"meta: {meta}", file=out)

    agg = _span_aggregates(trace)
    if agg:
        print(f"\nspans ({len(trace.spans)} total):", file=out)
        rows = []
        order = sorted(
            agg.items(), key=lambda item: item[1]["total"], reverse=True
        )
        for (cat, name), entry in order:
            rows.append(
                [
                    cat,
                    name,
                    str(entry["count"]),
                    _fmt_seconds(entry["total"]),
                    _fmt_seconds(entry["total"] / entry["count"]),
                    _fmt_seconds(entry["max"]),
                ]
            )
        print(
            _render(
                ["cat", "name", "count", "total_s", "mean_s", "max_s"], rows
            ),
            file=out,
        )

    if trace.counters:
        print(f"\ncounters: {len(trace.counters)} events", file=out)

    for kind in ("net", "sync"):
        tables = trace.tables_of(kind)
        if not tables:
            continue
        print(f"\n{kind} tables ({len(tables)}):", file=out)
        for table in tables:
            _summarize_net_table(table, args.top, out)
    other = [t for t in trace.tables if t.kind not in ("net", "sync")]
    if other:
        print(f"\nother tables ({len(other)}):", file=out)
        for table in other:
            _summarize_net_table(table, args.top, out, unit="rows")
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _delta_row(label, a, b, fmt):
    delta = b - a
    pct = (100.0 * delta / a) if a else (0.0 if delta == 0 else float("inf"))
    return [label, fmt(a), fmt(b), fmt(delta), f"{pct:+.1f}%"]


def cmd_diff(args) -> int:
    trace_a = read_trace(args.a)
    trace_b = read_trace(args.b)
    out = sys.stdout
    print(f"diff: a={args.a} b={args.b}", file=out)

    agg_a = _span_aggregates(trace_a)
    agg_b = _span_aggregates(trace_b)
    keys = sorted(set(agg_a) | set(agg_b))
    if keys:
        rows = []
        for key in keys:
            total_a = agg_a.get(key, {}).get("total", 0.0)
            total_b = agg_b.get(key, {}).get("total", 0.0)
            rows.append(
                _delta_row(f"{key[0]}/{key[1]}", total_a, total_b, _fmt_seconds)
            )
        print("\nspan totals (seconds):", file=out)
        print(_render(["span", "a", "b", "delta", "pct"], rows), file=out)

    kinds = sorted(
        {t.kind for t in trace_a.tables} | {t.kind for t in trace_b.tables}
    )
    for kind in kinds:
        sums_a: dict = {}
        sums_b: dict = {}
        for sums, trace in ((sums_a, trace_a), (sums_b, trace_b)):
            for table in trace.tables_of(kind):
                for name, value in _table_totals(table).items():
                    if name == "round":
                        continue
                    sums[name] = sums.get(name, 0) + value
        rows = []
        for name in sorted(set(sums_a) | set(sums_b)):
            a = sums_a.get(name, 0)
            b = sums_b.get(name, 0)
            fmt = (
                _fmt_seconds
                if isinstance(a, float) or isinstance(b, float)
                else str
            )
            rows.append(_delta_row(name, a, b, fmt))
        if rows:
            print(f"\n{kind} table totals:", file=out)
            print(_render(["column", "a", "b", "delta", "pct"], rows), file=out)
    return 0


# ----------------------------------------------------------------------
# timeline
# ----------------------------------------------------------------------
def cmd_timeline(args) -> int:
    trace = read_trace(args.trace)
    out = sys.stdout
    tables = trace.tables_of("net")
    if args.table is not None:
        tables = [t for t in trace.tables if t.name == args.table]
        if not tables:
            print(f"no table named {args.table!r}", file=sys.stderr)
            return 1
    if not tables:
        print("no net tables in trace", file=sys.stderr)
        return 1

    if args.csv:
        for table in tables:
            print("table," + ",".join(table.columns), file=out)
            for i in range(len(table)):
                cells = [table.name]
                for name in table.columns:
                    value = table.column(name)[i]
                    cells.append(
                        _fmt_seconds(float(value))
                        if name in table.float_columns
                        else str(int(value))
                    )
                print(",".join(cells), file=out)
        return 0

    for table in tables:
        meta = table.meta
        label = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
        print(f"[{table.name}] {label}".rstrip(), file=out)
        n = len(table)
        if n == 0:
            print("  (no rounds recorded)", file=out)
            continue
        seconds = (
            table.column("seconds")
            if "seconds" in table.columns
            else np.zeros(n)
        )
        sent = (
            table.column("sent")
            if "sent" in table.columns
            else np.zeros(n, dtype=np.int64)
        )
        faults = (
            table.column("fault_drops")
            if "fault_drops" in table.columns
            else np.zeros(n, dtype=np.int64)
        )
        rounds = (
            table.column("round")
            if "round" in table.columns
            else np.arange(n)
        )
        peak = float(seconds.max()) if n else 0.0
        for i in range(n):
            width = (
                int(round(args.width * float(seconds[i]) / peak))
                if peak > 0
                else 0
            )
            bar = "#" * width
            flag = " !faults" if faults[i] > 0 else ""
            print(
                f"  r{int(rounds[i]):>4} sent={int(sent[i]):>8} "
                f"{_fmt_seconds(float(seconds[i]))} {bar}{flag}",
                file=out,
            )
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect trace/v1 artifacts written by repro.obs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="span aggregates + per-tier round/stage tables"
    )
    p_summary.add_argument("trace")
    p_summary.add_argument(
        "--top", type=int, default=3, help="slowest rounds to list per table"
    )
    p_summary.set_defaults(func=cmd_summary)

    p_diff = sub.add_parser("diff", help="regression deltas between two traces")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(func=cmd_diff)

    p_timeline = sub.add_parser(
        "timeline", help="per-round ASCII/CSV timeline of a trace"
    )
    p_timeline.add_argument("trace")
    p_timeline.add_argument(
        "--table", default=None, help="restrict to one table by name"
    )
    p_timeline.add_argument(
        "--csv", action="store_true", help="emit CSV instead of ASCII bars"
    )
    p_timeline.add_argument(
        "--width", type=int, default=40, help="ASCII bar width for the peak"
    )
    p_timeline.set_defaults(func=cmd_timeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream ``head``/pager closed the pipe — a clean exit, but
        # the interpreter would noisily re-raise on the final stdout
        # flush; point stdout at devnull first.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        # A missing or malformed artifact is a user-input error, not a
        # bug — report it cleanly instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
