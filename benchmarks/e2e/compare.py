"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a result file written by
``run.py --out`` or a directory of them (one file per run, e.g. one per
seed).  For every workload and end-to-end metric it prints the median and
quartiles of each side's runs and a verdict under that metric's bound in
BENCHMARK.json:

- ``worse`` / ``better`` — the median moved past the bound;
- ``unchanged`` — it moved less than the bound;
- ``unresolved`` — a side's run-to-run quartile spread is wider than the
  bound, unless every run of B beats every run of A (then ``better``).

It then checks that fingerprints agree wherever both sides ran a seed, and
that no workload's failed/attempted ratio grew.  If both sides hold traced
runs, it lists the per-layer self-time deltas, largest first, and names
the layer that moved most.  Exit status 1 on any ``worse`` verdict,
fingerprint change or error-rate increase.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise SystemExit(f"no result files in {path}")
    payloads = []
    for f in files:
        with open(f) as fh:
            payloads.append(json.load(fh))
    return payloads


def gather(payloads: list[dict]) -> dict:
    """Pool one side's reports by workload."""
    side: dict[str, dict] = {}
    for payload in payloads:
        for name, report in payload["workloads"].items():
            w = side.setdefault(
                name,
                {"values": {}, "attempted": 0, "failed": 0, "fingerprints": {}, "self_s": {}},
            )
            w["attempted"] += report["attempted"]
            w["failed"] += report["failed"]
            w["fingerprints"][report["seed"]] = report["fingerprint"]
            if report["arm"] == "traced":
                for layer, secs in report["layers"].items():
                    w["self_s"].setdefault(layer, []).append(secs["self_s"])
            else:
                for metric, m in report["metrics"].items():
                    w["values"].setdefault(metric, []).append(m["value"])
    return side


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, change)``; ``change`` > 0 means B is worse."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if qa[1] == 0:
        change = 0.0 if qb[1] == 0 else float("inf")
    else:
        change = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    if spread > bound:
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if b_wins else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def compare(a_payloads: list[dict], b_payloads: list[dict], spec: dict, out=sys.stdout) -> dict:
    """Print the comparison; returns ``{"exit": code, "moved_most": ...}``."""
    a, b = gather(a_payloads), gather(b_payloads)
    names = [w["name"] for w in spec["workloads"] if w["name"] in a and w["name"] in b]
    bad = False

    print(f"{'workload':18s} {'metric':18s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict", file=out)
    for name in names:
        for m in spec["end_to_end"]:
            va = a[name]["values"].get(m["name"])
            vb = b[name]["values"].get(m["name"])
            if not va or not vb:
                continue
            word, change = verdict(va, vb, m["better"], m["bound"])
            bad |= word == "worse"
            fa = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(va))
            fb = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(vb))
            print(f"{name:18s} {m['name']:18s} {fa:>34s} {fb:>34s} "
                  f"{100 * change:>+7.1f}%  {word}", file=out)

    for name in names:
        ea = a[name]["failed"] / a[name]["attempted"]
        eb = b[name]["failed"] / b[name]["attempted"]
        if eb > ea:
            bad = True
            print(f"{name}: error_rate increased {ea:.4f} -> {eb:.4f}", file=out)
        fa, fb = a[name]["fingerprints"], b[name]["fingerprints"]
        shared = sorted(set(fa) & set(fb))
        changed = [seed for seed in shared if fa[seed] != fb[seed]]
        if changed:
            bad = True
            print(f"{name}: fingerprint CHANGED for seed(s) {changed}", file=out)
        elif shared:
            print(f"{name}: fingerprints identical for seed(s) {shared}, "
                  f"error_rate {ea:.4f} -> {eb:.4f}", file=out)

    deltas = []
    for name in names:
        for layer, sa in a[name]["self_s"].items():
            sb = b[name]["self_s"].get(layer)
            if sb:
                ma, mb = statistics.median(sa), statistics.median(sb)
                deltas.append((mb - ma, name, layer, ma, mb))
    moved_most = None
    if deltas:
        deltas.sort(key=lambda d: -abs(d[0]))
        print(f"\n{'workload':18s} {'layer':18s} {'A self_s':>10s} {'B self_s':>10s} "
              f"{'delta_s':>10s}", file=out)
        for delta, name, layer, ma, mb in deltas:
            if ma or mb:
                print(f"{name:18s} {layer:18s} {ma:>10.4f} {mb:>10.4f} {delta:>+10.4f}", file=out)
        delta, name, layer, _ma, _mb = deltas[0]
        moved_most = {"workload": name, "layer": layer, "delta_s": delta}
        print(f"layer that moved most: {layer} on {name} ({delta:+.4f} s)", file=out)
    return {"exit": 1 if bad else 0, "moved_most": moved_most}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent results: a run.py --out file or a directory")
    parser.add_argument("b", help="changed results: a run.py --out file or a directory")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(load_set(args.a), load_set(args.b), spec)["exit"]


if __name__ == "__main__":
    sys.exit(main())
