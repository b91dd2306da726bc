"""S3 — SoA-tier scaling: one Python call per round, at n up to 10⁶.

The rooting phase (§2.1, footnote 8) is the most call-overhead-bound
phase of the Theorem 1.1 pipeline: per-node work is a couple of integer
compares, so at ``n ≥ 10⁵`` one Python call per node per round dominates
everything.  The SoA tier (`repro.core.soa_rooting`) advances *all* nodes
with one call over shared numpy columns, through the vectorized delivery
path.

Measured here, on the ring-plus-chords stand-in for evolution output:

- the SoA tier across sizes, with a ``tree_sha`` fingerprint of each
  built tree in the table and the JSON artifact;
- the **layout-reuse check**: the same run with
  ``REPRO_SOA_LAYOUT_REUSE=0`` (the per-round re-sort) must be ≥ 2×
  slower at ``n = 10⁶`` in full mode — the measured win of the
  persistent receiver-sorted layout; smoke mode records the ratio at its
  top size without asserting (the win needs big rounds to dominate);
- a demonstrated ``n = 10⁶`` rooting run on the SoA tier — a scale the
  object tier does not reach in reasonable time — validated to span with
  a unique root (``run_soa_rooting`` raises otherwise);
- an exact object-vs-SoA equivalence check (identical trees, metrics,
  rounds) before anything is timed.

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_s3_soa_scaling.py``
(``--smoke`` for the ~30 s CI variant, ``--engine soa`` to time only the
SoA tier or ``--engine legacy|vectorized`` to time only the object tier on
that engine, ``--json PATH`` for the machine-readable ``repro-bench/v1``
payload, ``--trace PATH`` for a traced-vs-untraced invariance run whose
``trace/v1`` artifact and overhead percentages land in the JSON
``checks``).
"""

import argparse
import hashlib
import math
import sys
import time

import numpy as np

from repro.core.protocol_tree import run_protocol_rooting
from repro.core.soa_rooting import run_soa_rooting
from repro.experiments.harness import Table, add_engine_argument, tier_filter
from repro.graphs.portgraph import PortGraph
from repro.runtime import TIER_CHOICES, RunContext

FULL_SIZES = (10_000, 100_000)
FULL_SOA_ONLY = (1_000_000,)
SMOKE_SIZES = (2_000, 20_000)
TRACE_N_FULL = 100_000
TRACE_N_SMOKE = 20_000
LAYOUT_REUSE_FACTOR = 2.0
DELTA = 16
NUM_CHORD_SETS = 2


def overlay_like_graph(n: int, seed: int) -> PortGraph:
    """Connected Δ=16 multigraph with ``O(log n)`` diameter (the
    ring-plus-chords family; construction shared in PortGraph)."""
    return PortGraph.ring_with_chords(n, delta=DELTA, chords=NUM_CHORD_SETS, seed=seed)


def _flood_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n)))) + 8


def _time(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _tree_sha(result) -> str:
    """Stable fingerprint of the built tree."""
    return hashlib.sha1(
        result.parent.tobytes() + result.depth.tobytes()
    ).hexdigest()[:16]


def _soa_run_seconds(graph, fr, repeats: int, reuse: bool = True):
    """Best-of-``repeats`` wall clock of one SoA rooting configuration.

    The re-sort control arm is a context with ``layout_reuse=False`` —
    no more mutating ``REPRO_SOA_LAYOUT_REUSE`` around the call.
    """
    ctx = RunContext.resolve(layout_reuse=reuse)
    result = run_soa_rooting(graph, fr, rng=np.random.default_rng(1), ctx=ctx)
    seconds = _time(
        lambda: run_soa_rooting(graph, fr, rng=np.random.default_rng(1), ctx=ctx),
        repeats,
    )
    return seconds, result


def check_equivalence(n: int = 400) -> None:
    """Bit-for-bit object-vs-SoA agreement before timing anything."""
    graph = overlay_like_graph(n, seed=n)
    fr = _flood_rounds(n)
    obj = run_protocol_rooting(
        graph, fr, rng=np.random.default_rng(n), ctx=RunContext.resolve(engine="legacy")
    )
    soa = run_soa_rooting(graph, fr, rng=np.random.default_rng(n))
    assert soa.root == obj.root, "soa disagrees on the root"
    assert np.array_equal(soa.parent, obj.parent), "soa disagrees on parents"
    assert np.array_equal(soa.depth, obj.depth), "soa disagrees on depths"
    assert soa.metrics.as_dict() == obj.metrics.as_dict(), "soa disagrees on metrics"


def run_experiment(smoke: bool, engine_filter: str | None = None):
    check_equivalence()
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    soa_only = () if smoke else FULL_SOA_ONLY

    table = Table(
        "S3: SoA-tier rooting scaling (min-id flooding + BFS)",
        ["n", "flood_rounds", "stack", "seconds", "msgs/sec", "tree_sha"],
    )
    rows = {}
    json_rows = []
    checks = {}

    def record(n, stack, seconds, total_messages, sha):
        rate = total_messages / seconds if seconds > 0 else float("inf")
        table.add(
            n, _flood_rounds(n), stack, round(seconds, 3), int(rate), sha or "-",
        )
        rows[(n, stack)] = seconds
        json_rows.append(
            {
                "n": n,
                "flood_rounds": _flood_rounds(n),
                "stack": stack,
                "seconds": round(seconds, 4),
                "msgs_per_sec": int(rate),
                "tree_sha": sha,
            }
        )

    for n in sizes:
        graph = overlay_like_graph(n, seed=n)
        fr = _flood_rounds(n)
        repeats = 1 if smoke else 2

        if engine_filter in (None, "soa"):
            seconds, result = _soa_run_seconds(graph, fr, repeats)
            record(
                n, "soa", seconds, result.metrics.total_messages, _tree_sha(result)
            )

        if engine_filter in ("legacy", "vectorized"):
            result = run_protocol_rooting(
                graph, fr, rng=np.random.default_rng(1),
                ctx=RunContext.resolve(engine=engine_filter)
            )
            seconds = _time(
                lambda: run_protocol_rooting(
                    graph, fr, rng=np.random.default_rng(1),
                    ctx=RunContext.resolve(engine=engine_filter)
                ),
                repeats=1,
            )
            record(
                n, f"object-nodes/{engine_filter}", seconds,
                result.metrics.total_messages, _tree_sha(result),
            )

    if engine_filter in (None, "soa"):
        # The layout-reuse check: the persistent receiver-sorted layout
        # vs. the per-round re-sort (REPRO_SOA_LAYOUT_REUSE=0)
        # on the identical run.  Full mode measures at n = 10⁶ where the
        # sort dominates and enforces the ISSUE 6 ≥ 2× acceptance bar;
        # smoke records the ratio at its top size without asserting.
        reuse_n = soa_only[0] if soa_only else max(sizes)
        graph = overlay_like_graph(reuse_n, seed=reuse_n)
        fr = _flood_rounds(reuse_n)
        with_reuse, result = _soa_run_seconds(graph, fr, repeats=1)
        record(
            reuse_n, "soa", with_reuse,
            result.metrics.total_messages, _tree_sha(result),
        )
        assert result.metrics.total_drops == 0
        without_reuse, control = _soa_run_seconds(graph, fr, repeats=1, reuse=False)
        record(
            reuse_n, "soa-resort-every-round", without_reuse,
            control.metrics.total_messages, _tree_sha(control),
        )
        assert _tree_sha(control) == _tree_sha(result), (
            "layout reuse changed the tree — the toggle must be timing-only"
        )
        ratio = without_reuse / with_reuse
        checks["layout_reuse_speedup"] = {
            "n": reuse_n,
            "seconds_with_reuse": round(with_reuse, 4),
            "seconds_without_reuse": round(without_reuse, 4),
            "speedup": round(ratio, 2),
            "threshold": None if smoke else LAYOUT_REUSE_FACTOR,
        }
        print(
            f"n={reuse_n}: persistent layout vs per-round re-sort "
            f"speedup {ratio:.2f}x"
        )
        if not smoke:
            assert ratio >= LAYOUT_REUSE_FACTOR, (
                f"layout reuse only {ratio:.2f}x over per-round re-sort at "
                f"n={reuse_n} (need >= {LAYOUT_REUSE_FACTOR}x)"
            )

    table.show()
    return rows, json_rows, checks


def run_trace_check(smoke: bool, trace_path: str) -> dict:
    """Trace invariance: the traced run must build the identical
    tree as the untraced baseline, the enabled overhead is recorded, and
    the *disabled* path — a run after the ``capture()`` session exits —
    must stay within the regression bar (zero-overhead-when-off)."""
    from _common import (
        DISABLED_OVERHEAD_LIMIT,
        DISABLED_OVERHEAD_SLACK_S,
        overhead_pct,
    )
    from repro.obs import capture

    n = TRACE_N_SMOKE if smoke else TRACE_N_FULL
    graph = overlay_like_graph(n, seed=n)
    fr = _flood_rounds(n)

    base_seconds, base = _soa_run_seconds(graph, fr, repeats=2)
    base_sha = _tree_sha(base)

    with capture(trace_path, meta={"bench": "s3_soa_scaling", "n": n}):
        start = time.perf_counter()
        result = run_soa_rooting(
            graph, fr, rng=np.random.default_rng(1), ctx=RunContext.resolve()
        )
        traced_seconds = time.perf_counter() - start
    assert _tree_sha(result) == base_sha, (
        "traced run diverged from the untraced tree"
    )
    disabled_seconds, again = _soa_run_seconds(graph, fr, repeats=2)
    assert _tree_sha(again) == base_sha

    traced_pct = overhead_pct(base_seconds, traced_seconds)
    disabled_pct = overhead_pct(base_seconds, disabled_seconds)
    limit = base_seconds * (1.0 + DISABLED_OVERHEAD_LIMIT) + DISABLED_OVERHEAD_SLACK_S
    print(
        f"trace: n={n} traced overhead {traced_pct:+.1f}%, disabled overhead "
        f"{disabled_pct:+.1f}% (bar {DISABLED_OVERHEAD_LIMIT:.0%}) -> {trace_path}"
    )
    assert disabled_seconds <= limit, (
        f"disabled-tracer run regressed: {disabled_seconds:.3f}s vs untraced "
        f"{base_seconds:.3f}s (bar {DISABLED_OVERHEAD_LIMIT:.0%} + "
        f"{DISABLED_OVERHEAD_SLACK_S}s slack)"
    )
    return {
        "trace_path": trace_path,
        "n": n,
        "tree_sha": base_sha,
        "untraced_seconds": round(base_seconds, 4),
        "traced_seconds": round(traced_seconds, 4),
        "trace_overhead_pct": round(traced_pct, 1),
        "disabled_overhead_pct": round(disabled_pct, 1),
        "disabled_limit_pct": DISABLED_OVERHEAD_LIMIT * 100,
    }


def bench_s3_soa_scaling(benchmark):
    from _common import run_once

    run_once(benchmark, lambda: run_experiment(smoke=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="~30s CI variant: small sizes"
    )
    add_engine_argument(parser, choices=TIER_CHOICES)
    from _common import add_trace_argument

    add_trace_argument(parser)
    parser.add_argument(
        "--json",
        default=None,
        help="write the machine-readable repro-bench/v1 payload here",
    )
    args = parser.parse_args(argv)
    engine_filter = tier_filter("engine", args.engine)
    rows, json_rows, checks = run_experiment(
        smoke=args.smoke, engine_filter=engine_filter
    )
    if args.trace:
        checks["trace"] = run_trace_check(args.smoke, args.trace)
    if args.json:
        from _common import bench_payload, write_bench_json

        payload = bench_payload(
            "s3_soa_scaling",
            config={
                "smoke": args.smoke,
                "engine_filter": engine_filter,
                "delta": DELTA,
                "chords": NUM_CHORD_SETS,
            },
            rows=json_rows,
            checks=checks,
            ctx=RunContext.resolve(),
        )
        write_bench_json(args.json, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
