"""S5 — columnar hybrid §4 pipeline scaling: the SoA spanner story.

ISSUE 5's acceptance bar.  The §4 pipeline (Elkin–Neiman spanner → edge
delegation → hybrid ``CreateExpander`` → flood/BFS/well-forming) used to
run on per-node ``list[set]``/``dict`` structures, capping churn-rebuild
loops at small ``n``.  The columnar port (`repro.hybrid.soa_pipeline`)
runs the spanner broadcast as a real :class:`SoAProtocolClass` population
through the shared ``_deliver_flat`` delivery tail and everything else as
flat column transforms — bit-for-bit equal to the per-node path.

Measured here, on a ring-plus-chords family dense enough that the
broadcast dominates:

- an exact **≥ 12-seed equivalence matrix** before anything is timed:
  labels, forests, overlay port arrays, and token-congestion ledger
  phases identical across tiers;
- wall-clock of the **ported stages** (spanner, degree reduction,
  flood + BFS tail) per tier — the hybrid evolutions in between run the
  identical array builder on both tiers, so the ported stages are the
  engine-controlled comparison — with a **hard assert**: SoA ≥ 10× at
  ``n = 10⁴`` (≥ 5× in ``--smoke``, same shape as S3's smoke relief);
  both tiers end in the same columnar well-forming
  (:func:`~repro.core.euler.well_formed_forest_columns`), which is not
  timed here;
- a scenario-driven churn-rebuild sweep through
  :class:`~repro.scenarios.runner.ScenarioRunner`'s ``churn-rebuild``
  workload, completing at ``n = 10⁶`` on the SoA tier (``n = 2·10⁴`` in
  smoke) with ground-truth label verification per cell.

Run standalone:
``PYTHONPATH=src python benchmarks/bench_s5_hybrid_scaling.py``
(``--smoke`` for the ~60 s CI variant; ``--hybrid`` restricts the timed
tiers, also via ``REPRO_HYBRID``; ``--json PATH`` sets the result file;
``--trace PATH`` runs the ISSUE 9 satellite: a traced/untraced pipeline
pair plus a traced churn-rebuild cell, invariance-checked, with the
``trace/v1`` artifact path and overhead recorded in the JSON checks).
"""

import argparse
import sys
import time

import numpy as np

from repro.core.bfs import build_bfs_forest
from repro.experiments.harness import Table, tier_filter
from repro.runtime import HYBRID_TIERS, RunContext
from repro.graphs import generators as G
from repro.graphs.portgraph import PortGraph
from repro.core.euler import well_formed_forest_columns
from repro.hybrid.components import connected_components_hybrid
from repro.hybrid.degree_reduction import reduce_degree
from repro.hybrid.overlay import HybridOverlayParams, build_hybrid_overlay
from repro.hybrid.soa_pipeline import (
    build_bfs_forest_soa,
    build_hybrid_overlay_soa,
    build_spanner_soa,
    reduce_degree_soa,
)
from repro.hybrid.spanner import build_spanner
from repro.scenarios import CrashWave, ScenarioSpec
from repro.scenarios.runner import ScenarioRunner

FULL_SIZES = (2_000, 10_000, 30_000)
SMOKE_SIZES = (2_000, 10_000)
ASSERT_N = 10_000
ASSERT_FACTOR = 10.0
SMOKE_ASSERT_FACTOR = 5.0
REBUILD_N_FULL = 1_000_000
REBUILD_N_SMOKE = 20_000
EQUIVALENCE_SEEDS = 12
DELTA = 16
NUM_CHORD_SETS = 4
#: Calibrated light overlay (bit-for-bit identical across tiers like any
#: other params): enough evolutions to keep ring-with-chords survivor
#: components connected at n = 10⁵, cheap enough for a sweep.
OVERLAY_PARAMS = HybridOverlayParams(delta=64, ell=16, num_evolutions=3)


def hybrid_input_graph(n: int, seed: int) -> PortGraph:
    """Ring plus four chord sets (degree ≈ 10): dense enough that the
    spanner broadcast — the per-node hot spot — dominates the stages."""
    return PortGraph.ring_with_chords(
        n, delta=DELTA, chords=NUM_CHORD_SETS, seed=seed
    )


def check_equivalence(seeds: int = EQUIVALENCE_SEEDS) -> None:
    """Columnar ≡ per-node over component mixtures (the ISSUE 5
    acceptance equality: edge sets, degrees, ledger totals)."""
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        mix, _ = G.component_mixture(
            [
                G.line_graph(20 + seed),
                G.cycle_graph(17),
                G.star_graph(24),
                G.erdos_renyi_connected(30, 5.0, rng),
            ]
        )
        per_node = connected_components_hybrid(
            mix, rng=np.random.default_rng(seed), m_bound=64
        )
        columnar = connected_components_hybrid(
            mix, rng=np.random.default_rng(seed), m_bound=64, tier="soa"
        )
        assert np.array_equal(per_node.labels, columnar.labels), f"labels (seed {seed})"
        assert np.array_equal(
            per_node.forest.parent, columnar.forest.parent
        ), f"forest (seed {seed})"
        assert np.array_equal(
            per_node.overlay.final_graph.ports, columnar.overlay.final_graph.ports
        ), f"overlay ports (seed {seed})"
        assert np.array_equal(
            per_node.overlay.final_graph.real_degree(),
            columnar.overlay.final_graph.real_degree(),
        ), f"overlay degrees (seed {seed})"
        assert per_node.ledger.phases == columnar.ledger.phases, f"ledger (seed {seed})"
    print(f"equivalence matrix: {seeds} seeds bit-for-bit across hybrid tiers")


def run_stages(tier: str, graph: PortGraph, seed: int, ctx: RunContext | None = None):
    """One pipeline run with per-stage wall clock.

    Returns ``(stage_seconds, shared_seconds, fingerprint)`` where
    ``stage_seconds`` covers the *ported* stages (spanner, reduction,
    flood + BFS) and ``shared_seconds`` the hybrid evolutions (the
    identical array builder on both tiers).  The well-forming tail runs
    the one columnar engine on both tiers; it feeds the fingerprint but
    is not timed.
    """
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    if tier == "object":
        spanner = build_spanner(graph, rng)
        t1 = time.perf_counter()
        reduced = reduce_degree(spanner)
        t2 = time.perf_counter()
        overlay = build_hybrid_overlay(reduced.adj, rng=rng, params=OVERLAY_PARAMS)
        t3 = time.perf_counter()
        bfs = build_bfs_forest(overlay.final_graph)
        t4 = time.perf_counter()
    else:
        spanner = build_spanner_soa(graph, rng, ctx=ctx)
        t1 = time.perf_counter()
        reduced = reduce_degree_soa(spanner)
        t2 = time.perf_counter()
        overlay = build_hybrid_overlay_soa(reduced, rng=rng, params=OVERLAY_PARAMS)
        t3 = time.perf_counter()
        bfs = build_bfs_forest_soa(overlay.final_graph)
        t4 = time.perf_counter()
    forest = well_formed_forest_columns(bfs)
    stage_seconds = (t1 - t0) + (t2 - t1) + (t4 - t3)
    fingerprint = (
        overlay.final_graph.ports.tobytes(),
        bfs.parent.tobytes(),
        forest.parent.tobytes(),
        forest.rounds,
        tuple(overlay.ledger.phases),
    )
    return stage_seconds, t3 - t2, fingerprint


def run_experiment(
    smoke: bool,
    hybrid_filter: str | None = None,
    ctx: RunContext | None = None,
):
    check_equivalence()
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    repeats = 1 if smoke else 2

    table = Table(
        "S5: hybrid §4 pipeline — ported stages (spanner + reduction + BFS tail)",
        ["n", "tier", "stage_seconds", "shared_evolutions"],
    )
    rows = {}
    for n in sizes:
        graph = hybrid_input_graph(n, seed=n)
        fingerprints = {}
        for tier in HYBRID_TIERS:
            if hybrid_filter is not None and tier != hybrid_filter:
                continue
            best = None
            for _ in range(repeats):
                stage_s, shared_s, fp = run_stages(tier, graph, seed=1, ctx=ctx)
                if best is None or stage_s < best[0]:
                    best = (stage_s, shared_s, fp)
            stage_s, shared_s, fp = best
            rows[(n, tier)] = stage_s
            fingerprints[tier] = fp
            table.add(n, tier, round(stage_s, 3), round(shared_s, 3))
        if len(fingerprints) == 2:
            assert fingerprints["object"] == fingerprints["soa"], (
                f"tiers diverged at n={n} — the timing is not engine-controlled"
            )
    table.show()

    speedup = None
    if hybrid_filter is None:
        t_object = rows[(ASSERT_N, "object")]
        t_soa = rows[(ASSERT_N, "soa")]
        speedup = t_object / t_soa
        factor = SMOKE_ASSERT_FACTOR if smoke else ASSERT_FACTOR
        print(
            f"n={ASSERT_N}: columnar hybrid stages (engine-controlled) "
            f"speedup {speedup:.1f}x"
        )
        assert speedup >= factor, (
            f"columnar hybrid stages only {speedup:.1f}x faster than per-node "
            f"at n={ASSERT_N} (need >= {factor}x)"
        )
    return rows, speedup


def run_churn_rebuild_sweep(smoke: bool, ctx: RunContext | None = None) -> list[dict]:
    """Scenario-driven churn-rebuild at scale on the SoA tier — the
    regime the port exists for.  Completing with ground-truth-correct
    labels IS the check."""
    n = REBUILD_N_SMOKE if smoke else REBUILD_N_FULL
    runner = ScenarioRunner(
        sizes=(n,),
        seeds=(0,),
        tiers=("soa",),
        workload="churn-rebuild",
        overlay_params=OVERLAY_PARAMS,
        chords=NUM_CHORD_SETS,
        ctx=ctx,
    )
    grid = (
        ScenarioSpec(name="rebuild/baseline"),
        ScenarioSpec(
            name="rebuild/churn10",
            crashes=(CrashWave(round_no=2, fraction=0.1),),
            fault_seed=1,
        ),
    )
    payload = runner.run_grid(grid)
    for row in payload["rows"]:
        assert row["labels_match_ground_truth"], (
            f"rebuild labels diverge from ground truth: {row['scenario']['name']}"
        )
        print(
            f"churn-rebuild n={row['n']}: {row['scenario']['name']} -> "
            f"{row['survivors']} survivors, {row['components']} component(s), "
            f"{row['wall_seconds']:.1f}s on tier {row['tier']}"
        )
    return payload["rows"]


def run_trace_check(trace_path: str, ctx: RunContext | None = None) -> dict:
    """ISSUE 9 trace satellite: one traced/untraced hybrid pipeline pair
    at the assert size (fingerprint equality + overhead) plus a traced
    churn-rebuild scenario cell whose rows must match the untraced cell
    under :func:`tier_invariant_view` — all captured as one ``trace/v1``
    artifact with per-stage spans and per-round tables."""
    from _common import overhead_pct
    from repro.obs import capture
    from repro.scenarios.runner import tier_invariant_view

    n = ASSERT_N
    graph = hybrid_input_graph(n, seed=n)

    def rebuild_cell():
        runner = ScenarioRunner(
            sizes=(REBUILD_N_SMOKE,),
            seeds=(0,),
            tiers=("soa",),
            workload="churn-rebuild",
            overlay_params=OVERLAY_PARAMS,
            chords=NUM_CHORD_SETS,
            ctx=ctx,
        )
        spec = ScenarioSpec(
            name="rebuild/churn10",
            crashes=(CrashWave(round_no=2, fraction=0.1),),
            fault_seed=1,
        )
        return runner.run_grid((spec,))["rows"]

    t0 = time.perf_counter()
    base = run_stages("soa", graph, seed=1, ctx=ctx)
    base_seconds = time.perf_counter() - t0
    untraced_rows = rebuild_cell()

    with capture(trace_path, meta={"bench": "s5_hybrid_scaling", "n": n}) as tracer:
        # The context is frozen — the traced arm carries the session
        # tracer explicitly instead of relying on ambient resolution.
        traced_ctx = ctx.with_overrides(tracer=tracer) if ctx is not None else None
        t0 = time.perf_counter()
        traced = run_stages("soa", graph, seed=1, ctx=traced_ctx)
        traced_seconds = time.perf_counter() - t0
        traced_rows = rebuild_cell()

    assert traced[2] == base[2], "tracing changed the hybrid pipeline output"
    assert [tier_invariant_view(r) for r in traced_rows] == [
        tier_invariant_view(r) for r in untraced_rows
    ], "tracing changed the churn-rebuild scenario rows"
    pct = overhead_pct(base_seconds, traced_seconds)
    print(f"trace: n={n} traced pipeline overhead {pct:+.1f}% -> {trace_path}")
    return {
        "trace_path": trace_path,
        "n": n,
        "rebuild_n": REBUILD_N_SMOKE,
        "untraced_seconds": round(base_seconds, 4),
        "traced_seconds": round(traced_seconds, 4),
        "trace_overhead_pct": round(pct, 1),
        "rebuild_rows_invariant": True,
    }


def bench_s5_hybrid_scaling(benchmark):
    from _common import run_once

    run_once(benchmark, lambda: run_experiment(smoke=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="~60s CI variant (5x hard assert, smaller rebuild sweep)",
    )
    parser.add_argument(
        "--hybrid",
        choices=HYBRID_TIERS,
        default=None,
        help="restrict the timed tiers (default: REPRO_HYBRID env var or both)",
    )
    from _common import add_trace_argument

    add_trace_argument(parser)
    parser.add_argument(
        "--json",
        default="bench_s5_results.json",
        help="path for the machine-readable results payload",
    )
    args = parser.parse_args(argv)
    hybrid_filter = tier_filter("hybrid", args.hybrid)
    # One resolved context configures every network the pipeline
    # constructs internally.
    ctx = RunContext.resolve()
    rows, speedup = run_experiment(
        smoke=args.smoke, hybrid_filter=hybrid_filter, ctx=ctx
    )
    rebuild_rows = []
    if hybrid_filter in (None, "soa"):
        rebuild_rows = run_churn_rebuild_sweep(smoke=args.smoke, ctx=ctx)
    trace_check = None
    if args.trace:
        trace_check = run_trace_check(args.trace, ctx=ctx)
    from _common import bench_payload, write_bench_json

    payload = bench_payload(
        "s5_hybrid_scaling",
        config={
            "smoke": args.smoke,
            "hybrid_filter": hybrid_filter,
            "overlay_params": {
                "delta": OVERLAY_PARAMS.delta,
                "ell": OVERLAY_PARAMS.ell,
                "num_evolutions": OVERLAY_PARAMS.num_evolutions,
            },
        },
        ctx=ctx,
        rows=[
            {
                "n": n,
                "tier": tier,
                "stage_seconds": round(secs, 4),
            }
            for (n, tier), secs in sorted(rows.items())
        ],
        checks={
            "stage_speedup_at_assert_n": round(speedup, 2) if speedup else None,
            "trace": trace_check,
        },
        extra={"churn_rebuild": rebuild_rows},
    )
    write_bench_json(args.json, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
