"""X3 — §1.4: churn robustness of the constructed overlays.

Paper claim: *"if the nodes fail independently and random with a certain
probability, say p, a logarithmic sized minimum cut … is enough to keep
the network connected w.h.p."* — the expander overlays should tolerate
heavy oblivious churn, unlike the sparse inputs they were built from.

Measured here: survival curves (largest surviving component fraction,
connected-trial rate) for the input ring vs. its expander overlay across
churn levels.
"""

from _common import run_once, seeded
from repro.core.pipeline import build_well_formed_tree
from repro.experiments.harness import Table
from repro.graphs.churn import survival_curve
from repro.graphs.generators import cycle_graph
from repro.runtime import RunContext, select_choice


def bench_x3_survival_curves(benchmark):
    # Identical overlay on every rooting tier; REPRO_ROOTING selects the
    # execution path under measurement — one resolved context carries it
    # into every network the build constructs.
    ctx = RunContext.resolve(rooting=select_choice("rooting", default="soa"))

    def experiment():
        n = 256
        ring = cycle_graph(n)
        overlay = build_well_formed_tree(ring, rng=seeded(0), ctx=ctx).final_graph()
        probs = [0.05, 0.15, 0.30, 0.50]
        rng = seeded(1)
        ring_rows = survival_curve(ring, probs, rng, trials=6)
        overlay_rows = survival_curve(overlay.neighbor_sets(), probs, rng, trials=6)

        table = Table(
            "X3: churn survival, ring vs expander overlay (n = 256)",
            [
                "p",
                "ring_largest_frac",
                "ring_connected",
                "overlay_largest_frac",
                "overlay_connected",
            ],
        )
        for r_row, o_row in zip(ring_rows, overlay_rows):
            table.add(
                r_row["p"],
                r_row["mean_largest_fraction"],
                r_row["connected_rate"],
                o_row["mean_largest_fraction"],
                o_row["connected_rate"],
            )
        table.show()
        return ring_rows, overlay_rows

    ring_rows, overlay_rows = run_once(benchmark, experiment)
    # The overlay stays one component through 30% churn in every trial;
    # the ring is long gone.
    for row in overlay_rows[:3]:
        assert row["connected_rate"] == 1.0
    assert ring_rows[1]["connected_rate"] == 0.0
    # Even at 50% churn the overlay keeps a dominant component.
    assert overlay_rows[-1]["mean_largest_fraction"] > 0.9
