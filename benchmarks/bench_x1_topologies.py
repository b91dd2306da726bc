"""X1 — §1.4 corollary: any well-behaved overlay in O(log n) rounds.

Paper claim: *"any 'well-behaved' overlay of logarithmic degree and
diameter (e.g., butterfly networks, path graphs, sorted rings, trees,
regular expanders, DeBruijn graphs, etc.) can be constructed in O(log n)
rounds, w.h.p."*

Measured here: all five implemented target topologies built on the
well-formed tree from a line input — degree, diameter, and construction
rounds per family.
"""

import math

from _common import run_once, seeded
from repro.core.pipeline import build_well_formed_tree
from repro.core.topologies import (
    build_butterfly,
    build_debruijn,
    build_hypercube,
    build_sorted_path,
    build_sorted_ring,
)
from repro.experiments.harness import Table
from repro.graphs.generators import line_graph
from repro.runtime import RunContext, select_choice


def bench_x1_structured_overlays(benchmark):
    # Every rooting tier builds the identical tree; REPRO_ROOTING selects
    # the execution path under measurement — one resolved context carries
    # it into every network the build constructs.
    ctx = RunContext.resolve(rooting=select_choice("rooting", default="soa"))

    def experiment():
        n = 256
        result = build_well_formed_tree(line_graph(n), rng=seeded(4), ctx=ctx)
        tree = result.tree
        builders = {
            "sorted_path": build_sorted_path,
            "sorted_ring": build_sorted_ring,
            "hypercube": build_hypercube,
            "butterfly": build_butterfly,
            "debruijn": build_debruijn,
        }
        table = Table(
            "X1: structured overlays from the well-formed tree (n = 256)",
            ["topology", "degree", "diameter", "connected", "total_rounds"],
        )
        rows = []
        base_rounds = result.total_rounds
        for name, build in builders.items():
            topo = build(tree)
            total = base_rounds + topo.rounds
            table.add(name, topo.max_degree(), topo.overlay_diameter(),
                      topo.is_connected(), total)
            rows.append((name, topo, total))
        table.show()
        return n, rows

    n, rows = run_once(benchmark, experiment)
    log_n = math.log2(n)
    for name, topo, total in rows:
        assert topo.is_connected(), name
        assert total <= 45 * log_n, f"{name}: construction not O(log n)"
        if name in ("sorted_path", "sorted_ring"):
            assert topo.max_degree() <= 2
        else:
            assert topo.max_degree() <= 2 * log_n + 2
            assert topo.overlay_diameter() <= 2 * log_n + 2
