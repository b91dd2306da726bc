"""E2 — Lemma 3.1(1): every evolution graph is benign (Definition 2.1).

Paper claim: all graphs ``G_i`` produced by ``CreateExpander`` are
``Δ``-regular, lazy (``≥ Δ/2`` self-loops), and keep an ``Ω(log n)``
minimum cut, w.h.p.

Measured here: regularity and laziness structurally, the minimum cut with
Stoer–Wagner, across workloads and seeds at the calibrated parameters.
The cut floor is ``max(2, Λ/2)`` (``docs/deviations.md``, "Parameter calibration" — the paper's face-value
constants assume ``ℓ > 10⁶``).
"""

from _common import run_once, seeded
from repro.core.benign import check_benign, make_benign
from repro.core.expander import ExpanderBuilder
from repro.core.params import ExpanderParams
from repro.experiments.harness import Table
from repro.graphs import generators as G
from repro.graphs.mincut import min_cut_of_portgraph


def bench_e2_invariants(benchmark):
    def experiment():
        table = Table(
            "E2: benignness per evolution (Definition 2.1)",
            ["workload", "n", "seed", "lazy_all", "min_cut_dip", "floor", "cut_ok"],
        )
        rows = []
        for name in ("line", "cycle", "double_star"):
            for seed in (0, 1):
                graph = G.make_workload(name, 96, seeded(seed))
                n = graph.number_of_nodes()
                dmax = max(d for _, d in graph.degree)
                params = ExpanderParams.recommended(n, max_degree=dmax)
                base, _ = make_benign(graph, params)
                builder = ExpanderBuilder(base, params, seeded(seed + 10))
                lazy_all = True
                dip = min_cut_of_portgraph(base)
                for _ in range(params.num_evolutions):
                    builder.step()
                    report = check_benign(builder.current, params, check_cut=False)
                    lazy_all &= report.is_lazy and report.is_regular
                    dip = min(dip, min_cut_of_portgraph(builder.current))
                floor = params.maintained_cut_floor
                ok = dip >= floor
                table.add(name, n, seed, lazy_all, dip, floor, ok)
                rows.append((name, lazy_all, dip, floor))
        table.show()
        return rows

    rows = run_once(benchmark, experiment)
    for name, lazy_all, dip, floor in rows:
        assert lazy_all, f"{name}: regularity/laziness violated"
        assert dip >= floor, f"{name}: cut dipped to {dip} below floor {floor}"
