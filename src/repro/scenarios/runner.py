"""ScenarioRunner: named adversarial grids over the rooting workload.

The runner executes a :class:`~repro.scenarios.spec.ScenarioSpec` grid
(delay × drop × churn × partition) against the message-level rooting
protocol on any execution tier and emits machine-readable JSON rows —
the measurement surface of the scenario engine
(``benchmarks/bench_s4_scenario_scaling.py`` consumes it, CI uploads it
as an artifact).

Every cell runs under the footnote-2 synchroniser
(:func:`repro.net.asynchrony.run_with_asynchrony`; ``max_delay = 1``
degenerates to the synchronous schedule) with the spec's compiled
:class:`~repro.scenarios.spec.FaultInjector` installed in the delivery
tail and ``require_quiescence=False`` — an adversary is *allowed* to
starve the protocol, and the row records whether it did (``converged``,
``spanned``, ``assigned_fraction``) rather than raising.

Because fault streams are functions of ``(spec, fault_seed, round)``
alone and every tier presents identical canonical message columns, the
same ``(spec, n, seed)`` cell produces the **identical row** on the
object and SoA tiers (modulo ``tier``/``wall_seconds`` — see
:func:`tier_invariant_view`); ``tests/scenarios/test_runner.py`` pins
this differentially.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import rooting_flood_rounds
from repro.core.protocol_tree import build_rooting_population
from repro.graphs.portgraph import PortGraph
from repro.net.asynchrony import run_with_asynchrony
from repro.net.network import CapacityPolicy
from repro.obs import maybe_span, resolve_tracer
from repro.runtime import RunContext, context_or_default, validate_tier
from repro.scenarios.spec import (
    CrashWave,
    LinkDelay,
    MessageDrop,
    Partition,
    ScenarioSpec,
)

__all__ = [
    "SCENARIO_GRIDS",
    "ScenarioRunner",
    "delay_drop_churn_grid",
    "run_rooting_scenario",
    "run_churn_rebuild_scenario",
    "tier_invariant_view",
]


def run_rooting_scenario(
    graph: PortGraph,
    spec: ScenarioSpec,
    seed: int,
    tier: str = "soa",
    capacity: CapacityPolicy | None = None,
    max_rounds: int | None = None,
    *,
    ctx: RunContext | None = None,
) -> dict:
    """Run one scenario cell: rooting on ``graph`` under ``spec``.

    Returns a flat JSON-able row.  The delivery RNG is seeded with
    ``seed``; the adversary draws only from the spec's own fault streams,
    so matched ``(spec, seed)`` cells see identical executions across
    tiers.  The spec's compiled injector becomes the run's
    ``fault_hook`` on top of ``ctx``.  A resolved tracer (``ctx.tracer``
    or ambient — see :mod:`repro.obs`) wraps the cell in a
    ``cat="scenario"`` span and records the per-round tables underneath;
    rows are unchanged.
    """
    n = graph.n
    fr = rooting_flood_rounds(n)
    if capacity is None:
        capacity = CapacityPolicy.ncc0(n, graph.delta)
    if max_rounds is None:
        max_rounds = 5 * fr + 8  # the rooting runners' default budget
    population = build_rooting_population(graph, fr, tier)
    ctx = context_or_default(ctx)
    tracer = resolve_tracer(ctx.tracer)
    # The resolved tracer goes into the context too: the SoA synchroniser
    # records its sync table from ``ctx.tracer`` alone.
    ctx = ctx.with_overrides(fault_hook=spec.compile(n), tracer=tracer)
    # Wall time is this harness's deliverable (scenario rows report
    # duration); measurement is the point here.
    start = time.perf_counter()  # repro-lint: disable=RL202
    with maybe_span(
        tracer,
        spec.name,
        cat="scenario",
        workload="rooting",
        n=n,
        tier=tier,
        seed=seed,
    ) as span:
        report, network = run_with_asynchrony(
            population,
            capacity,
            np.random.default_rng(seed),
            max_delay=spec.max_delay,
            max_rounds=max_rounds,
            require_quiescence=False,
            ctx=ctx,
        )
    wall = time.perf_counter() - start  # repro-lint: disable=RL202
    if tier == "soa":
        parent, depth = population.parent, population.depth
    else:
        parent = np.fromiter(
            (population[v].parent for v in range(n)), dtype=np.int64, count=n
        )
        depth = np.fromiter(
            (population[v].depth for v in range(n)), dtype=np.int64, count=n
        )
    roots = np.flatnonzero(parent == np.arange(n, dtype=np.int64))
    metrics = network.metrics
    if span is not None:
        span.attrs["converged"] = bool(report.converged)
        span.attrs["rounds"] = int(report.logical_rounds)
        span.attrs["fault_drops"] = int(metrics.fault_drops)
    return {
        "scenario": spec.describe(),
        "n": n,
        "tier": tier,
        "seed": seed,
        "converged": report.converged,
        "rounds": report.logical_rounds,
        "elapsed_time_units": report.elapsed_time_units,
        "observed_max_delay": report.observed_max_delay,
        "spanned": bool((parent >= 0).all()) and roots.shape[0] == 1,
        "num_roots": int(roots.shape[0]),
        "root": int(roots[0]) if roots.shape[0] == 1 else -1,
        "assigned_fraction": float((parent >= 0).mean()),
        "tree_sha": hashlib.sha1(parent.tobytes() + depth.tobytes()).hexdigest()[:16],
        "total_messages": metrics.total_messages,
        "send_drops": metrics.send_drops,
        "receive_drops": metrics.receive_drops,
        "fault_drops": metrics.fault_drops,
        "wall_seconds": round(wall, 4),
    }


def run_churn_rebuild_scenario(
    graph: PortGraph,
    spec: ScenarioSpec,
    seed: int,
    tier: str = "soa",
    overlay_params=None,
    *,
    ctx: RunContext | None = None,
) -> dict:
    """Run one scenario-driven churn-rebuild cell: the spec's crash waves
    kill their members for good, and the §4 hybrid pipeline rebuilds
    per-component well-formed trees over every survivor on the chosen
    hybrid tier (:data:`repro.hybrid.components.HYBRID_TIERS`).

    The churn *is* the scenario: crashed membership comes from the
    compiled :class:`~repro.scenarios.spec.FaultInjector`'s down-mask at
    the last crash onset (so waves that already rejoined count as alive),
    making the kill set a pure function of ``(spec, fault_seed)`` —
    identical across tiers, like every other fault stream.  Survivor
    extraction and the ground-truth label check are columnar
    (:class:`~repro.hybrid.soa_pipeline.CSRAdjacency`), which is what
    lets the rebuild sweep run at ``n = 10⁵``
    (``benchmarks/bench_s5_hybrid_scaling.py``).
    """
    from repro.hybrid.components import connected_components_hybrid
    from repro.hybrid.soa_pipeline import CSRAdjacency, flood_min_ids_columns

    validate_tier("hybrid", tier)
    n = graph.n
    injector = spec.compile(n)
    alive = np.ones(n, dtype=bool)
    if spec.crashes:
        reference_round = max(w.round_no for w in spec.crashes)
        down = injector.down_mask(reference_round)
        if down is not None:
            alive = ~down
    survivors = np.flatnonzero(alive).astype(np.int64)
    if survivors.shape[0] < 2:
        raise ValueError(f"scenario {spec.name!r} left fewer than 2 survivors")

    # Columnar survivor-induced adjacency, relabelled to 0..k-1 (the
    # same extraction the direct-call churn rebuild uses).
    csr = CSRAdjacency.from_graph(graph).induced_by(alive)
    truth, _ = flood_min_ids_columns(csr)

    ctx = context_or_default(ctx)
    tracer = resolve_tracer(ctx.tracer)
    # Wall time is this harness's deliverable (scenario rows report
    # duration); measurement is the point here.
    start = time.perf_counter()  # repro-lint: disable=RL202
    with maybe_span(
        tracer,
        spec.name,
        cat="scenario",
        workload="churn-rebuild",
        n=n,
        tier=tier,
        seed=seed,
    ) as span:
        result = connected_components_hybrid(
            csr,
            rng=np.random.default_rng(seed),
            overlay_params=overlay_params,
            tier=tier,
            ctx=ctx,
        )
    wall = time.perf_counter() - start  # repro-lint: disable=RL202
    labels = result.labels
    roots = np.unique(labels)
    if span is not None:
        span.attrs["survivors"] = int(survivors.shape[0])
        span.attrs["components"] = int(roots.shape[0])
    return {
        "scenario": spec.describe(),
        "workload": "churn-rebuild",
        "n": n,
        "tier": tier,
        "seed": seed,
        "survivors": int(survivors.shape[0]),
        "components": int(roots.shape[0]),
        "largest_fraction": float(
            np.bincount(labels, minlength=survivors.shape[0]).max()
            / max(1, survivors.shape[0])
        ),
        "labels_match_ground_truth": bool(np.array_equal(labels, truth)),
        "labels_sha": hashlib.sha1(labels.tobytes()).hexdigest()[:16],
        "forest_sha": hashlib.sha1(
            result.forest.parent.tobytes() + result.forest.root_of.tobytes()
        ).hexdigest()[:16],
        "ledger": result.ledger.summary(),
        "wall_seconds": round(wall, 4),
    }


def tier_invariant_view(row: dict) -> dict:
    """The row minus its tier label and wall clock — the part that must
    be identical across execution tiers for matched cells."""
    return {k: v for k, v in row.items() if k not in ("tier", "wall_seconds")}


# ----------------------------------------------------------------------
# Named grids
# ----------------------------------------------------------------------
def delay_drop_churn_grid(
    name: str = "delay_drop_churn",
    delays: tuple[int, ...] = (1, 4),
    drops: tuple[float, ...] = (0.0, 0.02),
    crash_fractions: tuple[float, ...] = (0.0, 0.1),
    crash_round: int = 2,
    rejoin_round: int | None = None,
    fault_seed: int = 0,
) -> tuple[ScenarioSpec, ...]:
    """The canonical delay × drop × churn cross as a spec tuple."""
    specs = []
    for d in delays:
        for p in drops:
            for c in crash_fractions:
                specs.append(
                    ScenarioSpec(
                        name=f"{name}/d{d}-p{p:g}-c{c:g}",
                        delay=LinkDelay(d) if d > 1 else None,
                        drop=MessageDrop(p) if p > 0 else None,
                        crashes=(
                            (CrashWave(crash_round, c, rejoin_round),) if c > 0 else ()
                        ),
                        fault_seed=fault_seed,
                    )
                )
    return tuple(specs)


#: Named scenario grids the runner (and the S4 bench CLI) resolve.
SCENARIO_GRIDS: dict[str, tuple[ScenarioSpec, ...]] = {
    # One representative of each adversary plus a composite — the quick
    # differential surface (CI smoke runs this on both tiers).
    "smoke": (
        ScenarioSpec(name="smoke/baseline"),
        ScenarioSpec(name="smoke/delay4", delay=LinkDelay(4)),
        ScenarioSpec(name="smoke/drop5", drop=MessageDrop(0.05)),
        ScenarioSpec(
            name="smoke/churn10-rejoin",
            crashes=(CrashWave(round_no=2, fraction=0.1, rejoin_round=6),),
        ),
        ScenarioSpec(
            name="smoke/partition-heal",
            partition=Partition(start=1, stop=4, blocks=2),
        ),
        ScenarioSpec(
            name="smoke/composite",
            delay=LinkDelay(3),
            drop=MessageDrop(0.02),
            crashes=(CrashWave(round_no=3, fraction=0.05),),
        ),
    ),
    "delay_drop_churn": delay_drop_churn_grid(),
    "partition": (
        ScenarioSpec(
            name="partition/flood-split",
            partition=Partition(start=0, stop=6, blocks=2),
        ),
        ScenarioSpec(
            name="partition/late-split",
            partition=Partition(start=8, stop=14, blocks=3),
        ),
    ),
}


@dataclass
class ScenarioRunner:
    """Execute scenario grids over sizes × tiers × seeds.

    The graph family is the ring-plus-chords stand-in for evolution
    output shared with the S3–S5 benches (low diameter, degree ≤ 6), so
    scenario results stay comparable with the synchronous scaling story.

    ``workload`` selects what each cell runs: ``"rooting"`` (the
    message-level rooting protocol under the synchroniser, tiers from
    :data:`~repro.core.protocol_tree.ROOTING_TIERS`) or
    ``"churn-rebuild"`` (crash waves kill for good, the §4 hybrid
    pipeline rebuilds per-component trees over the survivors — tiers
    from :data:`repro.hybrid.components.HYBRID_TIERS`, with
    ``overlay_params`` forwarded to the hybrid overlay).

    ``ctx`` (optional) threads one resolved
    :class:`~repro.runtime.context.RunContext` through every cell —
    workers, tracer, sanitize/debug flags — while the grid's own axes
    (``tiers``, seeds) still come from the runner.  A traced cell
    (``ctx.tracer``, or an ambient :func:`repro.obs.capture` scope)
    becomes a ``cat="scenario"`` span over its per-round tables.
    """

    sizes: tuple[int, ...] = (512,)
    seeds: tuple[int, ...] = (0, 1, 2)
    tiers: tuple[str, ...] = ("object", "soa")
    delta: int = 16
    chords: int = 2
    workload: str = "rooting"
    overlay_params: object | None = None
    ctx: RunContext | None = None

    def __post_init__(self) -> None:
        if self.workload not in ("rooting", "churn-rebuild"):
            raise ValueError(
                f"workload must be 'rooting' or 'churn-rebuild', got {self.workload!r}"
            )
        for tier in self.tiers:
            validate_tier(self.workload, tier)
        self._graphs: dict[int, PortGraph] = {}

    def graph_for(self, n: int) -> PortGraph:
        if n not in self._graphs:
            self._graphs[n] = PortGraph.ring_with_chords(
                n, delta=self.delta, chords=self.chords, seed=n
            )
        return self._graphs[n]

    # ------------------------------------------------------------------
    def run_cell(self, n: int, spec: ScenarioSpec, seed: int, tier: str) -> dict:
        """One (size, spec, seed, tier) cell of the configured workload."""
        if self.workload == "churn-rebuild":
            return run_churn_rebuild_scenario(
                self.graph_for(n),
                spec,
                seed,
                tier=tier,
                overlay_params=self.overlay_params,
                ctx=self.ctx,
            )
        return run_rooting_scenario(self.graph_for(n), spec, seed, tier=tier, ctx=self.ctx)

    def run_spec(self, spec: ScenarioSpec) -> list[dict]:
        """All (size, tier, seed) cells of one spec."""
        return [
            self.run_cell(n, spec, seed, tier)
            for n in self.sizes
            for tier in self.tiers
            for seed in self.seeds
        ]

    def run_grid(self, grid: str | tuple[ScenarioSpec, ...]) -> dict:
        """Execute a named (or explicit) grid; returns the JSON payload."""
        if isinstance(grid, str):
            if grid not in SCENARIO_GRIDS:
                raise ValueError(
                    f"unknown grid {grid!r}; known: {sorted(SCENARIO_GRIDS)}"
                )
            name, specs = grid, SCENARIO_GRIDS[grid]
        else:
            name, specs = "custom", tuple(grid)
        rows = [row for spec in specs for row in self.run_spec(spec)]
        return {
            "grid": name,
            "sizes": list(self.sizes),
            "tiers": list(self.tiers),
            "seeds": list(self.seeds),
            "rows": rows,
        }

    @staticmethod
    def write_json(payload: dict, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
