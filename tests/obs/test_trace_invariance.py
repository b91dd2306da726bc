"""Contract C7 at runtime: a traced execution IS the untraced one.

Tracing must never perturb what it observes — same trees, same metrics,
same scenario rows, at every tier, whether the tracer arrives by
``ctx`` or ambient :func:`~repro.obs.capture`.  The matrices here are the
runtime half of the contract; the RL5xx repro-lint rules are the static
half.
"""

import hashlib
import time

import numpy as np
import pytest

from repro.core.protocol_tree import run_protocol_rooting
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs.portgraph import PortGraph
from repro.obs import Tracer, capture
from repro.obs.tracer import _reset_ambient_for_tests
from repro.runtime import RunContext
from repro.scenarios import CrashWave, ScenarioSpec
from repro.scenarios.runner import run_rooting_scenario, tier_invariant_view

SEEDS = tuple(range(12))
N = 128
FLOOD = 12


@pytest.fixture(autouse=True)
def clean_ambient():
    _reset_ambient_for_tests()
    yield
    _reset_ambient_for_tests()


def graph_for(seed: int) -> PortGraph:
    return PortGraph.ring_with_chords(N, delta=8, chords=1, seed=seed)


def sha(result) -> str:
    return hashlib.sha1(
        result.parent.tobytes() + result.depth.tobytes()
    ).hexdigest()


RUNNERS = {
    "object": lambda g, s: run_protocol_rooting(
        g, FLOOD, rng=np.random.default_rng(s), ctx=RunContext.resolve(engine="legacy")
    ),
    "object-vectorized": lambda g, s: run_protocol_rooting(
        g, FLOOD, rng=np.random.default_rng(s), ctx=RunContext.resolve(engine="vectorized")
    ),
    "soa": lambda g, s: run_soa_rooting(g, FLOOD, rng=np.random.default_rng(s)),
}


@pytest.mark.parametrize("tier", sorted(RUNNERS))
def test_traced_equals_untraced_across_tiers(tier):
    """12-seed matrix per tier: ambient capture() wires the tier's
    networks with zero kwarg plumbing, and nothing changes."""
    run = RUNNERS[tier]
    for seed in SEEDS:
        graph = graph_for(seed)
        base = run(graph, seed)
        with capture() as tracer:
            traced = run(graph, seed)
        assert sha(traced) == sha(base), f"tier={tier} seed={seed}"
        assert traced.metrics.as_dict() == base.metrics.as_dict()
        (net,) = tracer.tables_of("net")
        assert len(net) == base.metrics.rounds


def test_ctx_tracer_equals_untraced():
    """A tracer threaded through ``ctx`` (no ambient session) leaves
    the SoA run untouched."""
    for seed in SEEDS[:4]:
        graph = graph_for(seed)
        base = run_soa_rooting(graph, FLOOD, rng=np.random.default_rng(seed))
        traced = run_soa_rooting(
            graph,
            FLOOD,
            rng=np.random.default_rng(seed),
            ctx=RunContext.resolve(tracer=Tracer()),
        )
        assert sha(traced) == sha(base), f"seed={seed}"
        assert traced.metrics.as_dict() == base.metrics.as_dict()


def test_scenario_rows_invariant_under_tracing():
    """A traced adversarial scenario cell produces the identical row
    (modulo wall clock) and a scenario span nesting the run."""
    spec = ScenarioSpec(
        name="trace/crash20",
        crashes=(CrashWave(round_no=2, fraction=0.2),),
        fault_seed=3,
    )
    graph = PortGraph.ring_with_chords(256, delta=8, chords=1, seed=0)
    base = run_rooting_scenario(graph, spec, seed=0, tier="soa")
    tracer = Tracer()
    traced = run_rooting_scenario(
        graph, spec, seed=0, tier="soa", ctx=RunContext.resolve(tracer=tracer)
    )
    assert tier_invariant_view(traced) == tier_invariant_view(base)
    scenario_spans = [sp for sp in tracer.spans if sp.cat == "scenario"]
    assert len(scenario_spans) == 1
    assert scenario_spans[0].name == "trace/crash20"
    assert scenario_spans[0].attrs["converged"] == traced["converged"]


def test_disabled_tracer_overhead_bounded():
    """Zero-overhead-when-off: after a capture() session exits, an
    untraced run must cost what it did before any tracer existed (the
    3% bar of docs/observability.md, plus absolute slack for timer
    noise at this small shape)."""
    graph = PortGraph.ring_with_chords(20_000, delta=16, chords=2, seed=1)

    def run():
        return run_soa_rooting(graph, 23, rng=np.random.default_rng(1))

    def best_of(k):
        best = float("inf")
        for _ in range(k):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best

    run()  # warm caches
    base = best_of(2)
    with capture():
        run()
    disabled = best_of(2)
    assert disabled <= base * 1.03 + 0.05, (
        f"disabled-tracer run regressed: {disabled:.4f}s vs {base:.4f}s"
    )


@pytest.mark.parametrize("expander,rooting", [("walks", "reference"), ("soa", "soa")])
def test_pipeline_stage_spans(expander, rooting):
    """build_well_formed_tree names its three phases as stage spans whose
    ``rounds`` match the round ledger, and the traced result is the
    untraced one bit for bit."""
    from repro.core.pipeline import build_well_formed_tree
    from repro.graphs.generators import cycle_graph

    graph = cycle_graph(96)

    def run(**kwargs):
        return build_well_formed_tree(
            graph, rng=np.random.default_rng(3), expander=expander, rooting=rooting, **kwargs
        )

    base = run()
    with capture() as tracer:
        traced = run()
    explicit = Tracer()
    via_ctx = run(ctx=RunContext.resolve(tracer=explicit))
    for result in (traced, via_ctx):
        assert np.array_equal(result.well_formed.tree.parent, base.well_formed.tree.parent)
        assert result.well_formed.root == base.well_formed.root
        assert result.round_ledger == base.round_ledger
        assert np.array_equal(result.bfs.parent, base.bfs.parent)
    ledger = base.round_ledger
    expected = {
        "create_expander": ledger["prepare"] + ledger["evolutions"],
        "rooting": ledger["bfs"],
        "well_forming": ledger["well_forming"],
    }
    for tr in (tracer, explicit):
        stages = {sp.name: sp for sp in tr.spans if sp.cat == "stage"}
        assert set(expected) <= set(stages)
        for name, rounds in expected.items():
            assert stages[name].attrs["rounds"] == rounds, name
        order = [sp.name for sp in tr.spans if sp.name in expected]
        assert order == ["create_expander", "rooting", "well_forming"]
