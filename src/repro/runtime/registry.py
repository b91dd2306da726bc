"""WORKLOADS: the named protocol populations the stack can execute.

The scenario engine, the churn rebuild, the §4 hybrid pipeline, and the
prior-work baselines each expose a builder entry point with its own tier
vocabulary.  Before this registry, every layer that accepted a workload
name re-validated tier membership by hand (three separate copies of the
``HYBRID_TIERS`` check lived in ``hybrid/components.py``,
``scenarios/runner.py``, and ``graphs/churn.py``); new workloads had to
re-plumb the same checks again.  Now a workload *declares* its tier
support once, and every layer asks the registry:

>>> from repro.runtime import WORKLOADS, validate_tier
>>> WORKLOADS["rooting"].tiers
('object', 'soa')
>>> validate_tier("hybrid", "soa")
'soa'

``validate_tier`` raises one consistent, choice-listing message
(``"{workload} tier must be one of {tiers}, got {value!r}"``) at every
call site.  Builders are dotted references resolved lazily on
:meth:`Workload.load`, so the registry itself stays import-light (this
module sits in the leaf :mod:`repro.runtime` package and must not pull
engine layers in at import time).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module

from repro.runtime.context import EXPANDER_MODES, HYBRID_TIERS, ROOTING_TIERS

__all__ = ["WORKLOADS", "Workload", "get_workload", "validate_tier"]


@dataclass(frozen=True)
class Workload:
    """One named protocol population and its declared execution support.

    ``builder`` is a lazy dotted reference (``"module:callable"``) to the
    population builder / pipeline entry point, resolved on first
    :meth:`load`.  ``tiers`` is the tier vocabulary the workload's
    ``tier=``-style knob accepts; ``tier_field`` names the
    :class:`~repro.runtime.context.RunContext` field that carries the
    selection for this workload.
    """

    name: str
    description: str
    tiers: tuple[str, ...]
    tier_field: str
    builder: str

    def load(self):
        """Import and return the builder callable (cycle-safe: deferred
        past module import so ``repro.runtime`` stays a leaf package)."""
        module, _, attr = self.builder.partition(":")
        return getattr(import_module(module), attr)

    def validate_tier(self, tier: str) -> str:
        """``tier``, or a :class:`ValueError` listing the valid choices —
        the one membership check the stack's layers share."""
        if tier not in self.tiers:
            raise ValueError(
                f"{self.name} tier must be one of {self.tiers}, got {tier!r}"
            )
        return tier


#: Every named workload the stack can run, keyed by name.  PR 11+
#: (traffic harness, baseline arena) adds entries here instead of
#: re-plumbing tier/worker/tracer knobs through each layer.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rooting",
            description=(
                "message-level Theorem 1.1 rooting population under the "
                "footnote-2 synchroniser"
            ),
            tiers=ROOTING_TIERS,
            tier_field="rooting",
            builder="repro.core.protocol_tree:build_rooting_population",
        ),
        Workload(
            name="expander",
            description=(
                "CreateExpander phase of the Theorem 1.1 pipeline "
                "(random-walk spanner construction)"
            ),
            tiers=EXPANDER_MODES,
            tier_field="expander",
            builder="repro.core.pipeline:build_well_formed_tree",
        ),
        Workload(
            name="hybrid",
            description=(
                "§4 hybrid connected-components pipeline over a port "
                "graph or CSR adjacency"
            ),
            tiers=HYBRID_TIERS,
            tier_field="hybrid",
            builder="repro.hybrid.components:connected_components_hybrid",
        ),
        Workload(
            name="churn-rebuild",
            description=(
                "crash waves kill for good; the hybrid pipeline rebuilds "
                "per-component well-formed trees over the survivors"
            ),
            tiers=HYBRID_TIERS,
            tier_field="hybrid",
            builder="repro.graphs.churn:rebuild_survivor_overlay",
        ),
        Workload(
            name="supernode-merge",
            description=(
                "Angluin-style grouping/merging baseline (O(log² n) "
                "rounds; the prior-work comparison arm)"
            ),
            tiers=("object",),
            tier_field="rooting",
            builder="repro.baselines:supernode_merge",
        ),
        Workload(
            name="pointer-jumping",
            description=(
                "unbounded-communication pointer jumping baseline "
                "(O(log n) rounds, Θ(n) messages per node)"
            ),
            tiers=("object",),
            tier_field="rooting",
            builder="repro.baselines:pointer_jumping",
        ),
        Workload(
            name="flooding",
            description="naive full-knowledge flooding baseline",
            tiers=("object",),
            tier_field="rooting",
            builder="repro.baselines:flooding",
        ),
    )
}


def get_workload(name: str) -> Workload:
    """The registry entry for ``name``, or a choice-listing error."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None


def validate_tier(workload: str, tier: str) -> str:
    """Registry-backed tier membership check — the single replacement
    for the per-module ``if tier not in HYBRID_TIERS`` copies."""
    return get_workload(workload).validate_tier(tier)
