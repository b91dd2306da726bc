"""RunContext: the one execution-configuration object of the stack.

Every knob that selects *how* a population executes — delivery engine,
rooting/expander/hybrid tier, tracer, sanitizer and debug flags, the
layout-reuse toggle, the fault spec, the seed — used to be resolved
independently at each call site (a bench resolver here, a raw
``REPRO_*`` read somewhere else).
This module replaces that scatter with one frozen dataclass built
through one precedence chain:

    explicit resolve() argument  >  CLI value  >  ``REPRO_*`` environment  >  default

Contract C8 (``docs/contracts.md``): a :class:`RunContext` is immutable
— context fields never change mid-run — and it is the *only*
configuration source; the environment step of the chain lives in
:mod:`repro.runtime.envsource` and nowhere else (repro-lint ``RL601``).

Two construction paths:

- :meth:`RunContext.resolve` runs the full chain.  ``cli`` is an
  ``argparse`` namespace (or dict) whose matching attribute names are
  consulted between kwargs and the environment; unknown field names in
  ``overrides`` raise.
- :func:`context_or_default` is what the library does with the
  ``ctx=`` argument every entry point takes — the one spelling of
  execution config below the CLI; no library function takes an
  ``engine=``/``tracer=``/``fault_hook=`` parameter of its
  own.  ``ctx=None`` resolves the bare-call default, spelled once here.

The tier vocabulary (one tuple per stack dimension) is authoritative
here: :mod:`repro.net.network`, :mod:`repro.core.pipeline`,
:mod:`repro.core.protocol_tree`, and :mod:`repro.hybrid.components`
import their choice tuples from this module (it imports nothing outside
the stdlib at module level, so it sits below every engine layer).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

from repro.runtime.envsource import env_flag, env_int, read_env

__all__ = [
    "ENGINES",
    "TIER_CHOICES",
    "ROOTING_MODES",
    "ROOTING_TIERS",
    "EXPANDER_MODES",
    "HYBRID_TIERS",
    "TIER_KINDS",
    "RunContext",
    "choice_specified",
    "context_or_default",
    "select_choice",
    "validate_tier",
]

# ----------------------------------------------------------------------
# Tier vocabularies (single source of truth for the whole stack)
# ----------------------------------------------------------------------
#: Delivery engines of :class:`repro.net.network.SyncNetwork`.
ENGINES = ("legacy", "vectorized")

#: Execution tiers for stack-aware benchmarks: the two delivery engines
#: plus ``"soa"`` — structure-of-arrays protocol classes on the
#: vectorized delivery path (one Python call advances all nodes).
TIER_CHOICES = ENGINES + ("soa",)

#: How the Theorem 1.1 rooting phase executes
#: (:func:`repro.core.pipeline.build_well_formed_tree`).
ROOTING_MODES = ("reference", "protocol", "soa")

#: Node representations of the message-level rooting *population*
#: (:func:`repro.core.protocol_tree.build_rooting_population`) — the
#: scenario engine's rooting-workload tiers.
ROOTING_TIERS = ("object", "soa")

#: How the Theorem 1.1 ``CreateExpander`` phase executes.
EXPANDER_MODES = ("walks", "protocol", "soa")

#: Execution tiers of the §4 hybrid pipeline
#: (:func:`repro.hybrid.components.connected_components_hybrid`).
HYBRID_TIERS = ("object", "soa")

#: The choice-valued stack dimensions: field name → (env var, default,
#: choices).  One table instead of one copy-pasted resolver per module.
TIER_KINDS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "engine": ("REPRO_ENGINE", "vectorized", TIER_CHOICES),
    "rooting": ("REPRO_ROOTING", "reference", ROOTING_MODES),
    "expander": ("REPRO_EXPANDER", "walks", EXPANDER_MODES),
    "hybrid": ("REPRO_HYBRID", "object", HYBRID_TIERS),
}

#: Workload name → the tier vocabulary its ``tier=`` knob accepts.
_WORKLOAD_TIERS = {
    "rooting": ROOTING_TIERS,
    "hybrid": HYBRID_TIERS,
    "churn-rebuild": HYBRID_TIERS,
}

_SEED_ENV = "REPRO_SEED"


# ----------------------------------------------------------------------
# Single-field resolvers (the harness delegates here)
# ----------------------------------------------------------------------
def select_choice(
    kind: str,
    cli_value: str | None = None,
    default: str | None = None,
    choices: tuple[str, ...] | None = None,
) -> str:
    """Resolve one choice-valued stack dimension through the chain.

    ``kind`` is a key of :data:`TIER_KINDS`.  Precedence: ``cli_value``
    > the kind's environment variable > ``default`` > the kind's
    conventional default.  Raises on unknown kinds and names so typos
    fail loudly; pass ``choices`` to restrict (e.g. :data:`ENGINES` for
    engine-only benches).
    """
    if kind not in TIER_KINDS:
        raise ValueError(f"kind must be one of {tuple(TIER_KINDS)}, got {kind!r}")
    env_var, kind_default, kind_choices = TIER_KINDS[kind]
    value = cli_value or read_env(env_var) or default or kind_default
    if choices is None:
        choices = kind_choices
    if value not in choices:
        raise ValueError(f"{kind} must be one of {choices}, got {value!r}")
    return value


def choice_specified(kind: str, cli_value: str | None = None) -> bool:
    """Whether the user chose anything for ``kind`` (CLI or env) — the
    "time every stack unless restricted" bench pattern."""
    if kind not in TIER_KINDS:
        raise ValueError(f"kind must be one of {tuple(TIER_KINDS)}, got {kind!r}")
    return bool(cli_value) or read_env(TIER_KINDS[kind][0]) is not None


def validate_tier(workload: str, tier: str) -> str:
    """``tier``, or a :class:`ValueError` listing the workload's choices —
    the one tier-membership check every layer shares."""
    if workload not in _WORKLOAD_TIERS:
        raise ValueError(
            f"unknown workload {workload!r}; known: {sorted(_WORKLOAD_TIERS)}"
        )
    tiers = _WORKLOAD_TIERS[workload]
    if tier not in tiers:
        raise ValueError(f"{workload} tier must be one of {tiers}, got {tier!r}")
    return tier


def _cli_value(cli, name: str):
    if cli is None:
        return None
    if isinstance(cli, dict):
        return cli.get(name)
    return getattr(cli, name, None)


def _check_workers(value) -> int:
    workers = int(value)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _resolve_seed(value, cli) -> int | None:
    if value is None:
        value = _cli_value(cli, "seed")
    if value is None:
        value = env_int(_SEED_ENV)
    if value is None:
        return None
    seed = int(value)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _resolve_flag(name: str, env_var: str, default: bool, value, cli) -> bool:
    if value is None:
        value = _cli_value(cli, name)
    if value is None:
        return env_flag(env_var, default)
    return bool(value)


# ----------------------------------------------------------------------
# The context object
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunContext:
    """One frozen snapshot of everything that selects an execution.

    Attributes
    ----------
    engine:
        Delivery engine / execution tier (:data:`TIER_CHOICES`; the
        network itself accepts the :data:`ENGINES` subset — ``"soa"`` is
        a *node representation* on the vectorized engine).
    rooting, expander:
        Theorem 1.1 phase modes (:data:`ROOTING_MODES`,
        :data:`EXPANDER_MODES`).
    hybrid:
        §4 pipeline tier (:data:`HYBRID_TIERS`).
    workers:
        A recorded worker count (≥ 1) that selects nothing: delivery
        runs in one process at every value.  It remains only because the
        end-to-end benchmark still passes it (its ``rooting-250k-w2``
        workload); the benchmark change that retires that workload
        deletes the field.  Set only through :meth:`resolve` /
        :meth:`with_overrides`; no CLI or environment form.
    seed:
        The run's seed, when the caller routes RNG construction through
        the context (:meth:`rng`); ``None`` means the caller supplies
        its own generator.
    sanitize, debug_soa:
        Runtime-invariant flags (``REPRO_SANITIZE`` /
        ``REPRO_DEBUG_SOA``); recorded so artifacts know whether checks
        were armed.  The module-level switches
        (:data:`repro.sanitize.ENABLED`,
        :data:`repro.net.soa.DEBUG_VALIDATE`) remain the hot-path
        drivers — ``sanitize`` resolves true when either the
        environment or the module flag is armed.
    layout_reuse:
        The persistent receiver-sorted layout cache of the SoA round
        loop (``REPRO_SOA_LAYOUT_REUSE``; default on — timing-only, the
        control arm of bench_s3's re-sort measurement).
    tracer:
        A :class:`repro.obs.Tracer` or ``None``; resolved through the
        ambient-session / ``REPRO_TRACE`` chain when unspecified.
    fault_hook:
        The oblivious message adversary installed in the delivery tail
        (a :meth:`resolve` / :meth:`with_overrides` argument only; no
        CLI or environment form).
    """

    engine: str = "vectorized"
    rooting: str = "reference"
    expander: str = "walks"
    hybrid: str = "object"
    workers: int = 1
    seed: int | None = None
    sanitize: bool = False
    debug_soa: bool = False
    layout_reuse: bool = True
    tracer: object | None = None
    fault_hook: object | None = None

    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, cli=None, **overrides) -> "RunContext":
        """Build a context through the full precedence chain.

        ``cli`` is an ``argparse`` namespace or dict consulted (by field
        name) between explicit ``overrides`` and the environment; an
        override of ``None`` means "unspecified" and falls through the
        chain.  Unknown override names raise.
        """
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown RunContext field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        values: dict[str, object] = {}
        for kind in TIER_KINDS:
            values[kind] = select_choice(
                kind, cli_value=overrides.get(kind) or _cli_value(cli, kind)
            )
        workers = overrides.get("workers")
        values["workers"] = 1 if workers is None else _check_workers(workers)
        values["seed"] = _resolve_seed(overrides.get("seed"), cli)
        sanitize = _resolve_flag(
            "sanitize", "REPRO_SANITIZE", False, overrides.get("sanitize"), cli
        )
        if overrides.get("sanitize") is None and not sanitize:
            # The module switch is flippable by tests at runtime; honour
            # it like the environment (either arms the checks).
            from repro import sanitize as _sanitize

            sanitize = _sanitize.ENABLED
        values["sanitize"] = sanitize
        debug = overrides.get("debug_soa")
        if debug is None:
            debug = _cli_value(cli, "debug_soa")
        if debug is None:
            # REPRO_SANITIZE implies the SoA column validation.
            debug = env_flag("REPRO_DEBUG_SOA", False) or sanitize
        values["debug_soa"] = bool(debug)
        values["layout_reuse"] = _resolve_flag(
            "layout_reuse",
            "REPRO_SOA_LAYOUT_REUSE",
            True,
            overrides.get("layout_reuse"),
            cli,
        )
        tracer = overrides.get("tracer")
        if tracer is None:
            # Ambient capture()/activate() scope, then REPRO_TRACE.
            from repro.obs import resolve_tracer

            tracer = resolve_tracer(None)
        values["tracer"] = tracer
        values["fault_hook"] = overrides.get("fault_hook")
        return cls(**values)

    def with_overrides(self, **overrides) -> "RunContext":
        """A copy with the non-``None`` overrides applied (validated)."""
        known = {f.name for f in dataclass_fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown RunContext field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        values = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        for name, value in overrides.items():
            if value is None:
                continue
            if name in TIER_KINDS:
                _env, _default, choices = TIER_KINDS[name]
                if value not in choices:
                    raise ValueError(
                        f"{name} must be one of {choices}, got {value!r}"
                    )
            elif name == "workers":
                value = _check_workers(value)
            elif name == "seed":
                value = int(value)
                if value < 0:
                    raise ValueError(f"seed must be >= 0, got {value}")
            elif name in ("sanitize", "debug_soa", "layout_reuse"):
                value = bool(value)
            values[name] = value
        return type(self)(**values)

    # ------------------------------------------------------------------
    def rng(self):
        """A fresh generator for :attr:`seed` (seed discipline: contexts
        carry seeds, never live generator state — two calls return
        identically seeded, independent generators)."""
        if self.seed is None:
            raise ValueError(
                "RunContext.seed is unset; resolve the context with an "
                "explicit seed (or REPRO_SEED) before asking it for a "
                "generator"
            )
        import numpy as np

        return np.random.default_rng(self.seed)

    def as_dict(self) -> dict:
        """JSON-safe snapshot of the resolved configuration — what bench
        artifacts record so every number names the stack that produced
        it.  Live objects (tracer, fault hook) render as presence flags."""
        return {
            "engine": self.engine,
            "rooting": self.rooting,
            "expander": self.expander,
            "hybrid": self.hybrid,
            "workers": self.workers,
            "seed": self.seed,
            "sanitize": self.sanitize,
            "debug_soa": self.debug_soa,
            "layout_reuse": self.layout_reuse,
            "traced": self.tracer is not None,
            "fault_hook": self.fault_hook is not None,
        }


def context_or_default(ctx: RunContext | None) -> RunContext:
    """``ctx``, or the context of a bare library call.

    The bare-call default runs the vectorized engine — the library never
    reads ``REPRO_ENGINE``; only bench CLIs choose engines from the
    environment — and resolves every other field through the chain:
    ``REPRO_SOA_LAYOUT_REUSE``, the sanitizer flags,
    and the tracer of an ambient :func:`repro.obs.capture` session or
    ``REPRO_TRACE``.
    """
    if ctx is None:
        ctx = RunContext.resolve(engine="vectorized")
    return ctx
