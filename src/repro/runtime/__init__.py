"""The execution-configuration layer of the stack.

- :mod:`repro.runtime.context` — :class:`RunContext`, the one frozen
  execution-config object (contract C8), built through the
  kwarg > CLI > env > default precedence chain; ``context_or_default``,
  the bare-call default every ``ctx=None`` entry point resolves; the
  authoritative tier vocabularies with the shared ``validate_tier``
  check; and the single-field resolvers the bench CLIs use.
- :mod:`repro.runtime.envsource` — the only module allowed to read
  ``REPRO_*`` environment variables (repro-lint ``RL601``).

This package is a *leaf*: it imports nothing from the engine layers at
module import time, so :mod:`repro.net`, :mod:`repro.core`,
:mod:`repro.hybrid`, and :mod:`repro.scenarios` can all import their
choice tuples and resolvers from here without cycles.
"""

from repro.runtime.context import (
    ENGINES,
    EXPANDER_MODES,
    HYBRID_TIERS,
    ROOTING_MODES,
    ROOTING_TIERS,
    TIER_CHOICES,
    TIER_KINDS,
    WORKERS_ENV,
    RunContext,
    choice_specified,
    context_or_default,
    resolve_workers,
    select_choice,
    validate_tier,
    workers_specified,
)
from repro.runtime.envsource import ENV_PREFIX, env_flag, env_int, read_env

__all__ = [
    "ENGINES",
    "ENV_PREFIX",
    "EXPANDER_MODES",
    "HYBRID_TIERS",
    "ROOTING_MODES",
    "ROOTING_TIERS",
    "TIER_CHOICES",
    "TIER_KINDS",
    "WORKERS_ENV",
    "RunContext",
    "choice_specified",
    "context_or_default",
    "env_flag",
    "env_int",
    "read_env",
    "resolve_workers",
    "select_choice",
    "validate_tier",
    "workers_specified",
]
