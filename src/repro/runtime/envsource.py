"""The one module allowed to read ``REPRO_*`` environment variables.

Every configuration knob of the execution stack flows through the
:class:`~repro.runtime.context.RunContext` precedence chain (explicit
kwarg > CLI > environment > default — contract C8 in
``docs/contracts.md``).  The *environment* step of that chain lives
here, and **only** here: repro-lint rule ``RL601`` forbids raw
``os.environ`` / ``os.getenv`` access to a ``REPRO_*`` key anywhere
outside ``src/repro/runtime/``, so config reads cannot re-scatter into
per-module sniffing (the pre-RunContext state of the codebase).

The helpers normalise exactly the conventions the scattered readers had
individually converged on:

- empty and whitespace-only values count as *unset* (``read_env``
  returns ``None``), so ``REPRO_ENGINE= python ...`` behaves like not
  setting the variable at all;
- flags follow the ``REPRO_SANITIZE`` convention: any value other than
  ``"0"`` (or unset) is true for default-false flags, and ``"0"`` is
  the only way to switch a default-true flag off
  (``REPRO_SOA_LAYOUT_REUSE=0``, which turns the SoA layout cache off);
- integers fail loudly with the variable name and the offending value,
  never silently fall back.
"""

from __future__ import annotations

import os

__all__ = ["ENV_PREFIX", "env_flag", "env_int", "read_env"]

#: Every engine configuration variable shares this prefix; ``read_env``
#: rejects anything else so the RL601 boundary stays meaningful.
ENV_PREFIX = "REPRO_"


def read_env(name: str) -> str | None:
    """The raw value of one ``REPRO_*`` variable, or ``None`` when unset.

    Empty and whitespace-only values are normalised to ``None`` (unset);
    surrounding whitespace is stripped.
    """
    if not name.startswith(ENV_PREFIX):
        raise ValueError(
            f"read_env only serves {ENV_PREFIX}* configuration variables, "
            f"got {name!r}"
        )
    raw = os.environ.get(name)
    if raw is None:
        return None
    raw = raw.strip()
    return raw if raw else None


def env_flag(name: str, default: bool = False) -> bool:
    """A boolean ``REPRO_*`` switch: unset → ``default``, ``"0"`` →
    ``False``, anything else → ``True`` (the ``REPRO_SANITIZE=1``
    convention)."""
    raw = read_env(name)
    if raw is None:
        return default
    return raw != "0"


def env_int(name: str) -> int | None:
    """An integer ``REPRO_*`` value, or ``None`` when unset; raises a
    :class:`ValueError` naming the variable on garbage."""
    raw = read_env(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
