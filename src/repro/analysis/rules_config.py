"""Configuration-discipline rules (RL6xx): one env source, one context.

Contract C8 (``docs/contracts.md``): every execution knob resolves
through :class:`repro.runtime.context.RunContext` along one precedence
chain (explicit kwarg > CLI > ``REPRO_*`` environment > default), and the
environment step of that chain lives in :mod:`repro.runtime.envsource`
and nowhere else.  A raw ``os.environ["REPRO_*"]`` read scattered in an
engine module re-creates the pre-context world: two call sites can
resolve the same knob differently, and a knob can change mid-run behind
a frozen context's back.  Writes are worse — mutating ``REPRO_*`` so
downstream code re-sniffs it (the old bench idiom) bypasses the chain
entirely; thread a context instead.

- **RL601** — raw ``REPRO_*`` environment access outside
  ``src/repro/runtime/``: any ``os.environ[...]`` / ``os.environ.get``
  / ``os.getenv`` (and the write/delete forms) whose key is a
  ``REPRO_``-prefixed string literal, or a name following the repo's
  ``*_ENV`` constant convention (``TRACE_ENV``, ...).
  Tests stay in scope: the sanctioned spelling there is
  ``monkeypatch.setenv``/``delenv``, which restores state and never
  reads.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import attr_chain, call_name
from repro.analysis.rules import Rule, register

__all__ = ["RawReproEnvAccess"]

#: The one package allowed to touch the process environment for REPRO_*
#: knobs (contract C8's environment step).
_RUNTIME_PREFIX = "src/repro/runtime/"

#: ``os.environ`` method names that take the variable name first.
_ENVIRON_METHODS = ("get", "pop", "setdefault", "__getitem__", "__contains__")

#: ``os``-level functions that take the variable name first.
_OS_FUNCS = ("getenv", "putenv", "unsetenv")


def _is_repro_key(node: ast.AST) -> bool:
    """Does this expression name a ``REPRO_*`` environment variable?

    String literals are matched by prefix; plain names are matched by the
    repo convention that env-var constants end in ``_ENV`` (they all hold
    ``REPRO_*`` names — :data:`repro.obs.tracer.TRACE_ENV`, ...).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("REPRO_")
    if isinstance(node, ast.Name):
        return node.id.endswith("_ENV")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("_ENV")
    return False


@register
class RawReproEnvAccess(Rule):
    code = "RL601"
    name = "raw-repro-env-access"
    description = "raw REPRO_* environment access outside repro.runtime"
    contract = (
        "Every REPRO_* knob resolves through the RunContext precedence "
        "chain; the environment is read only in repro.runtime.envsource, "
        "so a knob has exactly one resolution and cannot change behind a "
        "frozen context's back."
    )

    def _exempt(self) -> bool:
        return self.ctx.rel_path.startswith(_RUNTIME_PREFIX)

    def _flag(self, node: ast.AST, spelling: str) -> None:
        self.report(
            node,
            f"raw REPRO_* environment access '{spelling}': resolve the "
            "knob through repro.runtime (RunContext.resolve / envsource) "
            "instead of reading or mutating os.environ directly",
        )

    # ``os.environ["REPRO_X"]`` in any expression/assign/delete context.
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._exempt():
            return
        if attr_chain(node.value) in ("os.environ", "environ") and _is_repro_key(
            node.slice
        ):
            self._flag(node, "os.environ[...]")

    # ``os.environ.get("REPRO_X")`` / ``os.getenv("REPRO_X")`` and friends.
    def visit_Call(self, node: ast.Call) -> None:
        if self._exempt() or not node.args:
            return
        chain = call_name(node)
        if chain is None:
            return
        if chain in tuple(f"os.environ.{m}" for m in _ENVIRON_METHODS) or chain in (
            tuple(f"os.{f}" for f in _OS_FUNCS) + tuple(f"environ.{m}" for m in _ENVIRON_METHODS)
        ):
            if _is_repro_key(node.args[0]):
                self._flag(node, chain)

    # ``"REPRO_X" in os.environ`` membership probes.
    def visit_Compare(self, node: ast.Compare) -> None:
        if self._exempt():
            return
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            if attr_chain(comparator) in ("os.environ", "environ") and _is_repro_key(
                node.left
            ):
                self._flag(node, "... in os.environ")
