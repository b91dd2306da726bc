"""Determinism-hazard rules (RL2xx): iteration order and wall clock.

Message emission and edge construction must be derived from canonically
ordered data: the SoA contract is *ascending-sender* emission, and the
object tier enumerates traffic in node-insertion order.  Iterating a
``set`` feeds hash-table order into that pipeline — order that CPython
happens to make reproducible for small dense ints, and silently stops
guaranteeing the moment ids become gappy or large (exactly how the
baselines' "works on the ring" code rots).  Wall-clock reads inside
engine paths leak real time into supposedly seed-determined executions.

Dict iteration is deliberately *not* flagged: CPython dicts iterate in
insertion order, which the engine's canonical-order conventions already
pin (docs/contracts.md records this decision).
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import attr_chain, call_name
from repro.analysis.rules import Rule, register

__all__ = ["SetIterationOrder", "WallClock"]

#: Calls producing a list of sets whose elements get iterated via
#: subscript (``adj = adjacency_sets(g)`` ... ``for u in adj[v]``) — the
#: idiom every baseline uses for neighbourhoods.
_SET_LIST_PRODUCERS = {"adjacency_sets"}

_SET_PRODUCERS = {"set", "frozenset"}


def _producer_tag(value: ast.AST) -> str | None:
    """Classify an assigned expression: ``"set"``, ``"setlist"``, or None."""
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        chain = call_name(value)
        if chain is None:
            return None
        base = chain.split(".")[-1]
        if base in _SET_PRODUCERS:
            return "set"
        if base in _SET_LIST_PRODUCERS:
            return "setlist"
    return None


@register
class SetIterationOrder(Rule):
    code = "RL201"
    name = "set-iteration-order"
    description = (
        "iteration over a set (hash order) where emission/edge code "
        "needs canonical order"
    )
    contract = (
        "Message emission and edge construction never depend on set "
        "iteration order; iterate sorted(...) or a canonical array."
    )

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        # (scope node id or None for module) -> name -> tag
        self._bindings: dict[int | None, dict[str, str]] = {None: {}}

    # -- binding tracking ----------------------------------------------
    def _scope_key(self) -> int | None:
        fn = self.ctx.current_function()
        return id(fn) if fn is not None else None

    def _bind(self, name: str, tag: str | None) -> None:
        scope = self._bindings.setdefault(self._scope_key(), {})
        if tag is None:
            scope.pop(name, None)
        else:
            scope[name] = tag

    def _lookup(self, name: str) -> str | None:
        tag = self._bindings.get(self._scope_key(), {}).get(name)
        if tag is None and self._scope_key() is not None:
            tag = self._bindings[None].get(name)
        return tag

    def exit_function(self, node: ast.AST) -> None:
        self._bindings.pop(id(node), None)

    def visit_Assign(self, node: ast.Assign) -> None:
        tag = _producer_tag(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, tag)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            self._bind(node.target.id, _producer_tag(node.value))

    # -- iteration checks ----------------------------------------------
    def _describe_set_iter(self, iter_node: ast.AST) -> str | None:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(iter_node, ast.Call):
            chain = call_name(iter_node)
            if chain is not None and chain.split(".")[-1] in _SET_PRODUCERS:
                return f"{chain}(...)"
            return None
        if isinstance(iter_node, ast.Name):
            if self._lookup(iter_node.id) == "set":
                return f"set '{iter_node.id}'"
            return None
        if isinstance(iter_node, ast.Subscript):
            base = iter_node.value
            if isinstance(base, ast.Name) and self._lookup(base.id) == "setlist":
                return f"adjacency set '{base.id}[...]'"
        return None

    def _check(self, iter_node: ast.AST) -> None:
        if self.ctx.kind == "tests":
            # Tests iterate sets for order-insensitive assertions; the
            # emission/edge contract concerns shipped code.
            return
        described = self._describe_set_iter(iter_node)
        if described is not None:
            self.report(
                iter_node,
                f"iteration over {described} is hash-order-dependent; "
                "iterate sorted(...) (or compare full canonical keys) so "
                "emission/edge construction stays order-independent",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check(node.iter)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check(node.iter)


_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


@register
class WallClock(Rule):
    code = "RL202"
    name = "wall-clock"
    description = "wall-clock read inside an engine path"
    contract = (
        "Engine paths (src/repro) never read real time; rounds and clocks "
        "are logical.  Benchmarks/tests/examples measure freely."
    )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.ctx.kind != "engine":
            return
        chain = attr_chain(node)
        if chain in _WALL_CLOCK:
            self.report(
                node,
                f"wall-clock read '{chain}' in an engine path; simulated "
                "executions must be fully seed-determined (timing belongs "
                "in benchmarks, or suppress where measurement is the point)",
            )
