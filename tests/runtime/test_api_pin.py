"""One spelling for execution config (contract C8), pinned on the API.

Execution config enters the library only as ``ctx=`` (a
:class:`~repro.runtime.context.RunContext`).  This walk over the whole
``repro`` package fails if a public function, method or ``__init__``
grows a parameter that duplicates a context field again — outside the
packages that *implement* the config: :mod:`repro.runtime` (the
resolvers), :mod:`repro.obs` (tracer resolution) and
:mod:`repro.net.shard` (the worker pool).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro

#: Parameter names that duplicate a RunContext field.
CONTEXT_FIELDS = {
    "engine",
    "workers",
    "tracer",
    "fault_hook",
    "layout_reuse",
    "sanitize",
    "debug_soa",
}

EXEMPT = ("repro.runtime", "repro.obs", "repro.net.shard")


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        name = info.name
        if name.endswith(".__main__") or name.startswith(EXEMPT):
            continue
        yield importlib.import_module(name)


def _public_callables(module):
    """``(qualified name, callable)`` for the functions, and the public
    methods and ``__init__`` of the classes, defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_walk_sees_the_entry_points():
    names = {qual for module in _modules() for qual, _ in _public_callables(module)}
    for entry in (
        "repro.net.network.SyncNetwork.__init__",
        "repro.core.soa_rooting.run_soa_rooting",
        "repro.scenarios.runner.ScenarioRunner.__init__",
        "repro.hybrid.components.connected_components_hybrid",
    ):
        assert entry in names


def test_no_public_parameter_duplicates_a_context_field():
    offenders = [
        f"{qual}({param})"
        for module in _modules()
        for qual, fn in _public_callables(module)
        for param in inspect.signature(fn).parameters
        if param in CONTEXT_FIELDS
    ]
    assert offenders == [], (
        "execution config enters through ctx= only; these parameters "
        f"duplicate RunContext fields: {offenders}"
    )
