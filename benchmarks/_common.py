"""Shared helpers for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one experiment, named in its module
docstring (the paper has no measurement tables, so the reproduction
targets are the theorem statements; see ``docs/deviations.md``).  Conventions:

- every bench prints a paper-style table (via
  :class:`repro.experiments.harness.Table`) with the measured rows;
- the *shape* assertions (who wins, what scales how) are hard asserts —
  a bench failing means the reproduction claim broke;
- ``benchmark.pedantic(fn, rounds=1, iterations=1)`` wraps the experiment
  so pytest-benchmark records wall-clock without re-running heavy sweeps.
"""

from __future__ import annotations

import json

import numpy as np

#: Version tag of the machine-readable bench artifact layout.  Every
#: ``BENCH_S*.json`` produced by ``--json`` carries this under
#: ``"schema"`` so consumers (CI artifact readers, dashboards)
#: can hard-fail on layout drift instead of mis-parsing.
BENCH_SCHEMA = "repro-bench/v1"


def bench_payload(
    bench: str,
    config: dict,
    rows: list[dict],
    checks: dict | None = None,
    extra: dict | None = None,
    ctx=None,
) -> dict:
    """Assemble one bench result in the stable ``repro-bench/v1`` shape.

    ``bench`` names the experiment (``"s3_soa_scaling"``), ``config``
    captures everything that selected the run (sizes, filters, smoke
    flag), ``rows`` is the flat list of measured rows
    (plain scalars only — one dict per table row), and ``checks`` holds
    the hard-assert outcomes (speedup ratios, equality SHAs) so a JSON
    consumer sees what was *verified*, not just what was measured.
    ``extra`` merges additional top-level sections (e.g. a nested grid
    payload) without loosening the core shape.

    ``ctx`` (a resolved :class:`repro.runtime.context.RunContext`, or
    ``None`` to resolve one from the environment here) lands under
    ``"run_context"`` — the full resolved execution configuration
    (contract C8), so every artifact names the exact stack that produced
    it even when the bench only plumbed a subset of the knobs.
    """
    from repro.runtime import RunContext

    if ctx is None:
        ctx = RunContext.resolve()
    payload = {
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "config": config,
        "rows": rows,
        "checks": checks or {},
        "run_context": ctx.as_dict(),
    }
    if extra:
        for key in extra:
            if key in payload:
                raise ValueError(f"extra section {key!r} collides with a core field")
        payload.update(extra)
    return payload


def write_bench_json(path: str, payload: dict) -> None:
    """Write a bench payload deterministically (sorted keys, newline)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


#: Disabled-tracer regression bar (docs/observability.md): after a
#: ``capture()`` session exits, an untraced run must stay within this
#: fraction of a run that never saw a tracer, plus an absolute slack for
#: timer noise on small shapes.
DISABLED_OVERHEAD_LIMIT = 0.03
DISABLED_OVERHEAD_SLACK_S = 0.05


def add_trace_argument(parser) -> None:
    """Standard ``--trace PATH`` flag for the benches that support the
    ISSUE 9 trace satellite: capture a ``trace/v1`` round trace
    (:mod:`repro.obs`) of an extra traced-vs-untraced invariance run and
    record the overhead percentages in the JSON ``checks``."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "capture a trace/v1 round trace (repro.obs) of a "
            "traced-vs-untraced invariance run to PATH and record the "
            "trace overhead in the JSON checks"
        ),
    )


def overhead_pct(base_seconds: float, other_seconds: float) -> float:
    """Relative wall-clock overhead of ``other`` over ``base``, percent."""
    if base_seconds <= 0:
        return 0.0
    return (other_seconds - base_seconds) / base_seconds * 100.0


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
