"""Measure one workload of the end-to-end benchmark in this process.

``run.py`` spawns this script once per workload, in a fresh process with
one BLAS/OpenMP thread; it prints the full report as one JSON line::

    python benchmarks/e2e/measure.py --workload NAME [--seed S]
        [--seconds T] [--trace 0|1] [--smoke] [--trace-out PATH]

Protocol: build the inputs, run one untimed warm-up (the reference
outcome, the structural checks, the pinned fingerprints for the default
seed, and the message counts), then a closed loop with one caller for at
least ``--seconds`` and at least :data:`MIN_RUNS` runs.  Each iteration
times one call and one rebuild of the inputs (``setup_s`` is the median
rebuild).  ``--trace 0`` times the untraced entry point; ``--trace 1``
also runs a traced per-layer run in every iteration.
Every run's outcome must equal the reference; each mismatch or exception
is printed and counted as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.obs import capture, write_trace  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
#: Fewest timed (or traced) runs behind a median, whatever ``--seconds``.
MIN_RUNS = 3


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def expected_fingerprints() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


class HostReference:
    """A fixed numpy-and-interpreter kernel, timed beside every measurement.

    On a shared machine the host's speed drifts by tens of percent over
    minutes, far more than a regression bound.  Every reported time is
    therefore scaled by ``NOMINAL_S / (this kernel's time next to it)``:
    seconds on a host where the kernel takes exactly ``NOMINAL_S``.  The
    kernel mirrors the engine's hot operations (stable argsort, gather,
    bincount, cumsum, a Python loop) and must never change, or results
    stop being comparable.
    """

    NOMINAL_S = 0.1
    SIZE = 1 << 18

    def __init__(self) -> None:
        rng = np.random.default_rng(20211)
        self.keys = rng.integers(0, self.SIZE, size=self.SIZE)
        self.values = rng.integers(0, self.SIZE, size=self.SIZE)
        self.samples: list[float] = []

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            gathered = self.values[np.argsort(self.keys, kind="stable")]
            np.bincount(self.keys, minlength=self.SIZE)
            np.cumsum(gathered)
        total = 0
        for i in range(100_000):
            total += i
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / ((before + after) / 2)


class RunLog:
    """Attempted / failed run counts; every failure is printed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, fn):
        """Call ``fn`` as one attempted run; ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(["raised " + traceback.format_exc(limit=0).strip()])
            return None

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"[{self.name}] FAILED: {problem}", file=sys.stderr)
        self.problems.extend(problems)


def _mismatch(what: str, got, want) -> list[str]:
    if got.key() == want.key():
        return []
    return [f"{what}: {got.fingerprint} rounds={got.rounds} != "
            f"{want.fingerprint} rounds={want.rounds}"]


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    traced: bool = False,
    smoke: bool = False,
    trace_out: str | None = None,
) -> dict:
    """Run the protocol for one workload; returns the full report."""
    workload = WORKLOADS[name]
    n = workload.smoke_n if smoke else workload.n
    log = RunLog(name)

    host = HostReference()
    inputs = workload.build(n, seed)
    ctx = workload.context(seed)

    # Warm-up: the reference outcome, checked structurally, against the
    # pinned fingerprints (default seed, full size) and across worker
    # counts; the engine's NetworkMetrics give the message counts.
    with layers.recorded_networks() as networks:
        result = log.run(lambda: workload.call(inputs, ctx))
        if result is None:
            raise RuntimeError(f"{name}: the warm-up run failed")
        ref = workload.outcome(inputs, result)
        messages, load = layers.network_counts(networks)
        problems = workload.validate(inputs, result)
        del result
    gc.collect()
    if seed == DEFAULT_SEED and not smoke:
        pinned = expected_fingerprints()[name]
        if ref.fingerprint != pinned:
            problems.append(f"fingerprint {ref.fingerprint} != pinned {pinned}")
    if problems:
        log.fail(problems)
    if workload.workers > 1:
        serial = log.run(lambda: workload.call(inputs, ctx.with_overrides(workers=1)))
        if serial is not None:
            mismatch = _mismatch("workers=1 run", workload.outcome(inputs, serial), ref)
            if mismatch:
                log.fail(mismatch)
        del serial
        gc.collect()

    walls: list[float] = []
    scaled_walls: list[float] = []
    setup: list[float] = []
    scaled_setup: list[float] = []
    traces: list[dict] = []
    done = traces if traced else walls
    host_before = host.seconds()
    loop_start = time.perf_counter()
    while (
        len(done) < MIN_RUNS and log.failed < MIN_RUNS
    ) or time.perf_counter() - loop_start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        result = log.run(lambda: workload.call(inputs, ctx))
        wall = time.perf_counter() - t0
        host_after = host.seconds()
        if result is not None:
            mismatch = _mismatch("repeat run", workload.outcome(inputs, result), ref)
            del result
            if mismatch:
                log.fail(mismatch)
            else:
                walls.append(wall)
                scaled_walls.append(wall * host.scale(host_before, host_after))
        # One input build per iteration spreads the set-up samples over the
        # whole run, where one slow phase of the host cannot dominate them.
        t0 = time.perf_counter()
        workload.build(n, seed)
        workload.context(seed)
        setup.append(time.perf_counter() - t0)
        host_before = host.seconds()
        scaled_setup.append(setup[-1] * host.scale(host_after, host_before))
        if traced:
            gc.collect()
            run = log.run(lambda: _traced_run(workload, inputs, ctx))
            host_after = host.seconds()
            if run is not None:
                last_tracer, spans, timers, traced_wall, outcome = run
                mismatch = _mismatch("traced run", outcome, ref)
                if mismatch:
                    log.fail(mismatch)
                else:
                    scale = host.scale(host_before, host_after)
                    traces.append(
                        layers.breakdown(last_tracer, spans, timers, traced_wall, scale)
                    )
                    traces[-1]["counts"] = outcome.counts
            host_before = host_after
    if not done:
        raise RuntimeError(f"{name}: no run passed its checks")
    if traced and trace_out is not None:
        write_trace(trace_out, last_tracer)
    # Closes (and joins the workers of) any shard pool still referenced
    # only from a cycle, so RUSAGE_CHILDREN below covers them.
    gc.collect()

    values = {
        "setup_s": statistics.median(scaled_setup),
        "wall_s": statistics.median(scaled_walls),
        "peak_rss_mb": _peak_rss_mib(),
        "rounds": float(ref.rounds),
        "messages": float(messages),
        "max_node_load": float(ref.max_node_load if ref.max_node_load is not None else load),
    }
    values["node_rounds_per_s"] = n * values["rounds"] / values["wall_s"]
    report = {
        "workload": name,
        "arm": "traced" if traced else "untraced",
        "n": n,
        "seed": seed,
        "smoke": smoke,
        "fingerprint": ref.fingerprint,
        "raw_seconds": {"setup": setup, "wall": walls, "host_reference": host.samples},
        "context": ctx.as_dict(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    spec = benchmark_spec()
    if traced:
        values.update(_per_layer(traces, scaled_walls, values["setup_s"]))
        report["round_ms_tail_percentile"] = layers.tail_percentile(
            sum(len(t["round_ms"]) for t in traces)
        )
        report["layers"] = {
            layer: {
                key: statistics.median(t[key][layer] for t in traces)
                for key in ("self_s", "span_s")
            }
            for layer in layers.SELF_LAYERS
        }
        section = spec["per_layer"]
    else:
        section = spec["end_to_end"]
    report.update(
        correct=log.failed == 0,
        attempted=log.attempted,
        failed=log.failed,
        problems=log.problems,
        metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    )
    return report


def _traced_run(workload, inputs, ctx) -> tuple:
    """One traced per-layer run: ``(tracer, spans, timers, wall, outcome)``."""
    with layers.CallTimers() as timers, capture(
        None, meta={"bench": "e2e", "workload": workload.name}
    ) as tracer:
        spans = layers.LayerSpans(tracer)
        start = time.perf_counter()
        outcome = workload.layers(inputs, ctx.with_overrides(tracer=tracer), spans.layer)
        wall = time.perf_counter() - start
    return tracer, spans, timers, wall, outcome


def _per_layer(traces: list[dict], walls: list[float], setup_s: float) -> dict:
    """Medians over the traced runs; round percentiles over all their
    rounds pooled."""
    out = {
        key: statistics.median(t["metrics"][key] for t in traces)
        for key in traces[0]["metrics"]
    }
    for key in layers.COUNT_METRICS:
        out[key] = float(statistics.median(t["counts"].get(key, 0) for t in traces))
    pooled = np.concatenate([t["round_ms"] for t in traces])
    out["net.round_ms.p50"] = float(np.quantile(pooled, 0.5))
    out["net.round_ms.tail"] = float(
        np.quantile(pooled, layers.tail_percentile(pooled.shape[0]))
    )
    out["graphs.input_s"] = setup_s
    traced_wall = statistics.median(t["metrics"]["obs.traced_wall_s"] for t in traces)
    out["obs.trace_overhead_pct"] = 100.0 * (traced_wall / statistics.median(walls) - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a finite number >= 0")
    report = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
        trace_out=args.trace_out,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
