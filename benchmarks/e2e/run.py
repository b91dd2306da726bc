"""End-to-end overlay-construction benchmark: one command for every metric.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace 0|1] [--smoke] [--out PATH]

Each workload runs in its own fresh process (``measure.py``) with one
BLAS/OpenMP thread and no ``REPRO_*`` variables, so the only configuration
is the :class:`~repro.runtime.RunContext` each workload pins.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (for several workloads, metric
names are prefixed ``<workload>/``).  ``--out`` also writes the full
reports (samples, fingerprints, layer breakdown, machine) for
``compare.py``; with ``--trace 1`` each workload's last traced run is
written beside it as a trace/v1 artifact for ``python -m repro.obs``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A workload process must finish well inside the three-minute budget.
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_workload(name: str, args, trace_out: str | None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--out", default=None, help="write the full reports here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    reports = {}
    for name in args.workload:
        trace_out = None
        if args.out is not None and args.trace:
            trace_out = str(Path(args.out).with_suffix(f".{name}.trace.jsonl"))
        try:
            report = run_workload(name, args, trace_out)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        reports[name] = report
        for metric, m in report["metrics"].items():
            print(f"{name:18s} {metric:36s} {m['value']:>16.6g} {m['unit']}")
        status = "ok" if report["correct"] else f"{report['failed']} FAILED"
        print(f"{name:18s} {'runs':36s} {report['attempted']:>16d} ({status})")

    if args.out is not None:
        payload = {
            "schema": "repro-e2e/v1",
            "meta": {
                "git_sha": git_sha(),
                "nproc": os.cpu_count(),
                "numpy": next(iter(reports.values()))["numpy"],
                "python": platform.python_version(),
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
            },
            "workloads": reports,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")

    single = len(reports) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (metric if single else f"{name}/{metric}"): value
            for name, r in reports.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
