"""Smoke test of the end-to-end benchmark at tiny sizes (seconds).

Runs every workload through ``run.py --smoke`` in both arms, checks the
result shape and that traced and untraced fingerprints agree, then slows
``build_well_formed_from_tree`` in-process and checks that ``compare.py``
names ``core.wellform`` as the layer that moved.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e")
    # Both arms at once: the smoke timings are not checked, only outputs.
    procs = {
        trace: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
             "--trace", str(trace), "--out", str(out / f"trace{trace}.json")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        for trace in (0, 1)
    }
    stdouts = {trace: proc.communicate(timeout=120)[0] for trace, proc in procs.items()}
    results = {}
    for trace, proc in procs.items():
        assert proc.returncode == 0
        last = json.loads(stdouts[trace].strip().splitlines()[-1])
        results[trace] = (last, json.loads((out / f"trace{trace}.json").read_text()))
    return results


@pytest.mark.parametrize("trace", [0, 1])
def test_result_shape(smoke_results, trace):
    last, payload = smoke_results[trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {f"{name}/{m['name']}": m["unit"] for name in NAMES for m in section}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())
    assert set(payload["workloads"]) == set(NAMES)
    assert payload["meta"]["nproc"] >= 1


def test_traced_fingerprints_match_untraced(smoke_results):
    untraced = smoke_results[0][1]["workloads"]
    traced = smoke_results[1][1]["workloads"]
    for name in NAMES:
        assert traced[name]["fingerprint"] == untraced[name]["fingerprint"], name
        assert traced[name]["metrics"]["obs.unattributed_pct"]["value"] < 10.0


def test_slowed_phase_is_named(monkeypatch):
    import measure
    import repro.core.euler as euler

    def traced_report():
        report = measure.measure("thm11-cycle-4k", seconds=0, traced=True, smoke=True)
        assert report["correct"]
        return {"meta": {}, "workloads": {report["workload"]: report}}

    base = traced_report()
    original = euler.build_well_formed_from_tree

    def slowed(tree):
        time.sleep(0.05)
        return original(tree)

    monkeypatch.setattr(euler, "build_well_formed_from_tree", slowed)
    slow = traced_report()
    result = compare.compare([base], [slow], SPEC, out=sys.stderr)
    assert result["moved_most"]["layer"] == "core.wellform"
    assert result["moved_most"]["delta_s"] > 0.04
