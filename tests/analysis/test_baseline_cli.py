"""Baseline round-trip and CLI exit-status contract for repro-lint.

The CI gate is the exit status: 0 when the tree has no violations beyond
the committed baseline, 1 when new ones appear.  These tests drive
``main()`` over temporary trees, including the two acceptance probes
from the issue: reintroducing the PR 6 aliased-write pattern or a bare
``np.random`` draw must fail with the right rule code.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_source,
    load_baseline,
    main,
    partition_new,
    write_baseline,
)

BAD_ENGINE = (
    "import numpy as np\n"
    "\n"
    "def emit(rcv_all):\n"
    "    noise = np.random.rand(3)\n"
    "    alias = rcv_all[:]\n"
    "    alias[0] = 7\n"
    "    return noise\n"
)

CLEAN_ENGINE = (
    "import numpy as np\n"
    "\n"
    "def emit(rcv_all, rng):\n"
    "    fresh = rcv_all.copy()\n"
    "    fresh[0] = int(rng.integers(10))\n"
    "    return fresh\n"
)


def make_tree(tmp_path: Path, source: str) -> Path:
    mod = tmp_path / "src" / "repro" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(source, encoding="utf-8")
    return tmp_path


class TestBaselineRoundTrip:
    def test_write_then_load_accepts_everything(self, tmp_path):
        violations = analyze_source(BAD_ENGINE, rel_path="src/repro/mod.py")
        assert violations
        path = tmp_path / "baseline.json"
        write_baseline(path, violations)
        baseline = load_baseline(path)
        new, accepted = partition_new(violations, baseline)
        assert new == []
        assert sorted(accepted) == sorted(violations)

    def test_extra_violation_is_new(self, tmp_path):
        violations = analyze_source(BAD_ENGINE, rel_path="src/repro/mod.py")
        path = tmp_path / "baseline.json"
        write_baseline(path, violations[:-1])
        new, _ = partition_new(violations, load_baseline(path))
        assert len(new) == 1

    def test_duplicate_fingerprints_counted(self):
        violations = analyze_source(
            "import numpy as np\n"
            "\n"
            "def f():\n"
            "    a = np.random.rand(3)\n"
            "    a = np.random.rand(3)\n",
            rel_path="src/repro/mod.py",
        )
        assert len(violations) == 2
        fp = violations[0].fingerprint()
        assert violations[1].fingerprint() == fp  # same stripped line text
        new, accepted = partition_new(violations, Counter({fp: 1}))
        assert len(new) == 1 and len(accepted) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == Counter()

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_baseline_file_is_deterministic(self, tmp_path):
        violations = analyze_source(BAD_ENGINE, rel_path="src/repro/mod.py")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_baseline(a, violations)
        write_baseline(b, sorted(violations, reverse=True))
        assert a.read_text() == b.read_text()


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLEAN_ENGINE)
        assert main(["--root", str(root)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_reintroduced_patterns_exit_nonzero_with_codes(self, tmp_path, capsys):
        # The issue's acceptance probe: bare np.random + the PR 6
        # aliased-write pattern must fail the gate with RL101 and RL302.
        root = make_tree(tmp_path, BAD_ENGINE)
        assert main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RL101" in out and "RL302" in out

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        root = make_tree(tmp_path, BAD_ENGINE)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        assert main(["--root", str(root)]) == 0
        # A *new* hit on top of the baselined ones still fails.
        mod = root / "src" / "repro" / "mod.py"
        mod.write_text(BAD_ENGINE + "\nimport random\n", encoding="utf-8")
        assert main(["--root", str(root)]) == 1
        assert "RL102" in capsys.readouterr().out

    def test_no_baseline_flag_ignores_baseline(self, tmp_path, capsys):
        root = make_tree(tmp_path, BAD_ENGINE)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        assert main(["--root", str(root), "--no-baseline"]) == 1
        capsys.readouterr()

    def test_json_report_schema(self, tmp_path, capsys):
        root = make_tree(tmp_path, BAD_ENGINE)
        assert main(["--root", str(root), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-lint/v1"
        assert report["counts"]["new"] == report["counts"]["total"] >= 2
        assert {"RL101", "RL302"} <= set(report["counts"]["by_code"])
        assert all({"path", "line", "code", "message"} <= set(v) for v in report["violations"])

    def test_json_output_file(self, tmp_path, capsys):
        root = make_tree(tmp_path, BAD_ENGINE)
        out = tmp_path / "report.json"
        main(["--root", str(root), "--format", "json", "--output", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["schema"] == "repro-lint/v1"

    def test_select_filters_rules(self, tmp_path, capsys):
        root = make_tree(tmp_path, BAD_ENGINE)
        assert main(["--root", str(root), "--select", "RL302"]) == 1
        out = capsys.readouterr().out
        assert "RL302" in out and "RL101" not in out

    def test_unknown_select_code_is_usage_error(self, tmp_path):
        root = make_tree(tmp_path, CLEAN_ENGINE)
        with pytest.raises(SystemExit) as exc:
            main(["--root", str(root), "--select", "RL999"])
        assert exc.value.code == 2

    def test_syntax_error_fails_gate(self, tmp_path, capsys):
        root = make_tree(tmp_path, "def f(:\n")
        assert main(["--root", str(root)]) == 1
        assert "RL000" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL101", "RL201", "RL301", "RL501", "RL601"):
            assert code in out


class TestRepoTreeIsClean:
    def test_committed_baseline_gates_the_repo(self):
        # The real tree against the real committed baseline: exit 0.
        repo_root = Path(__file__).resolve().parents[2]
        assert main(["--root", str(repo_root)]) == 0
