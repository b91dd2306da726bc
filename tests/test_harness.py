"""Experiment harness tests (tables, scaling fits, tier selection)."""

import numpy as np
import pytest

from repro.experiments.harness import (
    ENGINE_CHOICES,
    Table,
    fit_vs_logn,
    geometric_sizes,
    loglog_slope,
    select_tier,
    tier_filter,
)
from repro.runtime import TIER_CHOICES


class TestSelectTier:
    """One resolver for every benchmark-selectable stack dimension."""

    def test_kind_defaults(self, monkeypatch):
        for var in ("REPRO_ENGINE", "REPRO_ROOTING", "REPRO_EXPANDER"):
            monkeypatch.delenv(var, raising=False)
        assert select_tier("engine") == "vectorized"
        assert select_tier("rooting") == "reference"
        assert select_tier("expander") == "walks"

    def test_cli_beats_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROOTING", "protocol")
        assert select_tier("rooting") == "protocol"
        assert select_tier("rooting", "soa") == "soa"
        assert select_tier("rooting", default="soa") == "protocol"

    def test_env_vars_are_per_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPANDER", "soa")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert select_tier("expander") == "soa"
        assert select_tier("engine") == "vectorized"

    def test_typos_fail_loudly(self, monkeypatch):
        with pytest.raises(ValueError, match="kind"):
            select_tier("warp-drive")
        with pytest.raises(ValueError, match="engine must be one of"):
            select_tier("engine", "hyperdrive")
        monkeypatch.setenv("REPRO_ROOTING", "nope")
        with pytest.raises(ValueError, match="rooting must be one of"):
            select_tier("rooting")

    def test_choices_restriction(self):
        with pytest.raises(ValueError):
            select_tier("engine", "soa", choices=ENGINE_CHOICES)
        assert select_tier("engine", "soa", choices=TIER_CHOICES) == "soa"

    def test_filter_is_none_when_nothing_chosen(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert tier_filter("engine") is None
        assert tier_filter("engine", "legacy") == "legacy"
        monkeypatch.setenv("REPRO_ENGINE", "soa")
        assert tier_filter("engine") == "soa"

    def test_engine_choices_are_the_delivery_engines(self):
        assert set(ENGINE_CHOICES) == {"legacy", "vectorized"}


class TestTable:
    def test_add_and_render(self):
        t = Table("demo", ["n", "rounds", "ok"])
        t.add(64, 31.5, True)
        t.add(128, 36.0, False)
        out = t.render()
        assert "demo" in out
        assert "64" in out and "yes" in out and "no" in out

    def test_wrong_arity_rejected(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_float_formatting(self):
        t = Table("demo", ["x"])
        t.add(0.123456789)
        assert "0.1235" in t.render()


class TestFits:
    def test_fit_recovers_logarithmic_law(self):
        ns = [64, 128, 256, 512, 1024]
        ys = [5 + 3 * np.log2(n) for n in ns]
        a, b, r2 = fit_vs_logn(ns, ys)
        assert a == pytest.approx(5, abs=1e-9)
        assert b == pytest.approx(3, abs=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_vs_logn([64], [1.0])

    def test_loglog_slope_power_law(self):
        xs = [10, 100, 1000]
        ys = [2 * x**1.5 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(1.5, abs=1e-9)

    def test_loglog_requires_positive(self):
        with pytest.raises(ValueError):
            loglog_slope([1, 2], [0, 1])


class TestSizes:
    def test_geometric(self):
        assert geometric_sizes(16, 128) == [16, 32, 64, 128]

    def test_non_integer_factor(self):
        sizes = geometric_sizes(10, 30, factor=1.5)
        assert sizes == [10, 15, 22, 34][:3] or sizes == [10, 15, 23]

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_sizes(10, 5)
        with pytest.raises(ValueError):
            geometric_sizes(1, 10, factor=1.0)


class TestEnvPlumbingMatrix:
    """ISSUE 5 satellite: every stack dimension's env variable fails
    loudly on invalid values (message lists the valid choices) and loses
    to an explicit CLI value."""

    KINDS = {
        "engine": ("REPRO_ENGINE", "vectorized"),
        "rooting": ("REPRO_ROOTING", "reference"),
        "expander": ("REPRO_EXPANDER", "walks"),
        "hybrid": ("REPRO_HYBRID", "object"),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_invalid_env_value_lists_choices(self, kind, monkeypatch):
        env_var, _default = self.KINDS[kind]
        monkeypatch.setenv(env_var, "warp-drive")
        with pytest.raises(ValueError) as excinfo:
            select_tier(kind)
        message = str(excinfo.value)
        assert f"{kind} must be one of" in message
        assert "warp-drive" in message
        # Every valid choice is named, so the fix is copy-pasteable.
        from repro.experiments.harness import _TIER_KINDS

        for choice in _TIER_KINDS[kind][2]:
            assert choice in message

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_cli_beats_env(self, kind, monkeypatch):
        env_var, default = self.KINDS[kind]
        from repro.experiments.harness import _TIER_KINDS

        choices = _TIER_KINDS[kind][2]
        other = next(c for c in choices if c != default)
        monkeypatch.setenv(env_var, default)
        assert select_tier(kind, cli_value=other) == other
        # And an invalid env value is *still* overridden by a valid CLI
        # value (the CLI is resolved first).
        monkeypatch.setenv(env_var, "bogus")
        assert select_tier(kind, cli_value=other) == other

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_defaults_without_env(self, kind, monkeypatch):
        env_var, default = self.KINDS[kind]
        monkeypatch.delenv(env_var, raising=False)
        assert select_tier(kind) == default
        assert tier_filter(kind) is None

    def test_invalid_cli_value_lists_choices(self):
        with pytest.raises(ValueError, match="hybrid must be one of"):
            select_tier("hybrid", cli_value="nope")

    def test_tier_filter_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HYBRID", "soa")
        assert tier_filter("hybrid") == "soa"
        monkeypatch.setenv("REPRO_HYBRID", "typo")
        with pytest.raises(ValueError, match="hybrid must be one of"):
            tier_filter("hybrid")


class TestSelectWorkers:
    """The worker-count resolver shares one source of truth with the
    network (``repro.net.shard.resolve_workers``), CLI > env > 1."""

    def test_default_and_env(self, monkeypatch):
        from repro.experiments.harness import select_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert select_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert select_workers() == 3

    def test_cli_beats_env(self, monkeypatch):
        from repro.experiments.harness import select_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert select_workers(2) == 2

    def test_garbage_raises(self, monkeypatch):
        from repro.experiments.harness import select_workers

        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            select_workers()
        monkeypatch.delenv("REPRO_WORKERS")
        with pytest.raises(ValueError, match=">= 1"):
            select_workers(-1)

    def test_argparse_plumbing(self):
        import argparse

        from repro.experiments.harness import add_workers_argument

        parser = argparse.ArgumentParser()
        add_workers_argument(parser)
        assert parser.parse_args([]).workers is None
        assert parser.parse_args(["--workers", "4"]).workers == 4
