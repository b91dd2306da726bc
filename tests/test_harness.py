"""Experiment harness tests (tables, scaling fits, tier selection)."""

import numpy as np
import pytest

from repro.experiments.harness import (
    ENGINE_CHOICES,
    Table,
    fit_vs_logn,
    geometric_sizes,
    loglog_slope,
    tier_filter,
)


class TestTierFilter:
    """The bench pattern "time every stack unless the user restricted
    the run"; the resolution itself is :func:`repro.runtime.select_choice`
    (pinned in ``tests/runtime/test_context.py``)."""

    def test_filter_is_none_when_nothing_chosen(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert tier_filter("engine") is None
        assert tier_filter("engine", "legacy") == "legacy"
        monkeypatch.setenv("REPRO_ENGINE", "soa")
        assert tier_filter("engine") == "soa"

    @pytest.mark.parametrize(
        "kind,env_var",
        [
            ("engine", "REPRO_ENGINE"),
            ("rooting", "REPRO_ROOTING"),
            ("expander", "REPRO_EXPANDER"),
            ("hybrid", "REPRO_HYBRID"),
        ],
    )
    def test_none_without_env(self, kind, env_var, monkeypatch):
        monkeypatch.delenv(env_var, raising=False)
        assert tier_filter(kind) is None

    def test_tier_filter_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HYBRID", "soa")
        assert tier_filter("hybrid") == "soa"
        monkeypatch.setenv("REPRO_HYBRID", "typo")
        with pytest.raises(ValueError, match="hybrid must be one of"):
            tier_filter("hybrid")

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


class TestWorkersArgument:
    def test_argparse_plumbing(self):
        import argparse

        from repro.experiments.harness import add_workers_argument

        parser = argparse.ArgumentParser()
        add_workers_argument(parser)
        assert parser.parse_args([]).workers is None
        assert parser.parse_args(["--workers", "4"]).workers == 4
