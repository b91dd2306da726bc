"""Shared experiment harness for the benchmark suite (``docs/deviations.md``,
"Benchmarks and what they reproduce")."""

from repro.experiments.harness import Table, fit_vs_logn, geometric_sizes, loglog_slope

__all__ = ["Table", "fit_vs_logn", "geometric_sizes", "loglog_slope"]
