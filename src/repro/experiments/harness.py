"""Experiment harness: table formatting and scaling-law fits.

Every benchmark in ``benchmarks/`` reproduces one paper claim, named in
its module docstring, and prints a table of the measured rows.  Since the paper's claims are
asymptotic (``O(log n)`` rounds, ``Ω(√ℓ)`` growth, …), the harness
provides the fits the claims are judged by:

- :func:`fit_vs_logn` — least squares of ``y ≈ a + b·log₂ n``; a claim of
  ``O(log n)`` holds when the fit is good (high ``R²``) and, crucially,
  the *ratio* ``y / log₂ n`` stays bounded across the sweep;
- :func:`loglog_slope` — power-law exponent, used to check super-/sub-
  logarithmic growth (e.g. pointer jumping's ``Θ(n)`` message blow-up).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Table",
    "fit_vs_logn",
    "loglog_slope",
    "geometric_sizes",
    "ENGINE_CHOICES",
    "tier_filter",
    "add_engine_argument",
]

#: The delivery engines of :class:`repro.net.network.SyncNetwork` — the
#: default ``--engine`` choices.  Every other choice vocabulary lives in
#: :mod:`repro.runtime`, the single source of truth for every
#: execution-stack dimension (contract C8).
from repro.runtime import ENGINES as ENGINE_CHOICES  # noqa: E402

from repro.runtime import choice_specified, select_choice  # noqa: E402


def tier_filter(
    kind: str = "engine",
    cli_value: str | None = None,
    choices: tuple[str, ...] | None = None,
) -> str | None:
    """Like :func:`repro.runtime.select_choice`, but ``None`` when the
    user chose nothing.

    The standard bench pattern "time every stack unless the user
    restricted the run (CLI flag or env var)" — previously copy-pasted
    into each ``main()``.
    """
    if choice_specified(kind, cli_value):
        return select_choice(kind, cli_value, choices=choices)
    return None


def add_engine_argument(parser, choices: tuple[str, ...] = ENGINE_CHOICES) -> None:
    """Attach the standard ``--engine`` flag to an argparse parser."""
    parser.add_argument(
        "--engine",
        choices=choices,
        default=None,
        help="network delivery engine (default: REPRO_ENGINE env var or 'vectorized')",
    )


@dataclass
class Table:
    """A paper-style results table with aligned plain-text rendering."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def add(self, *values) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(col), *(len(row[i]) for row in self.rows)) if self.rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = " | ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(val.ljust(w) for val, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def fit_vs_logn(ns, ys) -> tuple[float, float, float]:
    """Least-squares fit ``y ≈ a + b · log₂(n)``.

    Returns ``(a, b, r_squared)``.  ``b`` is the rounds-per-doubling slope
    that the ``O(log n)`` theorems predict is constant.
    """
    ns = np.asarray(ns, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ns.shape[0] < 2:
        raise ValueError("need at least two points to fit")
    xs = np.log2(ns)
    coeffs = np.polyfit(xs, ys, deg=1)
    b, a = float(coeffs[0]), float(coeffs[1])
    predicted = a + b * xs
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return a, b, r2


def loglog_slope(xs, ys) -> float:
    """Power-law exponent: slope of ``log y`` against ``log x``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("log-log fit requires positive data")
    coeffs = np.polyfit(np.log(xs), np.log(ys), deg=1)
    return float(coeffs[0])


def geometric_sizes(lo: int, hi: int, factor: float = 2.0) -> list[int]:
    """Geometric sweep ``lo, lo·f, … ≤ hi`` (deduplicated, ints)."""
    if lo < 1 or hi < lo or factor <= 1.0:
        raise ValueError("need 1 <= lo <= hi and factor > 1")
    sizes = []
    x = float(lo)
    while x <= hi + 1e-9:
        v = int(round(x))
        if not sizes or v != sizes[-1]:
            sizes.append(v)
        x *= factor
    return sizes
