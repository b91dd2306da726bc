"""Tunable parameters of ``CreateExpander`` (§2.1 of the paper).

The algorithm takes four inputs besides the graph: the walk length ``ℓ``,
the target degree ``Δ``, the minimum-cut parameter ``Λ``, and the number of
evolutions ``L`` (an upper bound on ``log n``).  The theory requires
``Δ, Λ = Ω(log n)`` with "big enough" hidden constants and any constant
``ℓ``; :meth:`ExpanderParams.recommended` encodes the practical calibration
documented in ``docs/deviations.md`` ("Parameter calibration"), under
which all benignness and growth invariants hold across the test matrix.

Structural constraints encoded here:

- ``Δ`` must be divisible by 8, so that each node starts exactly ``Δ/8``
  tokens and accepts at most ``3Δ/8`` (the algorithm box uses these
  fractions literally);
- ``2·Λ·d_max ≤ Δ/2`` for the NCC0 preparation step (copying every edge
  ``Λ`` times must leave at least ``Δ/2`` ports free for self-loops, i.e.
  preserve laziness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["ExpanderParams"]


@dataclass(frozen=True)
class ExpanderParams:
    """Parameter bundle ``(ℓ, Δ, Λ, L)`` for the overlay construction.

    Attributes
    ----------
    delta:
        Uniform degree ``Δ`` of every benign evolution graph.  Must be a
        positive multiple of 8.
    lam:
        Minimum-cut parameter ``Λ``: the NCC0 preparation copies every
        initial edge ``Λ`` times; the invariant checks require every
        evolution graph to keep a cut of at least ``Λ``.
    ell:
        Random-walk length ``ℓ`` per evolution (a constant in the NCC0
        algorithm; ``Θ(Λ²)`` in the hybrid variant of Theorem 4.1).
    num_evolutions:
        Number of evolutions ``L`` (the paper's upper bound on ``log n``).
    """

    delta: int
    lam: int
    ell: int
    num_evolutions: int

    def __post_init__(self) -> None:
        if self.delta <= 0 or self.delta % 8 != 0:
            raise ValueError(f"delta must be a positive multiple of 8, got {self.delta}")
        if self.lam < 1:
            raise ValueError(f"lam must be >= 1, got {self.lam}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.num_evolutions < 0:
            raise ValueError(f"num_evolutions must be >= 0, got {self.num_evolutions}")

    # ------------------------------------------------------------------
    # Derived quantities from the algorithm box (§2.1)
    # ------------------------------------------------------------------
    @property
    def tokens_per_node(self) -> int:
        """``Δ/8`` tokens started by each node per evolution."""
        return self.delta // 8

    @property
    def accept_cap(self) -> int:
        """``3Δ/8`` — the maximum number of foreign tokens a node answers."""
        return 3 * self.delta // 8

    @property
    def maintained_cut_floor(self) -> int:
        """Minimum cut every *evolution* graph must keep.

        The preparation step establishes a cut of exactly ``Λ``; the
        theory (Lemma 3.12) maintains an ``Ω(log n)`` cut thereafter but
        with a constant that, at the paper's face values (``ℓ > 10⁶``), is
        astronomically conservative.  The practical invariant — calibrated
        in ``docs/deviations.md`` and enforced by the E2 experiment — is that the
        cut never drops below ``max(2, Λ/2)`` and regrows once conductance
        rises.
        """
        return max(2, self.lam // 2)

    def max_copy_degree(self) -> int:
        """Largest input degree ``d`` such that copying each incident edge
        ``Λ`` times leaves ``≥ Δ/2`` self-loops (laziness)."""
        return self.delta // (2 * self.lam) // 2

    # ------------------------------------------------------------------
    # Calibrated defaults
    # ------------------------------------------------------------------
    @classmethod
    def recommended(
        cls,
        n: int,
        max_degree: int = 2,
        ell: int = 16,
        extra_evolutions: int = 4,
    ) -> "ExpanderParams":
        """Practical parameters for an ``n``-node input of degree
        ``max_degree`` (see ``docs/deviations.md`` for the calibration rationale).

        ``Λ = ⌈log₂ n⌉`` copies; ``Δ`` the smallest multiple of 8 that is
        at least ``max(32, 8·(log₂ n + 3))`` *and* large enough to hold
        the ``Λ``-fold copied edges with slack (``4·Λ·d ≤ Δ``, i.e. twice
        the laziness requirement); ``L = ⌈log₂ n⌉ + extra``.  Walks of
        length 16 keep the minimum cut comfortably above the maintained
        floor across the calibration matrix.
        """
        if n < 2:
            raise ValueError("need at least 2 nodes")
        log_n = max(1, math.ceil(math.log2(n)))
        lam = max(2, log_n)
        needed_for_copies = 4 * lam * max_degree
        delta = max(32, 8 * (log_n + 3), needed_for_copies)
        delta = ((delta + 7) // 8) * 8
        return cls(
            delta=delta,
            lam=lam,
            ell=ell,
            num_evolutions=log_n + extra_evolutions,
        )

    def with_evolutions(self, num_evolutions: int) -> "ExpanderParams":
        """Copy of these parameters with a different evolution count."""
        return replace(self, num_evolutions=num_evolutions)
