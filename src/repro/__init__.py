"""repro — Time-Optimal Construction of Overlay Networks (PODC 2021).

A from-scratch Python reproduction of Götte, Hinnenthal, Scheideler and
Werthmann, *Time-Optimal Construction of Overlay Networks* (PODC 2021;
arXiv:2009.03987): transform any weakly connected constant-degree graph
into a well-formed tree (constant degree, ``O(log n)`` diameter) in
``O(log n)`` synchronous rounds with ``O(log n)`` messages per node per
round, w.h.p. — plus the paper's hybrid-network applications (connected
components, spanning trees, biconnected components, MIS).

Quick start::

    import numpy as np
    from repro import build_well_formed_tree
    from repro.graphs.generators import line_graph

    result = build_well_formed_tree(line_graph(1024), rng=np.random.default_rng(7))
    print(result.total_rounds)             # O(log n) rounds
    print(result.well_formed.depth())      # O(log n) depth
    print(result.well_formed.max_degree()) # <= 3

Package map (deviations from the paper and the parameter calibration
are recorded in ``docs/deviations.md``):

- :mod:`repro.core` — Sections 2–3: benign graphs, ``CreateExpander``,
  BFS, Euler-tour rebalancing, the Theorem 1.1 pipeline, and the
  message-level NCC0 protocol engine;
- :mod:`repro.net` — the synchronous capacity-limited network simulator;
- :mod:`repro.graphs` — workload generators and graph analysis
  (conductance, spectral gap, min cut, diameter);
- :mod:`repro.hybrid` — Section 4: Theorems 1.2–1.5 and their
  sub-algorithms;
- :mod:`repro.baselines` — prior-work comparison algorithms;
- :mod:`repro.experiments` — the table/fit harness behind ``benchmarks/``.
"""

from repro.core import (
    ExpanderParams,
    OverlayBuildResult,
    build_well_formed_tree,
    create_expander,
)
from repro.hybrid import (
    biconnected_components_hybrid,
    connected_components_hybrid,
    mis_hybrid,
    spanning_tree_hybrid,
)

__version__ = "1.0.0"

__all__ = [
    "ExpanderParams",
    "OverlayBuildResult",
    "build_well_formed_tree",
    "create_expander",
    "connected_components_hybrid",
    "spanning_tree_hybrid",
    "biconnected_components_hybrid",
    "mis_hybrid",
    "__version__",
]
