"""repro-lint: determinism-contract static analysis for the engine.

The engine's headline guarantee — bit-for-bit equality across the
object/SoA tiers, worker counts, and synchronisers — rests on
source-level conventions (canonical RNG discipline, ascending-sender
emission, int64 lanes, order-independent emission, disjoint shard
writes).  This package checks those conventions mechanically:

- ``python -m repro.analysis`` lints the tree against the registered
  rules (``--list-rules``), gated by the committed baseline
  (``repro-lint-baseline.json``);
- ``docs/contracts.md`` enumerates the contracts, each cross-linked to
  its rule code here and to the ``REPRO_SANITIZE=1`` runtime assert that
  checks it during execution.

Pure stdlib (``ast``) — importable and runnable without numpy.
"""

from repro.analysis.baseline import (
    load_baseline,
    partition_new,
    write_baseline,
)
from repro.analysis.cli import main
from repro.analysis.engine import analyze_paths, analyze_source
from repro.analysis.rules import REGISTRY, Rule, Violation, all_rules

__all__ = [
    "REGISTRY",
    "Rule",
    "Violation",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "load_baseline",
    "main",
    "partition_new",
    "write_baseline",
]
