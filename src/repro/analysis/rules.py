"""repro-lint rule framework: codes, registry, violations, suppressions.

A *rule* is a small AST checker enforcing one determinism contract of the
three-tier engine (``docs/contracts.md`` enumerates the contracts; each
one cross-links the rule code that enforces it and the ``REPRO_SANITIZE``
assert that checks it at runtime).  Rules are classes registered under a
stable ``RLxxx`` code via :func:`register`; the analysis engine
(:mod:`repro.analysis.engine`) instantiates one checker per rule per file
and drives them all through a single AST walk, so adding a rule never adds
a parse or a traversal.

Rule numbering groups by contract family:

- ``RL1xx`` — RNG discipline (canonical generator usage);
- ``RL2xx`` — determinism hazards (iteration order, wall clock);
- ``RL3xx`` — columnar contracts (shared delivery columns, dtype lanes);
- ``RL5xx`` — probe purity (telemetry observes, never perturbs);
- ``RL6xx`` — configuration discipline (one env source, one context).

Suppressions are source comments, checked per physical line of the
flagged statement:

- ``# repro-lint: disable=RL101`` (or ``disable=RL101,RL202`` /
  ``disable=all``) silences matching codes on that statement;
- ``# repro-lint: disable-file=RL202`` anywhere in a file silences the
  code for the whole file (used sparingly — prefer line-level).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = [
    "Rule",
    "Violation",
    "FileContext",
    "REGISTRY",
    "register",
    "all_rules",
    "parse_suppressions",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit: a stable, sortable record.

    ``line_text`` is the stripped source of the flagged line — it keys the
    baseline fingerprint (:mod:`repro.analysis.baseline`), so violations
    survive unrelated line-number drift without going stale silently.
    """

    path: str  # repo-relative, posix separators
    line: int
    col: int
    code: str
    message: str
    line_text: str = field(compare=False, default="")

    def fingerprint(self) -> str:
        return f"{self.path}::{self.code}::{self.line_text}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "line_text": self.line_text,
        }


def parse_suppressions(lines: list[str]) -> tuple[dict[int, set[str]], set[str]]:
    """Scan source lines for suppression comments.

    Returns ``(per_line, whole_file)``: 1-based line number → codes
    silenced on that line, and codes silenced file-wide.  The token
    ``all`` silences every code.
    """
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        if "repro-lint" not in text:
            continue
        for kind, codes in _SUPPRESS_RE.findall(text):
            parsed = {c.strip().upper() for c in codes.split(",") if c.strip()}
            if kind == "disable-file":
                whole_file |= parsed
            else:
                per_line.setdefault(lineno, set()).update(parsed)
    return per_line, whole_file


class FileContext:
    """Everything one file's checkers share: path, source, scope stack,
    suppression table, and the violation sink."""

    def __init__(self, rel_path: str, source_lines: list[str]) -> None:
        self.rel_path = rel_path
        self.lines = source_lines
        self.suppress_lines, self.suppress_file = parse_suppressions(source_lines)
        # Module kind steers per-rule applicability: wall-clock reads are a
        # hazard inside the engine but the whole point of a benchmark.
        top = rel_path.split("/", 1)[0]
        if top in ("benchmarks", "examples", "tests"):
            self.kind = top
        else:
            self.kind = "engine"
        self.violations: list[Violation] = []
        #: Enclosing function/class nodes, innermost last (engine-managed).
        self.scope_stack: list[ast.AST] = []

    # ------------------------------------------------------------------
    def current_function(self) -> ast.AST | None:
        for node in reversed(self.scope_stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None

    def _suppressed(self, code: str, lineno: int, end_lineno: int | None) -> bool:
        if code in self.suppress_file or "ALL" in self.suppress_file:
            return True
        last = end_lineno if end_lineno is not None else lineno
        for line in range(lineno, min(last, lineno + 10) + 1):
            codes = self.suppress_lines.get(line)
            if codes and (code in codes or "ALL" in codes):
                return True
        return False

    def report(self, node: ast.AST, code: str, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self._suppressed(code, lineno, getattr(node, "end_lineno", None)):
            return
        text = self.lines[lineno - 1].strip() if 0 < lineno <= len(self.lines) else ""
        self.violations.append(
            Violation(self.rel_path, lineno, col, code, message, line_text=text)
        )


class Rule:
    """Base class for one lint rule; one instance is created per file.

    Subclasses set the class attributes and implement any of the
    ``visit_<NodeType>(self, node)`` hooks the engine dispatches on
    (plus optional ``exit_function(self, node)`` when a function scope
    closes).  ``self.ctx`` is the file's :class:`FileContext`.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: One-line statement of the determinism contract this rule enforces
    #: (rendered by ``--list-rules`` and cross-linked from docs/contracts.md).
    contract: str = ""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.report(node, self.code, message)


#: code -> rule class.  Import order of the rules_* modules fixes the
#: report order for equal locations; codes must be unique.
REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if not cls.code or not cls.name:
        raise ValueError(f"rule {cls.__name__} must define code and name")
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list[type[Rule]]:
    """Registered rule classes, sorted by code (imports the built-in rule
    modules on first use so the registry is always populated)."""
    from repro.analysis import (  # noqa: F401
        rules_columnar,
        rules_config,
        rules_determinism,
        rules_obs,
        rules_rng,
    )

    return [REGISTRY[code] for code in sorted(REGISTRY)]
