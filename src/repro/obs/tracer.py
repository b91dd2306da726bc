"""Round-trace telemetry core: spans, counters, columnar round tables.

The engine's only runtime window used to be the coarse
:class:`~repro.net.network.NetworkMetrics` totals — answering "which
round got slow" or "which stage dominates" meant hand
instrumentation every time.  This module supplies the shared recorder
behind every probe point:

- :class:`Tracer` — nestable spans (``run > phase > round > stage``)
  with monotonic timestamps, plus low-frequency counter events;
- :class:`RoundTrace` — a columnar per-round recorder: preallocated
  ``int64``/``float64`` numpy columns with doubling growth, so the
  hot-path ``append`` is a handful of scalar array writes and **no**
  Python-object churn;
- ambient activation — a context's ``RunContext.tracer`` beats the
  session-scoped :func:`activate`/:func:`capture` tracer, which beats
  the ``REPRO_TRACE=path`` environment singleton (flushed once at
  process exit).

The probe contract (C7 in ``docs/contracts.md``): tracing **observes,
never steers**.  No probe may consume an RNG stream or mutate the state
it is shown — which is what keeps a traced execution bit-for-bit the
untraced one (tree SHAs identical at every tier and worker count,
pinned by ``tests/obs/test_trace_invariance.py``).  Statically enforced
by the RL5xx repro-lint rules.  When no tracer is resolved every probe
site reduces to one ``is None`` check, so disabled runs pay nothing.
"""

from __future__ import annotations

import atexit
import os
import time
from contextlib import contextmanager, nullcontext

import numpy as np

__all__ = [
    "TRACE_ENV",
    "RoundTrace",
    "Span",
    "Tracer",
    "activate",
    "active_tracer",
    "capture",
    "maybe_span",
    "resolve_tracer",
]

#: Environment variable: a path here arms a process-wide tracer whose
#: trace/v1 artifact is written once at interpreter exit.
TRACE_ENV = "REPRO_TRACE"


class Span:
    """One timed, nestable region (``run > phase > round > stage``).

    ``attrs`` stays mutable after the span closes so callers can attach
    results computed later (a scenario row's ``tree_sha``, a stage's
    round count) without restructuring their control flow.
    """

    __slots__ = ("id", "parent", "name", "cat", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        parent: int,
        name: str,
        cat: str,
        start: float,
        attrs: dict,
    ) -> None:
        self.id = span_id
        self.parent = parent  # enclosing span id, -1 at top level
        self.name = name
        self.cat = cat
        self.start = start
        self.end = start  # patched on close
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.cat}/{self.name}, {self.seconds:.6f}s, attrs={self.attrs!r})"


class RoundTrace:
    """Columnar per-round recorder (the hot-path half of the tracer).

    ``columns`` become ``int64`` lanes and ``float_columns`` ``float64``
    lanes, preallocated and grown by doubling; :meth:`append` takes one
    positional value per lane, int lanes first — a fixed number of
    scalar stores per round, no dicts, no tuples kept.  Column views are
    cut lazily (:meth:`column`), so untraced consumers never materialise
    anything.
    """

    __slots__ = (
        "name",
        "kind",
        "meta",
        "int_columns",
        "float_columns",
        "columns",
        "_arrays",
        "_len",
        "_cap",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        columns: tuple[str, ...],
        float_columns: tuple[str, ...] = ("seconds",),
        meta: dict | None = None,
        capacity: int = 256,
    ) -> None:
        self.name = name
        self.kind = kind
        self.meta = dict(meta or {})
        self.int_columns = tuple(columns)
        self.float_columns = tuple(float_columns)
        self.columns = self.int_columns + self.float_columns
        cap = max(int(capacity), 16)
        arrays = [np.empty(cap, dtype=np.int64) for _ in self.int_columns]
        arrays += [np.empty(cap, dtype=np.float64) for _ in self.float_columns]
        self._arrays = arrays
        self._len = 0
        self._cap = cap

    def __len__(self) -> int:
        return self._len

    def _grow(self) -> None:
        cap = self._cap * 2
        grown = []
        for old in self._arrays:
            new = np.empty(cap, dtype=old.dtype)
            new[: self._len] = old[: self._len]
            grown.append(new)
        self._arrays = grown
        self._cap = cap

    def append(self, *values) -> None:
        """Record one row: one value per column, int lanes first."""
        i = self._len
        if i == self._cap:
            self._grow()
        for arr, v in zip(self._arrays, values):
            arr[i] = v
        self._len = i + 1

    def column(self, name: str) -> np.ndarray:
        """View of one recorded column (length = rows appended so far)."""
        return self._arrays[self.columns.index(name)][: self._len]

    def rows(self) -> list[list]:
        """Row-major plain-scalar copy (the trace/v1 serialisation)."""
        out = []
        n_int = len(self.int_columns)
        for i in range(self._len):
            row = [int(self._arrays[j][i]) for j in range(n_int)]
            row += [
                float(self._arrays[j][i])
                for j in range(n_int, len(self._arrays))
            ]
            out.append(row)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundTrace({self.name}, rows={self._len}, columns={self.columns})"


class Tracer:
    """Span/counter/table sink with a monotonic clock.

    ``clock`` is injectable (a fake clock makes CLI golden-output tests
    deterministic); it defaults to the perf counter.  All timestamps are
    relative to construction, so traces diff cleanly across runs.
    Recording methods are append-only — a tracer never reaches back into
    the execution it observes (the C7 probe contract).
    """

    __slots__ = ("clock", "meta", "spans", "counters", "tables", "_origin", "_stack", "_kind_counts")

    def __init__(self, clock=None, meta: dict | None = None) -> None:
        if clock is None:
            # Telemetry is the one engine component whose job IS wall
            # time; every simulated quantity stays seed-determined.
            clock = time.perf_counter  # repro-lint: disable=RL202
        self.clock = clock
        self._origin = clock()
        self.meta = dict(meta or {})
        self.spans: list[Span] = []
        self.counters: list[tuple] = []  # (name, ts, value, attrs|None)
        self.tables: list[RoundTrace] = []
        self._stack: list[int] = []
        self._kind_counts: dict[str, int] = {}

    def now(self) -> float:
        """Seconds since tracer construction (monotonic)."""
        return self.clock() - self._origin

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, cat: str = "span", **attrs):
        """Open a nestable timed region; yields the mutable :class:`Span`."""
        parent = self._stack[-1] if self._stack else -1
        sp = Span(len(self.spans), parent, name, cat, self.now(), attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = self.now()
            self._stack.pop()

    def counter(self, name: str, value, attrs: dict | None = None) -> None:
        """Record one monotonically-timestamped counter event."""
        self.counters.append((name, self.now(), value, attrs))

    def table(
        self,
        kind: str,
        columns: tuple[str, ...],
        float_columns: tuple[str, ...] = ("seconds",),
        meta: dict | None = None,
        capacity: int = 256,
    ) -> RoundTrace:
        """Open a new columnar table named ``<kind>#<k>`` (unique per kind)."""
        k = self._kind_counts.get(kind, 0)
        self._kind_counts[kind] = k + 1
        rt = RoundTrace(
            f"{kind}#{k}", kind, columns, float_columns, meta, capacity
        )
        self.tables.append(rt)
        return rt

    def tables_of(self, kind: str) -> list[RoundTrace]:
        return [t for t in self.tables if t.kind == kind]


def maybe_span(tracer: Tracer | None, name: str, cat: str = "span", **attrs):
    """``tracer.span(...)`` or a no-op context yielding ``None``.

    The probe-site idiom: ``with maybe_span(tracer, "spanner",
    cat="stage") as sp:`` costs one ``is None`` check when disabled.
    """
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, cat=cat, **attrs)


# ----------------------------------------------------------------------
# Ambient activation: kwarg > session tracer > REPRO_TRACE singleton.
# ----------------------------------------------------------------------
_ACTIVE: Tracer | None = None
_ENV_TRACER: Tracer | None = None
_ENV_CHECKED = False
_ENV_PID: int | None = None


def _env_flush(path: str) -> None:
    # Forked children inherit this atexit hook; only the creating
    # process may write the artifact, or children would clobber it.
    if _ENV_TRACER is None or os.getpid() != _ENV_PID:
        return
    from repro.obs.trace_io import write_trace

    write_trace(path, _ENV_TRACER)


def _env_tracer() -> Tracer | None:
    global _ENV_CHECKED, _ENV_TRACER, _ENV_PID
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        from repro.runtime.envsource import read_env

        path = read_env(TRACE_ENV)
        if path:
            _ENV_TRACER = Tracer(meta={"source": "env", "path": path})
            _ENV_PID = os.getpid()
            atexit.register(_env_flush, path)
    if _ENV_TRACER is not None and os.getpid() != _ENV_PID:
        # A fork-inherited singleton: the child must neither record into
        # nor flush the parent's buffers.
        return None
    return _ENV_TRACER


def active_tracer() -> Tracer | None:
    """The session tracer (:func:`activate`/:func:`capture`) if any,
    else the ``REPRO_TRACE`` environment singleton, else ``None``."""
    if _ACTIVE is not None:
        return _ACTIVE
    return _env_tracer()


def resolve_tracer(tracer: Tracer | None = None) -> Tracer | None:
    """Resolve a probe site's tracer: explicit kwarg wins, then the
    ambient session tracer, then ``REPRO_TRACE``.  ``None`` means
    tracing is off and every hook must stay un-entered."""
    if tracer is not None:
        return tracer
    return active_tracer()


def activate(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the ambient session tracer; returns the
    previous one (pass it back to restore — or use :func:`capture`)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def capture(path: str | None = None, meta: dict | None = None, clock=None):
    """Ambient tracing scope: every network/pipeline/scenario built
    inside resolves this tracer without any kwarg plumbing.  When
    ``path`` is given the trace/v1 artifact is written on exit (also on
    error — a partial trace beats none while debugging a crash)."""
    tracer = Tracer(clock=clock, meta=meta)
    previous = activate(tracer)
    try:
        yield tracer
    finally:
        activate(previous)
        if path is not None:
            from repro.obs.trace_io import write_trace

            write_trace(path, tracer)


def _reset_ambient_for_tests() -> None:
    """Drop all ambient state (session + env singleton); tests only."""
    global _ACTIVE, _ENV_TRACER, _ENV_CHECKED, _ENV_PID
    _ACTIVE = None
    _ENV_TRACER = None
    _ENV_CHECKED = False
    _ENV_PID = None
