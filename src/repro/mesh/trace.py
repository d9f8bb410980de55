"""Hierarchical span tracing + metrics over the :class:`StepClock`.

The paper's whole evaluation is cost accounting — every theorem is a claim
about *where* mesh steps go.  :mod:`repro.mesh.profile` answers the flat
per-label question ("how much did ``sort`` cost"); this module adds the
*hierarchical* one ("how much did ``sort`` cost inside band 2's Phase 1").

A :class:`Tracer` attaches to a clock (``tracer.attach(clock)`` or
``Tracer(clock=clock)``); from then on every :meth:`StepClock.charge`
is attributed to the innermost open span:

    tracer = Tracer(clock=engine.clock)
    with tracer.span("hierdag:phase2"):
        region.rar(...)            # counted under hierdag:phase2

Each :class:`Span` records host wall time plus, per charge label, the
invocation count, charged mesh steps, and moved element volume (record
counts reported by the engine primitives).  Algorithm code opens spans
through :func:`traced`, which is a zero-cost no-op when the clock has no
tracer attached — instrumented code paths cost one attribute check when
tracing is off.

Exporters:

* :meth:`Tracer.to_chrome` — Chrome ``trace_event`` JSON (open the blob
  in ``chrome://tracing`` / Perfetto; span steps and counters ride in the
  event ``args``; the document also carries the structured span trees
  under a ``spanTrees`` key, which viewers ignore but
  ``repro.bench.report --diff`` consumes);
* :meth:`Tracer.render` — a plain-text tree for terminals and review
  artifacts;
* :meth:`Tracer.collapsed` — flamegraph-compatible collapsed stacks, one
  ``root;child;grandchild <steps>`` line per span (inverse:
  :func:`parse_collapsed`).

Parallel folding: inside a ``clock.parallel()`` section the clock folds
branch totals by max.  The clock reports each section's fold to the
tracer (:meth:`Tracer.on_parallel_fold`), which records the difference
``max(branches) - sum(branches)`` on the innermost open span's ``fold``
field.  ``Span.steps_total`` includes folds, so ``tracer.total_steps``
equals ``clock.time`` *exactly*, parallel sections included — the tracer
answers both "what work happened where" (raw ``steps``) and "what did
the critical path cost" (``steps_total``).

Host-side (clock-less) code — the geometry builders that run before any
engine exists — opens spans through the same :func:`traced` helper with
``clock=None``: the span lands on the *ambient* tracer, either one
installed with :func:`ambient` or, under ``REPRO_TRACE``, a lazily
created per-process host tracer drained alongside the clock tracers.

The bench runner's ``--trace`` flag uses the ``REPRO_TRACE`` environment
variable the same way ``--profile`` uses ``REPRO_PROFILE``: clocks
created while it is set auto-attach a fresh tracer and register it in a
module-level list drained by :func:`drain_traced_tracers`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "PrimCounter",
    "Span",
    "Tracer",
    "traced",
    "ambient",
    "ambient_tracer",
    "emit_event",
    "chrome_doc",
    "parse_collapsed",
    "register_traced_tracer",
    "drain_traced_tracers",
]

#: tracers auto-attached to clocks created under ``REPRO_TRACE`` (see
#: :class:`repro.mesh.clock.StepClock`); the bench runner's worker
#: processes drain this after each traced run.
_TRACED_TRACERS: list["Tracer"] = []

#: explicitly installed ambient tracers (innermost last) — the fallback
#: for ``traced(None, ...)`` spans opened by clock-less host code.
_AMBIENT: list["Tracer"] = []

#: lazily created host tracer for ``REPRO_TRACE`` runs (one per process
#: per drain); collects construction-phase spans that happen before any
#: engine/clock exists.
_ENV_HOST_TRACER: "Tracer | None" = None


def register_traced_tracer(tracer: "Tracer") -> None:
    _TRACED_TRACERS.append(tracer)


def drain_traced_tracers() -> list["Tracer"]:
    """Return and clear the tracers captured under ``REPRO_TRACE``."""
    global _ENV_HOST_TRACER
    out = list(_TRACED_TRACERS)
    _TRACED_TRACERS.clear()
    _ENV_HOST_TRACER = None
    return out


@dataclass
class PrimCounter:
    """Per-label accumulator within one span."""

    calls: int = 0
    steps: float = 0.0
    volume: int = 0


@dataclass
class Span:
    """One node of the span tree."""

    name: str
    t0: float
    t1: float | None = None
    #: mesh steps charged while this span was innermost (self, not children)
    steps: float = 0.0
    #: parallel-fold adjustment: for every ``clock.parallel()`` section
    #: that closed while this span was innermost, the clock advanced by
    #: ``max(branches)`` while the raw charges sum to ``sum(branches)``;
    #: this accumulates ``max - sum`` (<= 0) so totals match the clock.
    fold: float = 0.0
    counters: dict[str, PrimCounter] = field(default_factory=dict)
    #: zero-step host-side annotations (e.g. ``argsort-memo:hit``) — event
    #: name -> occurrence count while this span was innermost
    events: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Host wall time of the span (0 while still open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    @property
    def steps_self(self) -> float:
        """Net self charges: raw charges plus this span's parallel folds."""
        return self.steps + self.fold

    @property
    def steps_total(self) -> float:
        """Net charges of this span and all descendants (folds applied).

        Equals the clock's advance across the span, parallel sections
        included.
        """
        return self.steps + self.fold + sum(c.steps_total for c in self.children)

    @property
    def calls_total(self) -> int:
        return sum(c.calls for c in self.counters.values()) + sum(
            ch.calls_total for ch in self.children
        )

    @property
    def volume_total(self) -> int:
        return sum(c.volume for c in self.counters.values()) + sum(
            ch.volume_total for ch in self.children
        )

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "steps": self.steps,
            "fold": self.fold,
            "counters": {
                label: {"calls": c.calls, "steps": c.steps, "volume": c.volume}
                for label, c in self.counters.items()
            },
            "events": dict(self.events),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            name=str(data["name"]),
            t0=0.0,
            t1=float(data.get("wall_s", 0.0)),
            steps=float(data.get("steps", 0.0)),
            fold=float(data.get("fold", 0.0)),
        )
        for label, c in data.get("counters", {}).items():
            span.counters[str(label)] = PrimCounter(
                calls=int(c.get("calls", 0)),
                steps=float(c.get("steps", 0.0)),
                volume=int(c.get("volume", 0)),
            )
        span.events = {str(k): int(v) for k, v in data.get("events", {}).items()}
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span


class Tracer:
    """Span tree builder fed by :meth:`StepClock.charge`."""

    def __init__(self, name: str = "run", clock=None) -> None:
        self.root = Span(name, t0=time.perf_counter())
        self._stack: list[Span] = [self.root]
        if clock is not None:
            self.attach(clock)

    # -- clock wiring ------------------------------------------------------

    def attach(self, clock) -> None:
        """Route the clock's charges into this tracer's open span."""
        clock.tracer = self

    def detach(self, clock) -> None:
        if getattr(clock, "tracer", None) is self:
            clock.tracer = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a nested span; charges inside attribute to it."""
        node = Span(name, t0=time.perf_counter())
        self._stack[-1].children.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.t1 = time.perf_counter()
            self._stack.pop()

    def on_charge(self, label: str, steps: float, volume: int = 0) -> None:
        """Called by the clock for every charge while attached."""
        node = self._stack[-1]
        node.steps += steps
        counter = node.counters.get(label)
        if counter is None:
            counter = node.counters[label] = PrimCounter()
        counter.calls += 1
        counter.steps += steps
        counter.volume += volume

    def on_event(self, name: str, count: int = 1) -> None:
        """Record a zero-step host-side event on the innermost open span.

        Engine internals use this for annotations that explain wall time
        without touching the step accounting — e.g. ``argsort-memo:hit``
        vs ``argsort-memo:miss``, which attribute a fast sort to
        memoization rather than the sort kernel.
        """
        node = self._stack[-1]
        node.events[name] = node.events.get(name, 0) + count

    def on_parallel_fold(self, branches: list[float], max_branch: float) -> None:
        """Called by the clock when a ``parallel()`` section closes.

        ``branches`` are the clock-measured branch totals (inner folds
        already applied, because inner sections reported here first), so
        charging ``max - sum`` to the innermost open span makes this
        tracer's totals track the clock exactly through arbitrary
        nesting.
        """
        self._stack[-1].fold += max_branch - sum(branches)

    def finish(self) -> "Tracer":
        """Close the root span's wall time (idempotent)."""
        if self.root.t1 is None:
            self.root.t1 = time.perf_counter()
        return self

    @property
    def current_path(self) -> tuple[str, ...]:
        """Names of the open spans, outermost first (root included).

        Consumed by :class:`repro.mesh.faults.InvariantViolation` so a
        paranoid-mode failure names the phase it fired in.
        """
        return tuple(span.name for span in self._stack)

    @property
    def total_steps(self) -> float:
        """Summed net span charges (== ``clock.time``, folds included)."""
        return self.root.steps_total

    # -- exporters ---------------------------------------------------------

    def chrome_events(self, pid: int = 1, tid: int = 1) -> list[dict]:
        """Chrome ``trace_event`` complete ("X") events, one per span."""
        self.finish()
        base = self.root.t0
        events: list[dict] = []

        def emit(span: Span) -> None:
            end = span.t1 if span.t1 is not None else span.t0
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.t0 - base) * 1e6,
                    "dur": max(0.0, (end - span.t0) * 1e6),
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "steps": span.steps_total,
                        "steps_self": span.steps,
                        "fold": span.fold,
                        "calls": span.calls_total,
                        "volume": span.volume_total,
                        "counters": {
                            label: {
                                "calls": c.calls,
                                "steps": c.steps,
                                "volume": c.volume,
                            }
                            for label, c in span.counters.items()
                        },
                        "events": dict(span.events),
                    },
                }
            )
            for child in span.children:
                emit(child)

        emit(self.root)
        return events

    def to_chrome(self) -> dict:
        """A complete Chrome trace document for this tracer alone."""
        return chrome_doc([self])

    def render(self) -> str:
        """Plain-text tree: per-span steps, wall time, and top labels."""
        self.finish()
        lines = ["span tree (steps are net charges; parallel folds applied)"]

        def walk(span: Span, depth: int) -> None:
            top = sorted(
                span.counters.items(), key=lambda kv: -kv[1].steps
            )[:3]
            top_txt = (
                "  [" + ", ".join(
                    f"{label}:{c.calls}x/{c.steps:.0f}" for label, c in top
                ) + "]"
                if top
                else ""
            )
            fold_txt = f" fold={span.fold:.0f}" if span.fold else ""
            lines.append(
                f"{'  ' * depth}{span.name:<{max(1, 28 - 2 * depth)}} "
                f"steps={span.steps_total:>10.0f} (self={span.steps:.0f}{fold_txt})  "
                f"wall={span.wall_s * 1e3:.2f}ms{top_txt}"
            )
            for child in span.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Flamegraph collapsed-stack export: ``root;child <steps>`` lines.

        One line per span (pre-order), value = the span's *net self*
        steps (raw charges plus its parallel folds), so the values sum to
        ``total_steps`` == ``clock.time``.  Span names are sanitized
        (``;`` and whitespace replaced) to keep the format parseable;
        every span is emitted, zero-valued ones included, so the tree
        shape survives the round trip (:func:`parse_collapsed`).
        """
        self.finish()
        lines: list[str] = []

        def walk(span: Span, prefix: str) -> None:
            path = f"{prefix};{_collapsed_name(span.name)}" if prefix else _collapsed_name(span.name)
            lines.append(f"{path} {_collapsed_value(span.steps_self)}")
            for child in span.children:
                walk(child, path)

        walk(self.root, "")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        self.finish()
        return {"schema": 1, "root": self.root.to_dict()}


def traced(clock, name: str):
    """Span context for instrumented code: no-op when nothing is attached.

    Algorithm phases wrap themselves in ``with traced(engine.clock,
    "hierdag:phase2"):`` — when no tracer is attached (the default) this
    is one ``getattr`` plus a shared ``nullcontext``, preserving the
    zero-mesh-step / negligible-wall guarantee of untraced runs.

    ``clock`` may be ``None`` for host-side phases that run before any
    engine exists (geometry construction): the span then falls back to
    the innermost :func:`ambient` tracer, or — under ``REPRO_TRACE`` — to
    a lazily created per-process host tracer.  With no clock tracer, no
    ambient tracer, and no ``REPRO_TRACE``, this stays a cheap no-op.
    """
    tracer = getattr(clock, "tracer", None) if clock is not None else None
    if tracer is None:
        tracer = ambient_tracer()
        if tracer is None:
            return nullcontext()
    return tracer.span(name)


@contextmanager
def ambient(tracer: "Tracer") -> Iterator["Tracer"]:
    """Install ``tracer`` as the fallback for clock-less ``traced`` spans."""
    _AMBIENT.append(tracer)
    try:
        yield tracer
    finally:
        _AMBIENT.pop()


def ambient_tracer() -> "Tracer | None":
    """The tracer clock-less spans attach to, or ``None`` (tracing off).

    Resolution order: the innermost :func:`ambient` tracer, then — when
    ``REPRO_TRACE`` is set — a per-process host tracer created on first
    use and registered for :func:`drain_traced_tracers` like the clock
    tracers.
    """
    global _ENV_HOST_TRACER
    if _AMBIENT:
        return _AMBIENT[-1]
    if os.environ.get("REPRO_TRACE"):
        if _ENV_HOST_TRACER is None:
            _ENV_HOST_TRACER = Tracer(name="host")
            register_traced_tracer(_ENV_HOST_TRACER)
        return _ENV_HOST_TRACER
    return None


def emit_event(name: str, count: int = 1, clock=None) -> None:
    """Record a zero-step event on the innermost open span, if any.

    Resolution mirrors :func:`traced`: the clock's attached tracer first,
    then the ambient tracer.  A no-op when tracing is off, so host-side
    caches (the serving layer's result cache, like the engine's argsort
    memo) can annotate hits and misses unconditionally.
    """
    tracer = getattr(clock, "tracer", None) if clock is not None else None
    if tracer is None:
        tracer = ambient_tracer()
    if tracer is not None:
        tracer.on_event(name, count)


def _collapsed_name(name: str) -> str:
    """Span name made safe for the collapsed format (no ``;``/whitespace)."""
    return "".join(":" if ch == ";" else "_" if ch.isspace() else ch for ch in name)


def _collapsed_value(value: float) -> str:
    """Exact text form of a step value: int when integral, repr otherwise."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def parse_collapsed(text: str) -> dict[tuple[str, ...], float]:
    """Parse collapsed-stack lines back into ``{path: summed steps}``.

    The inverse of :meth:`Tracer.collapsed` up to aggregation: sibling
    spans with the same name collapse onto one path, their values summed
    (the flamegraph convention).  Blank lines are skipped; a malformed
    line raises ``ValueError``.
    """
    out: dict[tuple[str, ...], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        path_txt, _, value_txt = line.rpartition(" ")
        if not path_txt:
            raise ValueError(f"collapsed line {lineno} has no value: {line!r}")
        try:
            value = float(value_txt)
        except ValueError as exc:
            raise ValueError(
                f"collapsed line {lineno} has a non-numeric value: {line!r}"
            ) from exc
        path = tuple(path_txt.split(";"))
        out[path] = out.get(path, 0.0) + value
    return out


def chrome_doc(tracers: list["Tracer"]) -> dict:
    """Merge tracers into one Chrome ``trace_event`` JSON document.

    Each tracer becomes its own ``pid`` so a bench point that builds
    several engines (e.g. method sweeps) shows one track per engine.
    The extra top-level ``spanTrees`` key (ignored by trace viewers)
    carries the structured span trees so TRACE sidecars stay
    self-contained inputs for ``repro.bench.report --diff``.
    """
    events: list[dict] = []
    for i, tracer in enumerate(tracers, start=1):
        events.extend(tracer.chrome_events(pid=i))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "spanTrees": [tracer.to_dict() for tracer in tracers],
    }
