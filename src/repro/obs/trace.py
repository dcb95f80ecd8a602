"""Request tracing: trace IDs and nested span timers.

A :class:`TraceContext` is a trace ID plus an append-only list of recorded
spans ``{"stage", "seconds", "parent", "self_seconds"}``.  The active
context lives in a ``contextvars.ContextVar`` — :func:`activate` installs
one for a ``with`` block, :func:`span` times a stage against whichever
context is active (and mirrors the duration into the global metrics
registry as ``repro_stage_seconds{stage=...}``).

Spans nest.  A second context var holds the innermost open span, so each
recorded span names its enclosing stage as ``parent`` (``None`` at top
level) and carries ``self_seconds``: its own time minus the time of the
spans opened inside it.  Self times never overlap, so
:meth:`TraceContext.summary` totals them into a stage breakdown that adds
up to at most the traced wall time.  :func:`activate` starts a fresh span
stack, so a trace's parents are always stages of the same trace.

Context vars do not cross process boundaries, so :class:`TraceContext` is
deliberately a plain-data object: ``to_dict`` / ``from_dict`` round-trip it
through the pickled arguments of a ProcessPool worker, which re-activates
it, records its spans, and ships them back inside the job result.
"""

from __future__ import annotations

import contextlib
import threading
import time
import uuid
from contextvars import ContextVar

from .metrics import get_registry

__all__ = [
    "TraceContext",
    "activate",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "span",
]


def new_trace_id() -> str:
    return uuid.uuid4().hex


class TraceContext:
    """One request's trace: an ID and the spans recorded under it."""

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or new_trace_id()
        self._lock = threading.Lock()
        self._spans: list[dict] = []

    def record(
        self,
        stage: str,
        seconds: float,
        parent: str | None = None,
        self_seconds: float | None = None,
    ) -> None:
        with self._lock:
            self._spans.append({
                "stage": stage,
                "seconds": seconds,
                "parent": parent,
                "self_seconds": seconds if self_seconds is None else self_seconds,
            })

    @property
    def spans(self) -> list[dict]:
        with self._lock:
            return [dict(s) for s in self._spans]

    def summary(self) -> dict:
        """Per-stage ``seconds`` / ``self_seconds`` / ``count``, plus
        ``stage_total_seconds``, the sum of self times (nested spans are
        counted once, in their own stage)."""
        stages: dict[str, dict] = {}
        for s in self.spans:
            slot = stages.setdefault(
                s["stage"], {"seconds": 0.0, "self_seconds": 0.0, "count": 0}
            )
            slot["seconds"] += s["seconds"]
            slot["self_seconds"] += s["self_seconds"]
            slot["count"] += 1
        total = sum(slot["self_seconds"] for slot in stages.values())
        for slot in stages.values():
            slot["seconds"] = round(slot["seconds"], 6)
            slot["self_seconds"] = round(slot["self_seconds"], 6)
        return {
            "stages": dict(sorted(stages.items())),
            "stage_total_seconds": round(total, 6),
        }

    def extend(self, spans: list[dict]) -> None:
        """Merge spans recorded elsewhere (e.g. in a pool worker).  Span
        dicts without ``parent``/``self_seconds`` load as top-level spans."""
        for s in spans:
            parent = s.get("parent")
            self_seconds = s.get("self_seconds")
            self.record(
                str(s["stage"]),
                float(s["seconds"]),
                None if parent is None else str(parent),
                None if self_seconds is None else float(self_seconds),
            )

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "spans": self.spans}

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceContext":
        ctx = cls(trace_id=str(doc["trace_id"]))
        ctx.extend(doc.get("spans", []))
        return ctx


class _Frame:
    """One open span: its stage and the time covered by spans inside it."""

    __slots__ = ("stage", "child_seconds")

    def __init__(self, stage: str):
        self.stage = stage
        self.child_seconds = 0.0


_CURRENT: ContextVar[TraceContext | None] = ContextVar("repro_trace", default=None)
_FRAME: ContextVar[_Frame | None] = ContextVar("repro_span", default=None)


@contextlib.contextmanager
def activate(ctx: TraceContext):
    """Install ``ctx`` as the active trace, with no open span, for the
    ``with`` block."""
    token = _CURRENT.set(ctx)
    frame_token = _FRAME.set(None)
    try:
        yield ctx
    finally:
        _FRAME.reset(frame_token)
        _CURRENT.reset(token)


def current_trace() -> TraceContext | None:
    return _CURRENT.get()


def current_trace_id() -> str | None:
    ctx = _CURRENT.get()
    return ctx.trace_id if ctx is not None else None


@contextlib.contextmanager
def span(stage: str, registry=None):
    """Time a stage: record into the active trace (if any), charged to the
    enclosing span, and observe the ``repro_stage_seconds`` histogram."""
    parent = _FRAME.get()
    frame = _Frame(stage)
    token = _FRAME.set(frame)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        _FRAME.reset(token)
        if parent is not None:
            parent.child_seconds += dt
        ctx = _CURRENT.get()
        if ctx is not None:
            ctx.record(
                stage,
                dt,
                parent.stage if parent is not None else None,
                max(0.0, dt - frame.child_seconds),
            )
        reg = registry if registry is not None else get_registry()
        reg.histogram(
            "repro_stage_seconds",
            help="Time spent per pipeline/service stage.",
            stage=stage,
        ).observe(dt)
