"""Zero-dependency observability: metrics, tracing, structured logging.

The serving and compile layers grew up with ad-hoc counters scattered across
``JobQueue``, ``MappingService``, and ``ArtifactStore``.  This package is the
single telemetry seam they all feed now:

* :mod:`.metrics` — a process-local, thread-safe metrics registry
  (Counter / Gauge / Histogram with labeled families) that renders both a
  JSON snapshot (``/v1/stats``, ``repro cache stats --json``) and the
  Prometheus text exposition format (``GET /v1/metrics``);
* :mod:`.trace` — context-var request tracing: trace IDs and nested span
  timers for per-stage compile profiling (construction → fingerprint →
  lookups → tree construction, then mapping apply → ordering → routing →
  store).  Each span records its parent stage and self time, so a
  :class:`~repro.obs.trace.TraceContext`'s ``summary()`` is a stage
  breakdown that adds up; the context is plain data and survives the hop
  into process-pool workers;
* :mod:`.logging` — a JSON-lines formatter stamping every record with the
  active trace ID, ``configure_logging`` for ``repro serve --log-format
  json``, and the slow-compile warning threshold.

Everything here is stdlib-only, so instrumentation can be threaded through
every layer (including forked workers) without new dependencies.
"""

from .logging import (
    JsonFormatter,
    configure_logging,
    set_slow_compile_threshold,
    slow_compile_threshold,
)
from .metrics import (
    BENCH_LATENCY_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    latency_summary,
    reset_registry,
)
from .trace import (
    TraceContext,
    activate,
    current_trace,
    current_trace_id,
    new_trace_id,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "BENCH_LATENCY_BUCKETS",
    "get_registry",
    "reset_registry",
    "latency_summary",
    "TraceContext",
    "activate",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "span",
    "JsonFormatter",
    "configure_logging",
    "slow_compile_threshold",
    "set_slow_compile_threshold",
]
