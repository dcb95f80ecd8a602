"""Tests for repro.obs — metrics registry, tracing, structured logging.

Covers the PR's observability guarantees:

* histogram bucket edges use Prometheus ``le`` (inclusive-upper) semantics
  and the rendered text parses as valid exposition format (mini-parser);
* the metric-counter choke point (``JobQueue._count``) is race-free under
  a 16-thread hammer — per-queue stats and registry totals agree exactly;
* spans nest: each records its parent stage and self time, and a trace's
  ``summary()`` total is the sum of self times;
* a trace context survives the round trip through a real
  ``ProcessPoolExecutor`` worker and comes back with recorded spans;
* JSON log lines carry the active trace ID; the slow-compile threshold
  triggers a warning with that ID attached.
"""

import json
import logging
import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.logging import (
    JsonFormatter,
    configure_logging,
    set_slow_compile_threshold,
    slow_compile_threshold,
)
from repro.obs.metrics import (
    BENCH_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    latency_summary,
)
from repro.obs.trace import (
    TraceContext,
    activate,
    current_trace,
    current_trace_id,
    span,
)
from repro.serve import CompileRequest, JobQueue
from repro.serve.queue import execute_request
from repro.service import MappingService, pool_context


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4.0

    def test_histogram_le_inclusive_bucket_edges(self):
        # A value exactly on a bucket boundary counts in that bucket
        # (Prometheus le semantics), not the next one up.
        h = Histogram(buckets=(0.01, 0.1, 1.0))
        h.observe(0.01)   # == first upper bound -> first bucket
        h.observe(0.05)   # second bucket
        h.observe(0.1)    # == second upper bound -> second bucket
        h.observe(2.0)    # +Inf overflow
        assert h.cumulative_counts() == [
            (0.01, 1), (0.1, 3), (1.0, 3), (math.inf, 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(2.16)

    def test_histogram_quantiles_clamped_to_observed_range(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (4.0, 5.0, 6.0):
            h.observe(v)
        # Interpolation happens inside (1, 10] but never escapes [min, max].
        assert 4.0 <= h.quantile(0.5) <= 6.0
        assert h.quantile(0.0) == 4.0
        assert h.quantile(1.0) == 6.0
        assert math.isnan(Histogram(buckets=(1.0,)).quantile(0.5))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_overflow_quantile_returns_observed_max(self):
        h = Histogram(buckets=(0.001,))
        h.observe(7.0)
        assert h.quantile(0.99) == 7.0

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())
        with pytest.raises(ValueError, match="finite"):
            Histogram(buckets=(1.0, math.inf))

    def test_summary_empty_and_populated(self):
        h = Histogram(buckets=(1.0,))
        assert h.summary() == {"count": 0, "sum": 0.0, "min": None, "max": None}
        h.observe(0.5)
        s = h.summary()
        assert s["count"] == 1 and s["min"] == s["max"] == 0.5


# ----------------------------------------------------------------------
# Registry: families, snapshot, Prometheus rendering
# ----------------------------------------------------------------------
def parse_prometheus(text):
    """Mini-parser for exposition format: {name: {"type":…, "samples": {…}}}.

    Raises on malformed lines, so tests using it validate the whole scrape.
    """
    out = {}
    current = None
    for line in text.splitlines():
        if not line:
            raise AssertionError("blank line in exposition output")
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            out[name] = {"type": kind, "samples": {}}
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        name_and_labels, _, value = line.rpartition(" ")
        assert name_and_labels and current is not None, line
        base = name_and_labels.split("{", 1)[0]
        stripped = base
        for suffix in ("_bucket", "_sum", "_count"):
            if out[current]["type"] == "histogram" and base.endswith(suffix):
                stripped = base[: -len(suffix)]
                break
        assert stripped == current, f"sample {line!r} outside family {current}"
        out[current]["samples"][name_and_labels] = (
            math.inf if value == "+Inf" else float(value))
    return out


class TestRegistry:
    def test_counter_families_and_label_consistency(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", state="done").inc(3)
        reg.counter("jobs_total", state="error").inc()
        snap = reg.snapshot()
        assert snap["jobs_total"]["values"] == {"state=done": 3, "state=error": 1}
        with pytest.raises(ValueError, match="previously"):
            reg.counter("jobs_total", reason="oops")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("jobs_total")

    def test_render_parses_and_counts_are_cumulative(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", help="Jobs.", state="done").inc(2)
        reg.gauge("repro_queue_depth").set(4)
        h = reg.histogram("repro_compile_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        families = parse_prometheus(reg.render())
        assert families["repro_jobs_total"]["type"] == "counter"
        assert families["repro_jobs_total"]["samples"][
            'repro_jobs_total{state="done"}'] == 2
        assert families["repro_queue_depth"]["samples"]["repro_queue_depth"] == 4
        samples = families["repro_compile_seconds"]["samples"]
        # Cumulative buckets: 1 <= 2 <= 3 (+Inf), count == +Inf bucket.
        assert samples['repro_compile_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_compile_seconds_bucket{le="1"}'] == 2
        assert samples['repro_compile_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_compile_seconds_count"] == 3
        assert samples["repro_compile_seconds_sum"] == pytest.approx(5.55)

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("weird_total", path='a\\b"c\nd').inc()
        text = reg.render()
        assert 'path="a\\\\b\\"c\\nd"' in text
        # And the escaped text still round-trips through the parser.
        families = parse_prometheus(text)
        assert list(families["weird_total"]["samples"].values()) == [1.0]

    def test_help_escaping_and_empty_registry(self):
        reg = MetricsRegistry()
        assert reg.render() == ""
        reg.counter("c_total", help="line1\nline2 \\ slash").inc()
        assert "# HELP c_total line1\\nline2 \\\\ slash" in reg.render()

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.reset()
        assert reg.snapshot() == {}


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([]) == {
            "n": 0, "p50_ms": None, "p99_ms": None,
            "min_ms": None, "max_ms": None}

    def test_bench_buckets_resolve_warm_vs_cold(self):
        # The seed bench's real numbers: warm ~3.9 ms vs cold ~10.6 ms must
        # not collapse into one bucket.
        warm = latency_summary([0.0038, 0.0042, 0.0040], BENCH_LATENCY_BUCKETS)
        cold = latency_summary([0.0106, 0.0110, 0.0108], BENCH_LATENCY_BUCKETS)
        assert warm["p50_ms"] < cold["p50_ms"]
        assert warm["min_ms"] == 3.8 and cold["max_ms"] == 11.0


# ----------------------------------------------------------------------
# Metric-counter races: the single choke point under 16 threads
# ----------------------------------------------------------------------
class TestCounterRaces:
    def test_sixteen_thread_hammer_exact_totals(self, tmp_path):
        registry = MetricsRegistry()
        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=1, registry=registry) as queue:
            names = ["submitted", "coalesced", "executed", "errors", "retried"]
            per_thread = 250
            barrier = threading.Barrier(16)

            def hammer():
                barrier.wait()
                for i in range(per_thread):
                    queue._count(names[i % len(names)])

            threads = [threading.Thread(target=hammer) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            stats = queue.stats()
            expected = 16 * per_thread // len(names)
            for name in names:
                assert stats[name] == expected, name
            snap = registry.snapshot()
            assert snap["repro_jobs_submitted_total"]["values"][""] == expected
            assert snap["repro_jobs_coalesced_total"]["values"][""] == expected
            assert snap["repro_jobs_total"]["values"]["state=done"] == expected
            assert snap["repro_jobs_total"]["values"]["state=error"] == expected
            assert snap["repro_job_retries_total"]["values"][""] == expected

    def test_queue_metrics_reach_registry_end_to_end(self, tmp_path):
        registry = MetricsRegistry()
        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=2, registry=registry) as queue:
            record, _ = queue.submit(CompileRequest(case="hubbard:1x2"))
            assert queue.wait(record.id, timeout=120).status == "done"
        snap = registry.snapshot()
        assert snap["repro_jobs_submitted_total"]["values"][""] == 1
        assert snap["repro_jobs_total"]["values"]["state=done"] == 1
        job_seconds = snap["repro_job_seconds"]["values"][""]
        assert job_seconds["count"] == 1 and job_seconds["sum"] > 0
        assert snap["repro_queue_depth"]["values"][""] == 0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_no_active_trace_by_default(self):
        assert current_trace() is None
        assert current_trace_id() is None

    def test_activate_and_span_record(self):
        reg = MetricsRegistry()
        ctx = TraceContext("abc123")
        with activate(ctx):
            assert current_trace_id() == "abc123"
            with span("fingerprint", registry=reg):
                pass
        assert current_trace() is None
        spans = ctx.spans
        assert len(spans) == 1 and spans[0]["stage"] == "fingerprint"
        assert spans[0]["seconds"] >= 0
        snap = reg.snapshot()
        assert snap["repro_stage_seconds"]["values"]["stage=fingerprint"][
            "count"] == 1

    def test_span_without_active_trace_still_observes_metric(self):
        reg = MetricsRegistry()
        with span("routing", registry=reg):
            pass
        assert "repro_stage_seconds" in reg.snapshot()

    def test_to_dict_round_trip(self):
        ctx = TraceContext("deadbeef")
        ctx.record("construction", 0.25)
        clone = TraceContext.from_dict(
            json.loads(json.dumps(ctx.to_dict())))
        assert clone.trace_id == "deadbeef"
        assert clone.spans == [{"stage": "construction", "seconds": 0.25,
                                "parent": None, "self_seconds": 0.25}]
        assert clone.summary()["stages"] == {
            "construction": {"seconds": 0.25, "self_seconds": 0.25, "count": 1}}

    def test_from_dict_accepts_spans_without_nesting_fields(self):
        clone = TraceContext.from_dict({"trace_id": "old", "spans": [
            {"stage": "routing", "seconds": 0.5},
            {"stage": "fingerprint", "seconds": 0.125, "parent": "construction",
             "self_seconds": 0.125},
        ]})
        routing, fingerprint = clone.spans
        assert routing["parent"] is None and routing["self_seconds"] == 0.5
        assert fingerprint["parent"] == "construction"
        assert clone.summary()["stage_total_seconds"] == 0.625

    def test_trace_round_trips_through_process_pool(self, tmp_path):
        """The real serving path: a trace dict rides the pickled args into a
        pool worker, which re-activates it and ships spans back."""
        request = CompileRequest(case="hubbard:1x2").to_dict()
        with ProcessPoolExecutor(
                max_workers=1, mp_context=pool_context()) as pool:
            future = pool.submit(
                execute_request, request, str(tmp_path / "cache"), True,
                {"trace_id": "feedface01", "spans": []})
            out = future.result(timeout=120)
        assert out["trace"]["trace_id"] == "feedface01"
        spans = {s["stage"]: s for s in out["trace"]["spans"]}
        assert "fingerprint" in spans and "tree_construction" in spans
        # A map job opens no enclosing span, so the build is top-level.
        tree = spans["tree_construction"]
        assert tree["parent"] is None
        assert 0 <= tree["self_seconds"] <= tree["seconds"]

    def test_nested_spans_record_parent_and_self_seconds(self):
        reg = MetricsRegistry()
        ctx = TraceContext()
        with activate(ctx):
            with span("construction", registry=reg):
                with span("fingerprint", registry=reg):
                    pass
                with span("tree_construction", registry=reg):
                    with span("hatt", registry=reg):
                        pass
            with span("routing", registry=reg):
                pass
        by_stage = {s["stage"]: s for s in ctx.spans}
        assert [s["stage"] for s in ctx.spans] == [
            "fingerprint", "hatt", "tree_construction", "construction", "routing"]
        assert by_stage["construction"]["parent"] is None
        assert by_stage["fingerprint"]["parent"] == "construction"
        assert by_stage["tree_construction"]["parent"] == "construction"
        assert by_stage["hatt"]["parent"] == "tree_construction"
        assert by_stage["routing"]["parent"] is None
        outer = by_stage["construction"]
        children = by_stage["fingerprint"]["seconds"] + \
            by_stage["tree_construction"]["seconds"]
        assert outer["self_seconds"] == pytest.approx(outer["seconds"] - children)
        for s in ctx.spans:
            assert 0 <= s["self_seconds"] <= s["seconds"]
        # The histogram still observes each span's total seconds.
        hist = reg.snapshot()["repro_stage_seconds"]["values"]
        assert hist["stage=construction"]["sum"] == pytest.approx(outer["seconds"])

    def test_summary_total_is_sum_of_self_seconds(self):
        ctx = TraceContext()
        started = time.perf_counter()
        with activate(ctx):
            for _ in range(3):
                with span("construction"):
                    with span("fingerprint"):
                        time.sleep(0.001)
                    time.sleep(0.001)
        wall = time.perf_counter() - started
        summary = ctx.summary()
        stages = summary["stages"]
        assert stages["construction"]["count"] == 3
        assert stages["fingerprint"]["count"] == 3
        assert summary["stage_total_seconds"] == pytest.approx(
            sum(s["self_seconds"] for s in stages.values()), abs=1e-5)
        # Nested time counts once: the total is the outer stage's seconds,
        # not outer + inner.
        assert summary["stage_total_seconds"] == pytest.approx(
            stages["construction"]["seconds"], abs=1e-5)
        assert summary["stage_total_seconds"] <= wall

    def test_activate_starts_a_fresh_span_stack(self):
        inner = TraceContext()
        with span("outer"):
            with activate(inner):
                with span("fingerprint"):
                    pass
        assert inner.spans[0]["parent"] is None


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
class TestLogging:
    def _record(self, msg="hello", **extra):
        record = logging.LogRecord(
            "repro.service", logging.INFO, __file__, 1, msg, (), None)
        for k, v in extra.items():
            setattr(record, k, v)
        return record

    def test_json_formatter_basic_fields(self):
        doc = json.loads(JsonFormatter().format(self._record()))
        assert doc["level"] == "info"
        assert doc["logger"] == "repro.service"
        assert doc["message"] == "hello"
        assert "trace_id" not in doc

    def test_json_formatter_pulls_trace_from_context(self):
        with activate(TraceContext("cafe01")):
            doc = json.loads(JsonFormatter().format(self._record()))
        assert doc["trace_id"] == "cafe01"

    def test_json_formatter_extra_fields(self):
        doc = json.loads(JsonFormatter().format(
            self._record(trace_id="t1", fingerprint="ff", seconds=1.5)))
        assert doc["trace_id"] == "t1"
        assert doc["fingerprint"] == "ff" and doc["seconds"] == 1.5

    def test_configure_logging_idempotent_and_validating(self):
        logger = configure_logging(fmt="json", level="warning")
        try:
            logger = configure_logging(fmt="json", level="warning")
            assert len(logger.handlers) == 1
            assert logger.level == logging.WARNING
            with pytest.raises(ValueError, match="unknown log format"):
                configure_logging(fmt="xml")
            with pytest.raises(ValueError, match="unknown log level"):
                configure_logging(level="loud")
        finally:
            # Leave the shared "repro" logger as other tests expect it.
            for handler in list(logger.handlers):
                logger.removeHandler(handler)
            logger.propagate = True
            logger.setLevel(logging.NOTSET)

    def test_slow_compile_threshold_override(self):
        try:
            set_slow_compile_threshold(0.5)
            assert slow_compile_threshold() == 0.5
        finally:
            set_slow_compile_threshold(None)
        assert slow_compile_threshold() == 30.0

    def test_slow_compile_warning_carries_trace_id(self, tmp_path):
        captured = []

        class Capture(logging.Handler):
            def emit(self, record):
                captured.append(record)

        logger = logging.getLogger("repro.service")
        handler = Capture(level=logging.WARNING)
        logger.addHandler(handler)
        try:
            set_slow_compile_threshold(0.0)  # every compile is "slow"
            service = MappingService(cache_dir=tmp_path / "cache")
            from repro.service import MappingSpec
            from repro.sources import build_case

            ctx = TraceContext("f00dd00d")
            with activate(ctx):
                service.get_or_compile(
                    build_case("hubbard:1x2"), MappingSpec(kind="jw"))
        finally:
            set_slow_compile_threshold(None)
            logger.removeHandler(handler)
        warnings = [r for r in captured if "slow compile" in r.getMessage()]
        assert warnings, [r.getMessage() for r in captured]
        assert warnings[0].trace_id == "f00dd00d"
