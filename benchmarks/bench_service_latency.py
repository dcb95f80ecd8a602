"""Served-API latency: p50/p99 and RPS under concurrent warm/cold mixes.

Drives a real ``repro.serve`` stack — asyncio HTTP server, coalescing job
queue, LRU-capped caches — with stdlib HTTP clients and measures:

* **cold** — first-touch compiles, one per case (server-side compile
  dominates the round trip);
* **warm** — repeated identical requests served from the memory LRU / disk
  store, hammered by ``WARM_THREADS`` concurrent clients (reported as
  p50/p99 latency and aggregate requests-per-second);
* **coalesce** — ``COALESCE_N`` identical cold submissions fired back-to-back
  while both workers are pinned on slow compile jobs, so every submission
  arrives while the shared job is still queued; the queue must collapse them
  into **exactly one** executed compile (the enforced coalescing floor);
* **mixed** — concurrent clients issuing warm traffic while a cold compile
  lands, the realistic serving profile.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke step) for a reduced run that still
enforces the coalescing floor and the warm-faster-than-cold ordering.
Results go to ``benchmarks/results/`` and, for canonical non-smoke runs, the
committed repo-root ``BENCH_service_latency.json``.

Methodology: every case Hamiltonian here is synthetic (Hubbard/neutrino
lattices, no SCF solve), so cold timings measure the service, not integral
generation.  Latencies are measured client-side around one ``POST
/v1/jobs?wait=1`` round trip, so they include HTTP framing + envelope
(de)serialization — the number a real client sees.
"""

import os
import threading
import time
from pathlib import Path

import pytest

from conftest import full_run
from repro.analysis import format_table, write_result, write_result_json
from repro.sources import build_case
from repro.obs.metrics import BENCH_LATENCY_BUCKETS, latency_summary
from repro.obs.trace import TraceContext
from repro.serve import BackgroundServer, CompileRequest, JobQueue, ServiceClient
from repro.service import MappingService

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")

#: Identical cold submissions that must collapse into one compile.
COALESCE_N = 8 if SMOKE else 16

#: Concurrent warm clients × requests per client.
WARM_THREADS = 2 if SMOKE else 4
WARM_REQUESTS = 10 if SMOKE else 25

if SMOKE:
    COLD_CASES = ["hubbard:1x2", "hubbard:2x2"]
    COALESCE_CASE = "hubbard:2x3"
elif full_run():
    COLD_CASES = ["hubbard:2x2", "hubbard:2x3", "hubbard:3x3",
                  "neutrino:4x2F", "neutrino:5x2F"]
    COALESCE_CASE = "hubbard:3x4"
else:
    COLD_CASES = ["hubbard:2x2", "hubbard:2x3", "hubbard:3x3", "neutrino:4x2F"]
    COALESCE_CASE = "hubbard:3x4"

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_service_latency.json"


def _percentiles(samples):
    # Same fine-grained geometric buckets the serving metrics use — bench
    # percentiles and /v1/metrics histograms come from one implementation.
    return latency_summary(samples, buckets=BENCH_LATENCY_BUCKETS)


def _timed_submit(client, request):
    start = time.perf_counter()
    record = client.submit(request, wait=True, timeout=600)
    return time.perf_counter() - start, record


@pytest.fixture(scope="module")
def latency_bench(tmp_path_factory):
    base = tmp_path_factory.mktemp("serve-bench")
    for case in COLD_CASES + [COALESCE_CASE]:
        build_case(case)  # construct outside any timer

    service = MappingService(cache_dir=base / "cache")
    with JobQueue(service=service, workers=2) as queue, \
            BackgroundServer(queue) as bg:
        client = ServiceClient(bg.host, bg.port)

        # -- cold ------------------------------------------------------
        cold_lat, cold_records = [], []
        for case in COLD_CASES:
            dt, record = _timed_submit(client, CompileRequest(case=case))
            assert record.status == "done", record.error
            assert record.source == "compiled"
            cold_lat.append(dt)
            cold_records.append(record)

        # -- stage breakdown of one cold compile ----------------------
        # A fresh fingerprint (non-default kind) so the compile is cold;
        # the per-stage spans ride back in the job result's trace block.
        stage_dt, stage_record = _timed_submit(
            client, CompileRequest(case=COLD_CASES[0], kind="bk"))
        assert stage_record.source == "compiled", stage_record.source
        stage_trace = TraceContext.from_dict(stage_record.result["trace"])
        cold_stage_breakdown = {
            "case": COLD_CASES[0],
            "kind": "bk",
            "wall_seconds": round(stage_dt, 6),
            **stage_trace.summary(),
        }

        # -- warm (serial, uncontended) -------------------------------
        # One client, one request in flight: the pure cache-hit round trip,
        # comparable 1:1 against the cold numbers above.
        warm_serial_lat = []
        for i in range(3 * len(COLD_CASES)):
            case = COLD_CASES[i % len(COLD_CASES)]
            dt, record = _timed_submit(client, CompileRequest(case=case))
            assert record.source in ("memory", "disk"), record.source
            warm_serial_lat.append(dt)

        # -- warm (concurrent clients) --------------------------------
        warm_lat, warm_sources, errors = [], [], []
        lock = threading.Lock()

        def warm_worker(thread_idx):
            try:
                with ServiceClient(bg.host, bg.port) as c:
                    local_lat, local_src = [], []
                    for i in range(WARM_REQUESTS):
                        case = COLD_CASES[(thread_idx + i) % len(COLD_CASES)]
                        dt, record = _timed_submit(c, CompileRequest(case=case))
                        local_lat.append(dt)
                        local_src.append(record.source)
                    with lock:
                        warm_lat.extend(local_lat)
                        warm_sources.extend(local_src)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        warm_start = time.perf_counter()
        threads = [threading.Thread(target=warm_worker, args=(i,))
                   for i in range(WARM_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        warm_wall = time.perf_counter() - warm_start
        assert not errors, errors
        warm_rps = len(warm_lat) / warm_wall

        # -- coalesce --------------------------------------------------
        # Two slow compile-job "plugs" occupy both workers first, so the
        # COALESCE_N submissions below all land while their shared map job
        # is still queued: the fan-out window is bounded by a full
        # synthesis+routing compile (hundreds of ms), not by a small map
        # compile that could finish mid-fan-out and split the jobs.
        executed_before = queue.stats()["executed"]
        plugs = [
            client.submit(CompileRequest(case=COALESCE_CASE, job="compile",
                                         kind=kind, arch="manhattan"))
            for kind in ("jw", "bk")
        ]
        request = CompileRequest(case=COALESCE_CASE)
        fan_start = time.perf_counter()
        first = client.submit(request)  # no wait: returns while queued
        followers = [client.submit(request) for _ in range(COALESCE_N - 1)]
        submit_wall = time.perf_counter() - fan_start
        status_after_fanout = queue.get(first.id).status
        for plug in plugs:
            assert queue.wait(plug.id, timeout=600).status == "done"
        done = queue.wait(first.id, timeout=600)
        coalesce_wall = time.perf_counter() - fan_start
        assert done.status == "done", done.error
        coalesce = {
            "n": COALESCE_N,
            "job_ids": len({r.id for r in [first] + followers}),
            "subscribers": queue.get(first.id).subscribers,
            "executed": queue.stats()["executed"] - executed_before - len(plugs),
            "status_after_fanout": status_after_fanout,
            "submit_wall_s": round(submit_wall, 6),
            "wall_s": round(coalesce_wall, 6),
        }

        # -- mixed warm/cold ------------------------------------------
        mixed_lat, mixed_cold_lat = [], []

        def mixed_warm_worker(thread_idx):
            with ServiceClient(bg.host, bg.port) as c:
                local = []
                for i in range(WARM_REQUESTS):
                    case = COLD_CASES[(thread_idx + i) % len(COLD_CASES)]
                    dt, _ = _timed_submit(c, CompileRequest(case=case))
                    local.append(dt)
                with lock:
                    mixed_lat.extend(local)

        def mixed_cold_worker():
            with ServiceClient(bg.host, bg.port) as c:
                dt, record = _timed_submit(
                    c, CompileRequest(case=COALESCE_CASE, kind="btt"))
                assert record.source == "compiled"
                mixed_cold_lat.append(dt)

        mixed_start = time.perf_counter()
        threads = [threading.Thread(target=mixed_warm_worker, args=(i,))
                   for i in range(WARM_THREADS)]
        threads.append(threading.Thread(target=mixed_cold_worker))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        mixed_wall = time.perf_counter() - mixed_start

        stats = client.stats()
        client.close()

    warm_stats = _percentiles(warm_lat)
    warm_serial_stats = _percentiles(warm_serial_lat)
    mixed_stats = _percentiles(mixed_lat)
    cold_stats = _percentiles(cold_lat)
    rows = [
        [f"cold x{len(cold_lat)}", cold_stats["p50_ms"], cold_stats["p99_ms"], "-"],
        [f"warm x{len(warm_serial_lat)} (serial)", warm_serial_stats["p50_ms"],
         warm_serial_stats["p99_ms"], "-"],
        [f"warm x{len(warm_lat)} ({WARM_THREADS} clients)",
         warm_stats["p50_ms"], warm_stats["p99_ms"], f"{warm_rps:.0f}"],
        [f"mixed x{len(mixed_lat)}+1 cold", mixed_stats["p50_ms"],
         mixed_stats["p99_ms"], f"{len(mixed_lat) / mixed_wall:.0f}"],
        [f"coalesce x{COALESCE_N}", "-", "-",
         f"{coalesce['executed']} compile(s)"],
    ]
    content = format_table(
        "served-API latency (POST /v1/jobs?wait=1 round trips)",
        ["phase", "p50 ms", "p99 ms", "RPS / note"],
        rows,
    )
    write_result("service_latency", content)
    payload = {
        "smoke": SMOKE,
        "full": full_run(),
        "cpu_count": os.cpu_count(),
        "cold_cases": COLD_CASES,
        "coalesce_case": COALESCE_CASE,
        "executor": "thread",
        "workers": 2,
        "cold": cold_stats,
        "cold_stage_breakdown": cold_stage_breakdown,
        "warm_serial": warm_serial_stats,
        "warm": {**warm_stats, "rps": round(warm_rps, 1),
                 "threads": WARM_THREADS},
        "mixed": {**mixed_stats,
                  "rps": round(len(mixed_lat) / mixed_wall, 1),
                  "cold_ms": round(mixed_cold_lat[0] * 1e3, 3)},
        "coalesce": coalesce,
        "queue_stats": {k: stats[k] for k in
                        ("submitted", "coalesced", "executed", "errors")},
        "service_stats": {k: stats["service"][k] for k in
                          ("compiles", "hits_memory", "hits_disk", "hit_rate")},
    }
    write_result_json("service_latency", payload)
    if not SMOKE:
        # Canonical runs refresh the committed repo-root artifact.
        write_result_json("service_latency", payload, path=JSON_PATH)
    return payload, warm_sources


def test_coalescing_floor(latency_bench):
    """Acceptance: N identical cold submissions execute exactly one compile."""
    payload, _ = latency_bench
    assert payload["coalesce"]["job_ids"] == 1, payload["coalesce"]
    assert payload["coalesce"]["executed"] == 1, payload["coalesce"]
    assert payload["coalesce"]["subscribers"] == COALESCE_N


def test_warm_requests_served_from_cache(latency_bench):
    _, warm_sources = latency_bench
    assert warm_sources and all(s in ("memory", "disk") for s in warm_sources)


def test_warm_latency_beats_cold(latency_bench):
    """An uncontended warm round trip undercuts the median cold compile."""
    payload, _ = latency_bench
    assert payload["warm_serial"]["p50_ms"] < payload["cold"]["p50_ms"]


def test_no_job_errors(latency_bench):
    payload, _ = latency_bench
    assert payload["queue_stats"]["errors"] == 0


def test_json_written(latency_bench):
    if not SMOKE:
        assert JSON_PATH.exists()
