"""Talk to the compilation service over HTTP (`repro serve` in miniature).

Self-contained: spins up the real asyncio server on an ephemeral port via
``BackgroundServer``, then drives it with the stdlib ``ServiceClient``:

* submit-and-wait — a cold ``map`` job compiles server-side, warm reruns are
  served from the memory LRU / disk store;
* coalescing — concurrent identical cold submissions collapse into exactly
  one executed compile, every client sharing the same job record;
* artifacts — fetch the stored mapping / routed-circuit document by
  fingerprint, straight from the content-addressed store;
* stats — queue, service, and server counters from ``GET /v1/stats``.

Against a standalone server (``repro serve --port 8035``) the client half of
this file works unchanged — point ``ServiceClient`` at that host/port.

Run:  python examples/serve_client.py
(artifacts land in a temporary directory; nothing persists)
"""

import os
import tempfile
import threading
import time

from repro.serve import (
    BackgroundServer,
    CompileRequest,
    JobQueue,
    ServiceClient,
    ServiceError,
    faults,
)
from repro.service import MappingService


def submit_and_wait(client: ServiceClient) -> None:
    print("=" * 64)
    print("POST /v1/jobs?wait=1 : cold compile, then warm cache hits")
    print("=" * 64)
    request = CompileRequest(case="hubbard:2x2", job="map", kind="hatt")
    for label in ("cold", "warm"):
        start = time.perf_counter()
        record = client.submit(request, wait=True, timeout=300)
        wall_ms = (time.perf_counter() - start) * 1e3
        assert record.status == "done", record.error
        print(f"  {label}: job={record.id} source={record.source:<8} "
              f"{wall_ms:8.2f} ms")
    print()


def coalescing(client: ServiceClient, queue: JobQueue) -> None:
    """Six identical submissions share one job while it is in flight.

    A cold compile of this case takes milliseconds, shorter than six HTTP
    round trips, so the ``slow_compile`` fault point holds the one executed
    job open for a second (``REPRO_FAULTS=slow_compile:1:1:1``) and every
    submission lands while it runs.
    """
    print("=" * 64)
    print("Coalescing: 6 concurrent identical cold submissions, 1 compile")
    print("=" * 64)
    request = CompileRequest(case="hubbard:2x3", job="map", kind="hatt")
    executed_before = queue.stats()["executed"]
    records, lock = [], threading.Lock()

    def worker():
        with ServiceClient(client.host, client.port) as c:
            record = c.submit(request, wait=True, timeout=300)
            with lock:
                records.append(record)

    os.environ[faults.FAULTS_ENV] = "slow_compile:1:1:1"
    faults.reset()
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        os.environ.pop(faults.FAULTS_ENV, None)
        faults.reset()
    executed = queue.stats()["executed"] - executed_before
    print(f"  job ids seen: {sorted({r.id for r in records})}")
    print(f"  compiles executed: {executed}")
    print(f"  subscribers on the shared job: "
          f"{queue.get(records[0].id).subscribers}\n")
    assert executed == 1 and len({r.id for r in records}) == 1


def artifacts(client: ServiceClient) -> None:
    print("=" * 64)
    print("GET /v1/artifacts/{fp} : mapping and routed-circuit documents")
    print("=" * 64)
    mapped = client.submit(
        CompileRequest(case="hubbard:1x2", job="map", kind="hatt"),
        wait=True, timeout=300)
    doc = client.artifact(mapped.fingerprint)
    print(f"  map job      -> {doc['namespace']}/{mapped.fingerprint[:16]}… "
          f"(pauli_weight={mapped.result['pauli_weight']})")
    compiled = client.submit(
        CompileRequest(case="hubbard:1x2", job="compile", kind="jw",
                       arch="ionq_forte"),
        wait=True, timeout=300)
    doc = client.artifact(compiled.fingerprint)
    print(f"  compile job  -> {doc['namespace']}/{compiled.fingerprint[:16]}… "
          f"(routed_cx={doc['artifact']['routed_cx']})\n")


def resilient_submit(client: ServiceClient) -> None:
    """The recommended client-side retry discipline.

    The client never auto-retries a POST — the connection may die *after*
    the server processed it, and a blind retry could double-submit.  The
    loop below is the pattern instead: catch the typed error and re-submit
    (identical submissions coalesce server-side, so convergence is safe),
    and honor 503 ``Retry-After`` backpressure with a sleep.

    To make the transport branch actually run, one truncated HTTP response
    is injected via the fault harness (``REPRO_FAULTS=partial_write:1:0.5:1``).
    """
    print("=" * 64)
    print("Resilient submit: typed errors, re-submit to converge")
    print("=" * 64)
    os.environ[faults.FAULTS_ENV] = "partial_write:1:0.5:1"
    faults.reset()
    request = CompileRequest(case="hubbard:2x2", job="map", kind="hatt")
    record = None
    try:
        for attempt in range(1, 6):
            try:
                record = client.submit(request, wait=True, timeout=300)
                break
            except ServiceError as exc:
                if exc.kind == "connection":
                    print(f"  attempt {attempt}: transport died mid-POST -> "
                          "re-submit (coalesces server-side)")
                    continue
                if exc.status == 503:
                    delay = exc.retry_after or 1.0
                    print(f"  attempt {attempt}: shed with 503 -> "
                          f"sleep {delay:.1f}s, retry")
                    time.sleep(delay)
                    continue
                raise
    finally:
        os.environ.pop(faults.FAULTS_ENV, None)
        faults.reset()
    assert record is not None and record.status == "done", record
    print(f"  converged: job={record.id} source={record.source}\n")


def stats(client: ServiceClient) -> None:
    print("=" * 64)
    print("GET /v1/stats")
    print("=" * 64)
    doc = client.stats()
    queue_keys = ("submitted", "coalesced", "executed", "errors")
    print("  queue  :", {k: doc[k] for k in queue_keys})
    service_keys = ("compiles", "hits_memory", "hits_disk", "hit_rate")
    print("  service:", {k: doc["service"][k] for k in service_keys})
    print("  server :", doc["server"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="repro-serve-client-") as root:
        service = MappingService(cache_dir=root)
        with JobQueue(service=service, workers=2) as queue, \
                BackgroundServer(queue) as bg, \
                ServiceClient(bg.host, bg.port) as client:
            print(f"server listening on {bg.host}:{bg.port}\n")
            submit_and_wait(client)
            coalescing(client, queue)
            artifacts(client)
            resilient_submit(client)
            stats(client)
