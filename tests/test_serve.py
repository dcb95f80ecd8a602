"""Tests for the async compilation-service API (repro.serve).

Covers the three tentpole guarantees:

* **schema** — every wire type round-trips through plain JSON with strict
  validation;
* **coalescing** — N concurrent identical cold requests execute exactly one
  compile (asserted deterministically with a gated executor, and end-to-end
  over HTTP with threaded and asyncio clients);
* **serving** — the HTTP surface (submit/poll/wait, artifacts, stats, error
  statuses) speaks the versioned envelope, and server-side LRU caps bound
  disk usage.
"""

import asyncio
import http.client
import json
import logging
import threading
import time
import urllib.request

import pytest

import repro.serve.queue as queue_mod
from repro.serve import (
    AsyncServiceClient,
    BackgroundServer,
    CompileRequest,
    JobQueue,
    JobRecord,
    JobStatus,
    ServiceClient,
    ServiceError,
    check_envelope,
    envelope,
)
from repro.service import MappingService


# ----------------------------------------------------------------------
# Schema round-trips and validation
# ----------------------------------------------------------------------
class TestCompileRequestSchema:
    @pytest.mark.parametrize("request_", [
        CompileRequest(case="hubbard:2x2"),
        CompileRequest(case="H2_sto3g", kind="bk"),
        CompileRequest(case="hubbard:2x2", job="compile", arch="montreal",
                       term_order="lexicographic", lookahead=7),
    ])
    def test_roundtrip(self, request_):
        assert CompileRequest.from_dict(request_.to_dict()) == request_
        assert CompileRequest.from_dict(
            json.loads(json.dumps(request_.to_dict()))) == request_

    @pytest.mark.parametrize("kwargs,match", [
        ({"case": ""}, "non-empty case"),
        ({"case": "x", "job": "evaluate"}, "unknown job"),
        ({"case": "x", "kind": "qiskit"}, "unknown mapping kind"),
        ({"case": 7}, "non-empty case"),  # JSON bodies can carry any type
        ({"case": "x", "lookahead": "8"}, "positive int"),
        ({"case": "x", "term_order": "random"}, "unknown term order"),
        ({"case": "x", "lookahead": -1}, "positive int"),
        ({"case": "x", "lookahead": 1.5}, "positive int"),
        ({"case": "x", "job": "compile"}, "need arch"),
        ({"case": "x", "job": "compile", "arch": "osprey"}, "need arch"),
        ({"case": "x", "arch": "montreal"}, "map jobs take no arch"),
        ({"case": "x", "lookahead": True}, "positive int"),  # JSON true
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CompileRequest(**kwargs)

    def test_unknown_field_rejected(self):
        # Engine fields were removed in 1.1: old clients sending them fail
        # loudly instead of silently getting the default engine.
        for field in ("backend", "hatt_backend", "router_backend"):
            with pytest.raises(ValueError, match="unknown request fields"):
                CompileRequest.from_dict({"case": "x", field: "vector"})

    def test_missing_case_rejected(self):
        with pytest.raises(ValueError, match="non-empty case"):
            CompileRequest.from_dict({"kind": "jw"})

    def test_coalesce_key_separates_work(self):
        base = CompileRequest(case="hubbard:2x2")
        for other in (
            CompileRequest(case="hubbard:1x2"),
            CompileRequest(case="hubbard:2x2", kind="jw"),
            CompileRequest(case="hubbard:2x2", job="compile", arch="montreal"),
        ):
            assert base.coalesce_key() != other.coalesce_key()

    def test_bridges_into_compile_stack(self):
        r = CompileRequest(case="x", job="compile", arch="sycamore",
                           kind="btt", lookahead=9)
        assert r.spec().kind == "btt"
        assert r.options().lookahead == 9

    def test_replace(self):
        r = CompileRequest(case="hubbard:2x2").replace(kind="jw")
        assert r.kind == "jw" and r.case == "hubbard:2x2"


class TestJobRecordSchema:
    def _record(self):
        return JobRecord(
            id="j00000001",
            request=CompileRequest(case="hubbard:2x2"),
            status=JobStatus.DONE,
            created_at=1.0,
            started_at=2.0,
            finished_at=5.0,
            fingerprint="ab" * 32,
            source="compiled",
            subscribers=3,
            result={"pauli_weight": 76},
        )

    def test_roundtrip(self):
        record = self._record()
        back = JobRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert back == record
        assert back.done and back.wall_seconds == 4.0

    def test_bad_status_rejected(self):
        doc = self._record().to_dict()
        doc["status"] = "exploded"
        with pytest.raises(ValueError, match="unknown job status"):
            JobRecord.from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = self._record().to_dict()
        doc["priority"] = 9
        with pytest.raises(ValueError, match="unknown job-record fields"):
            JobRecord.from_dict(doc)

    def test_pending_record_has_no_wall_time(self):
        record = JobRecord(id="j1", request=CompileRequest(case="x"))
        assert not record.done and record.wall_seconds is None


class TestEnvelope:
    def test_shape_and_roundtrip(self):
        doc = envelope("stats", {"n": 1}, coalesced=True)
        assert doc == {"schema": "repro/v1", "command": "stats",
                       "result": {"n": 1}, "coalesced": True}
        assert check_envelope(json.loads(json.dumps(doc)), "stats") is not None

    @pytest.mark.parametrize("doc,match", [
        ([], "JSON object"),
        ({"command": "x", "result": 1}, "unsupported schema"),
        ({"schema": "repro/v0", "command": "x", "result": 1}, "unsupported schema"),
        ({"schema": "repro/v1", "command": "x"}, "needs 'command' and 'result'"),
    ])
    def test_rejections(self, doc, match):
        with pytest.raises(ValueError, match=match):
            check_envelope(doc)

    def test_command_mismatch(self):
        with pytest.raises(ValueError, match="expected command"):
            check_envelope(envelope("stats", 1), "jobs.get")


# ----------------------------------------------------------------------
# Job queue: lifecycle, coalescing, retention
# ----------------------------------------------------------------------
@pytest.fixture
def queue(tmp_path):
    service = MappingService(cache_dir=tmp_path / "cache")
    with JobQueue(service=service, workers=2) as q:
        yield q


class TestJobQueue:
    def test_map_job_lifecycle(self, queue):
        record, coalesced = queue.submit(CompileRequest(case="hubbard:2x2"))
        assert not coalesced and record.id == "j00000001"
        done = queue.wait(record.id, timeout=120)
        assert done.status == JobStatus.DONE and done.error is None
        assert done.result["pauli_weight"] == 76
        assert done.source == "compiled" and len(done.fingerprint) == 64
        assert done.wall_seconds is not None
        assert queue.stats()["executed"] == 1

    def test_warm_map_serves_the_stored_weight(self, queue, monkeypatch):
        """A warm ``map`` reads the weight its artifact recorded at compile
        time: no mapping is applied, and the figure is the cold one."""
        from repro.mappings import FermionQubitMapping

        request = CompileRequest(case="hubbard:2x2")
        cold = queue.wait(queue.submit(request)[0].id, timeout=120)
        calls = []
        original = FermionQubitMapping.map
        monkeypatch.setattr(
            FermionQubitMapping, "map",
            lambda self, op: calls.append(op) or original(self, op),
        )
        warm = queue.wait(queue.submit(request)[0].id, timeout=120)
        assert (cold.source, warm.source) == ("compiled", "memory")
        assert warm.result["pauli_weight"] == cold.result["pauli_weight"] == 76
        assert calls == []

    def test_compile_job_routes_circuit(self, queue):
        record, _ = queue.submit(CompileRequest(
            case="hubbard:1x2", job="compile", kind="jw", arch="montreal"))
        done = queue.wait(record.id, timeout=120)
        assert done.status == JobStatus.DONE
        assert done.result["metrics"]["routed_cx"] > 0
        assert queue.service.store.circuit_fingerprints() == [done.fingerprint]

    def test_bad_case_is_a_job_error(self, queue):
        record, _ = queue.submit(CompileRequest(case="no_such_case"))
        done = queue.wait(record.id, timeout=60)
        assert done.status == JobStatus.ERROR
        assert "ValueError" in done.error and done.result is None
        assert queue.stats()["errors"] == 1

    def test_unknown_job_raises(self, queue):
        assert queue.get("j99999999") is None
        with pytest.raises(KeyError):
            queue.wait("j99999999")

    def test_gated_coalescing_is_exactly_one_execution(self, queue, monkeypatch):
        gate = threading.Event()
        executions = []

        def fake_run(request, service):
            executions.append(request.case)
            assert gate.wait(30)
            return {"fingerprint": "ab" * 32, "source": "compiled"}

        monkeypatch.setattr(queue_mod, "_run_request", fake_run)
        request = CompileRequest(case="hubbard:2x2")
        first, coalesced = queue.submit(request)
        assert not coalesced
        followers = [queue.submit(request.replace(deadline=60.0))
                     for _ in range(7)]
        assert all(c for _, c in followers)
        assert {r.id for r, _ in followers} == {first.id}
        assert first.subscribers == 8
        gate.set()
        done = queue.wait(first.id, timeout=30)
        assert done.status == JobStatus.DONE
        assert executions == ["hubbard:2x2"]
        stats = queue.stats()
        assert stats["submitted"] == 8
        assert stats["coalesced"] == 7 and stats["executed"] == 1

    def test_key_released_after_completion(self, queue, monkeypatch):
        monkeypatch.setattr(
            queue_mod, "_run_request",
            lambda request, service: {"fingerprint": "cd" * 32, "source": "x"},
        )
        request = CompileRequest(case="hubbard:1x2")
        first, _ = queue.submit(request)
        queue.wait(first.id, timeout=30)
        second, coalesced = queue.submit(request)
        assert not coalesced and second.id != first.id
        queue.wait(second.id, timeout=30)

    def test_distinct_requests_do_not_coalesce(self, queue, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            queue_mod, "_run_request",
            lambda request, service: (gate.wait(30) and None)
            or {"fingerprint": "ef" * 32, "source": "x"},
        )
        a, _ = queue.submit(CompileRequest(case="hubbard:2x2"))
        b, coalesced = queue.submit(CompileRequest(case="hubbard:2x2", kind="jw"))
        assert not coalesced and a.id != b.id
        gate.set()
        queue.wait(a.id, timeout=30)
        queue.wait(b.id, timeout=30)

    def test_completed_job_retention_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            queue_mod, "_run_request",
            lambda request, service: {"fingerprint": "01" * 32, "source": "x"},
        )
        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=1, max_jobs=2) as q:
            for i in range(6):
                record, _ = q.submit(CompileRequest(case=f"hubbard:{i + 1}x2"))
                q.wait(record.id, timeout=30)
            assert sum(q.stats()["jobs"].values()) <= 2

    def test_process_executor_shares_disk_store(self, tmp_path):
        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=1, executor="process") as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2", kind="jw"))
            done = q.wait(record.id, timeout=300)
            assert done.status == JobStatus.DONE, done.error
            # The worker process wrote into the shared store.
            assert service.store.contains(done.fingerprint)
            again, _ = q.submit(CompileRequest(case="hubbard:1x2", kind="jw"))
            warm = q.wait(again.id, timeout=300)
            assert warm.status == JobStatus.DONE and warm.source == "disk"

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            JobQueue(executor="gpu")


# ----------------------------------------------------------------------
# HTTP end-to-end
# ----------------------------------------------------------------------
@pytest.fixture
def served(tmp_path):
    service = MappingService(cache_dir=tmp_path / "cache")
    with JobQueue(service=service, workers=2) as q, BackgroundServer(q) as bg:
        yield q, bg


class TestHttpServer:
    def test_healthz_and_stats(self, served):
        _q, bg = served
        with ServiceClient(bg.host, bg.port) as client:
            assert client.healthy()
            stats = client.stats()
            assert stats["executor"] == "thread"
            assert stats["server"]["port"] == bg.port
            assert stats["service"]["memory_entries"] == 0

    def test_submit_wait_poll_and_artifact(self, served):
        _q, bg = served
        with ServiceClient(bg.host, bg.port) as client:
            record = client.submit(
                CompileRequest(case="hubbard:2x2"), wait=True, timeout=120)
            assert record.status == JobStatus.DONE
            assert record.result["pauli_weight"] == 76
            polled = client.job(record.id)
            assert polled.id == record.id and polled.status == JobStatus.DONE
            artifact = client.artifact(record.fingerprint)
            assert artifact["namespace"] == "mappings"
            assert artifact["artifact"]["schema"] == 2

    def test_eight_concurrent_cold_requests_compile_once(self, served, monkeypatch):
        """The acceptance e2e: N=8 identical cold submissions → 1 compile.

        The (real) compile is gated until every client's submission has
        registered, so the exactly-one-compile assertion doesn't depend on
        compile wall time racing the HTTP round trips.
        """
        queue, bg = served
        all_submitted = threading.Event()
        real_run = queue_mod._run_request
        monkeypatch.setattr(
            queue_mod, "_run_request",
            lambda request, service: (all_submitted.wait(60) and None)
            or real_run(request, service),
        )
        request = CompileRequest(case="hubbard:2x2")
        records, errors = [], []

        def client_thread():
            try:
                with ServiceClient(bg.host, bg.port) as client:
                    records.append(client.submit(request, wait=True, timeout=300))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client_thread) for _ in range(8)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while queue.stats()["submitted"] < 8 and time.monotonic() < deadline:
            time.sleep(0.01)
        all_submitted.set()
        for t in threads:
            t.join()
        assert not errors
        assert len(records) == 8
        assert {r.id for r in records} == {records[0].id}  # one shared job
        assert all(r.status == JobStatus.DONE for r in records)
        stats = queue.stats()
        assert stats["executed"] == 1
        assert stats["coalesced"] == 7
        assert stats["service"]["compiles"] == 1
        # A later identical request is a fresh job served from warm cache.
        with ServiceClient(bg.host, bg.port) as client:
            warm = client.submit(request, wait=True, timeout=60)
        assert warm.id != records[0].id
        assert warm.source in ("memory", "disk")

    def test_asyncio_clients_coalesce(self, served, monkeypatch):
        queue, bg = served
        all_submitted = threading.Event()
        real_run = queue_mod._run_request
        monkeypatch.setattr(
            queue_mod, "_run_request",
            lambda request, service: (all_submitted.wait(60) and None)
            or real_run(request, service),
        )

        def release_when_all_in():
            deadline = time.monotonic() + 30
            while queue.stats()["submitted"] < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            all_submitted.set()

        threading.Thread(target=release_when_all_in, daemon=True).start()
        request = CompileRequest(case="hubbard:2x2", kind="btt")

        async def main():
            client = AsyncServiceClient(bg.host, bg.port)
            return await asyncio.gather(
                *(client.submit(request, wait=True, timeout=300)
                  for _ in range(8))
            )

        records = asyncio.run(main())
        assert {r.id for r in records} == {records[0].id}
        assert all(r.status == JobStatus.DONE for r in records)
        assert queue.stats()["executed"] == 1

        async def poll():
            client = AsyncServiceClient(bg.host, bg.port)
            record = await client.job(records[0].id)
            stats = await client.stats()
            return record, stats

        polled, stats = asyncio.run(poll())
        assert polled.status == JobStatus.DONE
        assert stats["service"]["compiles"] == 1

    def test_compile_job_artifact_served_from_circuits_namespace(self, served):
        _q, bg = served
        with ServiceClient(bg.host, bg.port) as client:
            record = client.submit(
                CompileRequest(case="hubbard:1x2", job="compile", kind="jw",
                               arch="ionq_forte"),
                wait=True, timeout=300)
            assert record.status == JobStatus.DONE
            artifact = client.artifact(record.fingerprint)
            assert artifact["namespace"] == "circuits"
            assert artifact["artifact"]["routed_cx"] > 0

    def test_compile_job_accepts_lookahead_zero(self, served):
        """The served API takes the library's ``lookahead`` range: 0 routes
        on the front gate alone."""
        _q, bg = served
        with ServiceClient(bg.host, bg.port) as client:
            record = client.submit(
                CompileRequest(case="hubbard:1x2", job="compile", kind="jw",
                               arch="montreal", lookahead=0),
                wait=True, timeout=300)
            assert record.status == JobStatus.DONE, record.error
            assert record.request.lookahead == 0
            assert record.result["metrics"]["routed_cx"] > 0

    def test_malformed_fingerprint_is_400(self, served):
        _q, bg = served
        with ServiceClient(bg.host, bg.port) as client:
            with pytest.raises(ServiceError) as err:
                client.artifact("zz" * 16)
            assert err.value.status == 400

    def test_wait_timeout_degrades_to_poll(self, served, monkeypatch):
        queue, bg = served
        gate = threading.Event()
        monkeypatch.setattr(
            queue_mod, "_run_request",
            lambda request, service: (gate.wait(30) and None)
            or {"fingerprint": "aa" * 32, "source": "compiled"},
        )
        with ServiceClient(bg.host, bg.port) as client:
            record = client.submit(
                CompileRequest(case="hubbard:2x2"), wait=True, timeout=0.2)
            assert not record.done  # 202: still in flight after the timeout
            gate.set()
            queue.wait(record.id, timeout=30)
            assert client.job(record.id).status == JobStatus.DONE

    @pytest.mark.parametrize("body,match", [
        ({"case": "x", "bogus": 1}, "unknown request fields"),
        ({"kind": "jw"}, "non-empty case"),
    ])
    def test_invalid_request_is_400(self, served, body, match):
        _q, bg = served
        with ServiceClient(bg.host, bg.port) as client:
            with pytest.raises(ServiceError, match=match) as err:
                client.submit(body)
            assert err.value.status == 400

    def test_malformed_json_body_is_400(self, served):
        _q, bg = served
        req = urllib.request.Request(
            f"http://{bg.host}:{bg.port}/v1/jobs", data=b"{ torn", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_unknown_job_and_artifact_are_404(self, served):
        _q, bg = served
        with ServiceClient(bg.host, bg.port) as client:
            with pytest.raises(ServiceError) as err:
                client.job("j99999999")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.artifact("ab" * 32)
            assert err.value.status == 404

    def test_wrong_method_is_405_and_unknown_route_404(self, served):
        _q, bg = served
        base = f"http://{bg.host}:{bg.port}"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/v1/jobs")  # GET on POST route
        assert err.value.code == 405
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/v2/everything")
        assert err.value.code == 404
        doc = json.loads(err.value.read())
        assert doc["schema"] == "repro/v1" and "error" in doc

    def test_server_side_lru_cap_bounds_disk(self, tmp_path):
        cap = 2000
        service = MappingService(
            cache_dir=tmp_path / "cache", max_bytes={"mappings": cap})
        with JobQueue(service=service, workers=1) as q, BackgroundServer(q) as bg:
            with ServiceClient(bg.host, bg.port) as client:
                for case in ("hubbard:1x2", "hubbard:2x2", "hubbard:1x3"):
                    record = client.submit(
                        CompileRequest(case=case), wait=True, timeout=120)
                    assert record.status == JobStatus.DONE
                stats = client.stats()
        usage = stats["service"]["store"]["namespaces"]["mappings"]
        assert 0 < usage["bytes"] <= cap
        assert usage["evictions"] >= 1


class TestSettledJobState:
    """A settled job keeps its record but drops its attempt and settlement
    futures, so a long-lived queue holds no per-job synchronization state."""

    def test_settled_jobs_release_futures_and_still_answer(self, served):
        q, bg = served
        ids = [q.submit(CompileRequest(case=case, kind="jw"))[0].id
               for case in ("hubbard:1x2", "hubbard:2x2", "hubbard:1x3")]
        for jid in ids:
            assert q.wait(jid, timeout=120).status == JobStatus.DONE
        with q._lock:
            assert q._futures == {} and q._settled == {}
        assert q.settlement(ids[0]) is None and q.future(ids[0]) is None
        # A settled id still answers, locally and over HTTP with ?wait=1.
        assert q.wait(ids[0], timeout=1).status == JobStatus.DONE
        conn = http.client.HTTPConnection(bg.host, bg.port, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{ids[0]}?wait=1")
            resp = conn.getresponse()
            doc = check_envelope(json.loads(resp.read()), "jobs.get")
        finally:
            conn.close()
        assert resp.status == 200
        assert doc["result"]["id"] == ids[0]
        assert doc["result"]["status"] == JobStatus.DONE


class TestRunServer:
    def test_serves_until_cancelled(self, tmp_path):
        """The blocking ``repro serve`` entry point, stopped from outside."""
        from repro.serve.server import run_server

        holder = {}
        ready_event = threading.Event()

        def ready(server):
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            ready_event.set()

        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=1) as q:
            thread = threading.Thread(
                target=run_server,
                kwargs={"queue": q, "host": "127.0.0.1", "port": 0,
                        "ready": ready},
                daemon=True,
            )
            thread.start()
            assert ready_event.wait(10)
            with ServiceClient("127.0.0.1", holder["server"].port) as client:
                assert client.healthy()
            loop = holder["loop"]
            loop.call_soon_threadsafe(
                lambda: [task.cancel() for task in asyncio.all_tasks(loop)])
            thread.join(timeout=10)
            assert not thread.is_alive()


class TestBackgroundServer:
    def test_restartable_and_isolated(self, tmp_path):
        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=1) as q:
            with BackgroundServer(q) as bg1:
                port1 = bg1.port
                with ServiceClient(bg1.host, port1) as c:
                    assert c.healthy()
            # The queue survives its server; a new server reattaches.
            with BackgroundServer(q) as bg2:
                with ServiceClient(bg2.host, bg2.port) as c:
                    assert c.healthy()


class TestArchRequestSchema:
    """hatt-arch requests across the wire surface."""

    def test_map_job_accepts_arch_for_hatt_arch(self):
        r = CompileRequest(case="hubbard:1x2", kind="hatt-arch", arch="montreal")
        assert CompileRequest.from_dict(r.to_dict()) == r
        spec = r.spec()
        assert spec.kind == "hatt-arch" and spec.arch == "montreal"

    def test_arch_weight_round_trips_and_reaches_spec(self):
        r = CompileRequest(case="hubbard:1x2", kind="hatt-arch",
                           arch="sycamore", arch_weight=0.5)
        assert CompileRequest.from_dict(json.loads(json.dumps(r.to_dict()))) == r
        assert r.spec().arch_weight == 0.5

    @pytest.mark.parametrize("kwargs,match", [
        ({"case": "x", "kind": "hatt-arch"}, "need arch"),
        ({"case": "x", "kind": "hatt-arch", "arch": "osprey"}, "need arch"),
        ({"case": "x", "arch": "montreal"}, "map jobs take no arch"),
        ({"case": "x", "arch_weight": 0.5}, "only applies to kind='hatt-arch'"),
        ({"case": "x", "kind": "hatt-arch", "arch": "montreal",
          "arch_weight": -1.0}, "finite number"),
        ({"case": "x", "kind": "hatt-arch", "arch": "montreal",
          "arch_weight": float("nan")}, "finite number"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CompileRequest(**kwargs)

    def test_arch_weight_forks_coalesce_key(self):
        a = CompileRequest(case="hubbard:1x2", kind="hatt-arch", arch="montreal")
        b = a.replace(arch_weight=1.0)
        c = a.replace(arch="sycamore")
        assert len({a.coalesce_key(), b.coalesce_key(), c.coalesce_key()}) == 3

    def test_map_job_executes_end_to_end(self, tmp_path):
        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=1) as q:
            rec, _ = q.submit(CompileRequest(
                case="hubbard:1x2", kind="hatt-arch", arch="montreal"))
            done = q.wait(rec.id, timeout=120)
            assert done.status == JobStatus.DONE, done.error
            assert done.result["kind"] == "hatt-arch"
            # Distinct architecture → distinct mappings/v1 entry.
            rec2, _ = q.submit(CompileRequest(
                case="hubbard:1x2", kind="hatt-arch", arch="sycamore"))
            done2 = q.wait(rec2.id, timeout=120)
            assert done2.status == JobStatus.DONE, done2.error
            assert done2.fingerprint != done.fingerprint


class TestJobRetentionPinning:
    """A completed record a waiter still holds must survive trimming."""

    @staticmethod
    def _fast_queue(tmp_path, monkeypatch, max_jobs=1):
        monkeypatch.setattr(
            queue_mod, "_run_request",
            lambda request, service: {"fingerprint": "01" * 32, "source": "x"},
        )
        service = MappingService(cache_dir=tmp_path / "cache")
        return JobQueue(service=service, workers=1, max_jobs=max_jobs)

    def test_pinned_record_survives_submission_burst(self, tmp_path, monkeypatch):
        with self._fast_queue(tmp_path, monkeypatch) as q:
            a, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            q.wait(a.id, timeout=30)
            q.pin(a.id)
            try:
                for i in range(4):
                    r, _ = q.submit(CompileRequest(case=f"hubbard:{i + 2}x2"))
                    q.wait(r.id, timeout=30)
                assert q.get(a.id) is not None  # would 404 without the pin
            finally:
                q.unpin(a.id)
            # Unpinned, the next trim may reclaim it.
            r, _ = q.submit(CompileRequest(case="hubbard:9x2"))
            q.wait(r.id, timeout=30)
            assert q.get(a.id) is None

    def test_pins_are_counted(self, tmp_path, monkeypatch):
        with self._fast_queue(tmp_path, monkeypatch) as q:
            a, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            q.wait(a.id, timeout=30)
            q.pin(a.id)
            q.pin(a.id)
            q.unpin(a.id)  # one waiter left → still protected
            for i in range(3):
                r, _ = q.submit(CompileRequest(case=f"hubbard:{i + 2}x2"))
                q.wait(r.id, timeout=30)
            assert q.get(a.id) is not None
            q.unpin(a.id)

    def test_wait_pins_against_concurrent_trim(self, tmp_path, monkeypatch):
        """The end-to-end regression: wait() returns the settled record even
        when a submission burst trims the table while it waits."""
        gate = threading.Event()

        def run(request, service):
            if request.case == "slow:1x1":
                gate.wait(30)
            return {"fingerprint": "01" * 32, "source": "x"}

        monkeypatch.setattr(queue_mod, "_run_request", run)
        service = MappingService(cache_dir=tmp_path / "cache")
        with JobQueue(service=service, workers=2, max_jobs=1) as q:
            slow, _ = q.submit(CompileRequest(case="slow:1x1"))
            out = {}
            waiter = threading.Thread(
                target=lambda: out.update(rec=q.wait(slow.id, timeout=60)))
            waiter.start()
            for i in range(4):
                r, _ = q.submit(CompileRequest(case=f"hubbard:{i + 1}x2"))
                q.wait(r.id, timeout=30)
            gate.set()
            waiter.join(60)
            assert out["rec"] is not None
            assert out["rec"].status == JobStatus.DONE


class TestQueryParamValidation:
    """Malformed ?wait=/?timeout= are client errors, not 500s."""

    def _post(self, bg, query):
        body = json.dumps({"case": "hubbard:1x2", "kind": "jw"}).encode()
        req = urllib.request.Request(
            f"http://{bg.host}:{bg.port}/v1/jobs{query}", data=body,
            method="POST", headers={"Content-Type": "application/json"})
        return urllib.request.urlopen(req, timeout=120)

    @pytest.mark.parametrize("query", [
        "?wait=1&timeout=abc",
        "?wait=1&timeout=-5",
        "?wait=1&timeout=0",
        "?wait=1&timeout=nan",
        "?wait=1&timeout=inf",
        "?wait=maybe",
        "?wait=2",
    ])
    def test_bad_params_are_400_envelopes(self, served, query):
        _q, bg = served
        with pytest.raises(urllib.error.HTTPError) as err:
            self._post(bg, query)
        assert err.value.code == 400
        doc = json.loads(err.value.read())
        assert doc["schema"] == "repro/v1" and "error" in doc

    def test_bad_params_never_enqueue_work(self, served):
        q, bg = served
        before = q.stats()["submitted"]
        with pytest.raises(urllib.error.HTTPError):
            self._post(bg, "?wait=1&timeout=abc")
        assert q.stats()["submitted"] == before

    @pytest.mark.parametrize("query", ["", "?wait=0", "?wait=false", "?wait=no"])
    def test_valid_falsy_waits_accepted(self, served, query):
        _q, bg = served
        with self._post(bg, query) as resp:
            assert resp.status in (200, 202)

    def test_valid_truthy_wait_accepted(self, served):
        _q, bg = served
        with self._post(bg, "?wait=yes&timeout=120") as resp:
            doc = json.loads(resp.read())
            assert doc["result"]["status"] == JobStatus.DONE

    def test_bad_content_length_is_400_not_dropped(self, served):
        """A _BadRequest from header/body parsing must answer, not vanish."""
        import socket

        _q, bg = served
        with socket.create_connection((bg.host, bg.port), timeout=30) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Host: x\r\nContent-Length: nope\r\n\r\n")
            data = sock.recv(65536)
        assert data.startswith(b"HTTP/1.1 400")


# ----------------------------------------------------------------------
# Observability: /v1/metrics, trace blocks, enriched stats, shed logging
# ----------------------------------------------------------------------
@pytest.fixture
def observed(tmp_path):
    """A served stack with its own registry (no global-registry bleed)."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    service = MappingService(cache_dir=tmp_path / "cache", registry=registry)
    with JobQueue(service=service, workers=2, registry=registry) as q, \
            BackgroundServer(q) as bg:
        yield q, bg, registry


class TestObservability:
    def test_envelope_trace_block_round_trip(self, observed):
        _q, bg, _reg = observed
        with ServiceClient(bg.host, bg.port) as client:
            record = client.submit(
                CompileRequest(case="hubbard:2x2"), wait=True, timeout=120)
            trace = client.last_trace
            assert trace is not None
            assert trace["trace_id"] == record.trace_id
            assert trace["duration_ms"] >= 0
            # The worker-side spans carry the same trace id end to end.
            assert record.result["trace"]["trace_id"] == record.trace_id
            stages = {s["stage"] for s in record.result["trace"]["spans"]}
            assert "tree_construction" in stages
            # And the envelope survives a plain poll too.
            polled = client.job(record.id)
            assert polled.trace_id == record.trace_id

    def test_compile_job_timings_nest_and_reach_metrics(self, observed):
        _q, bg, registry = observed
        with ServiceClient(bg.host, bg.port) as client:
            record = client.submit(
                CompileRequest(case="hubbard:2x2", job="compile", arch="sycamore"),
                wait=True, timeout=120)
        assert record.status == "done", record.error
        timings = record.result["timings"]
        stages = timings["stages"]
        for stage in ("construction", "tree_construction", "routing"):
            assert stages[stage]["count"] == 1, stage
        parents = {s["stage"]: s["parent"] for s in record.result["trace"]["spans"]}
        assert parents["tree_construction"] == "construction"
        assert timings["stage_total_seconds"] == pytest.approx(
            sum(slot["self_seconds"] for slot in stages.values()), abs=1e-5)
        hist = registry.snapshot()["repro_stage_seconds"]["values"]
        assert hist["stage=routing"]["count"] == 1

    def test_coalesced_submission_inherits_trace_id(self, observed, monkeypatch):
        queue, bg, _reg = observed
        gate = threading.Event()

        def slow_run(request, service):
            assert gate.wait(30)
            return {"fingerprint": "ab" * 32, "source": "compiled"}

        monkeypatch.setattr(queue_mod, "_run_request", slow_run)
        with ServiceClient(bg.host, bg.port) as client:
            first = client.submit(CompileRequest(case="hubbard:2x3"))
            first_trace = dict(client.last_trace)
            twin = client.submit(CompileRequest(case="hubbard:2x3"))
            assert twin.id == first.id
            assert client.last_trace["trace_id"] == first_trace["trace_id"]
            gate.set()
            queue.wait(first.id, timeout=30)

    def test_metrics_endpoint_serves_valid_prometheus(self, observed):
        from test_obs import parse_prometheus

        _q, bg, _reg = observed
        with ServiceClient(bg.host, bg.port) as client:
            cold = client.submit(
                CompileRequest(case="hubbard:2x2"), wait=True, timeout=120)
            assert cold.source == "compiled"
            warm = client.submit(
                CompileRequest(case="hubbard:2x2"), wait=True, timeout=120)
            assert warm.source in ("memory", "disk")
            families = parse_prometheus(client.metrics())
        assert families["repro_jobs_total"]["type"] == "counter"
        assert families["repro_jobs_total"]["samples"][
            'repro_jobs_total{state="done"}'] == 2
        hits = families["repro_cache_hits_total"]["samples"]
        assert sum(hits.values()) >= 1
        compile_hist = families["repro_compile_seconds"]["samples"]
        assert compile_hist["repro_compile_seconds_count"] == 1
        assert compile_hist["repro_compile_seconds_sum"] > 0
        stage_hist = families["repro_stage_seconds"]["samples"]
        assert any("tree_construction" in k for k in stage_hist)
        assert families["repro_queue_depth"]["samples"]["repro_queue_depth"] == 0
        http = families["repro_http_requests_total"]["samples"]
        assert any('route="/v1/jobs"' in k and 'status="200"' in k
                   for k in http)

    def test_metrics_endpoint_rejects_post(self, observed):
        _q, bg, _reg = observed
        conn = http.client.HTTPConnection(bg.host, bg.port, timeout=30)
        try:
            conn.request("POST", "/v1/metrics")
            resp = conn.getresponse()
            assert resp.status == 405
            resp.read()
        finally:
            conn.close()

    def test_stats_carry_depth_hint_and_metrics(self, observed):
        _q, bg, _reg = observed
        with ServiceClient(bg.host, bg.port) as client:
            client.submit(
                CompileRequest(case="hubbard:1x2"), wait=True, timeout=120)
            stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["retry_after_hint"] == 1.0
        snap = stats["metrics"]
        assert snap["repro_jobs_submitted_total"]["values"][""] == 1
        assert snap["repro_jobs_total"]["values"]["state=done"] == 1

    def test_shed_503_logs_warning_with_trace_id(self, observed, monkeypatch):
        queue, bg, _reg = observed
        queue.drain(timeout=0.5)
        captured = []

        class Capture(logging.Handler):
            def emit(self, record):
                captured.append(record)

        server_logger = logging.getLogger("repro.serve.server")
        handler = Capture(level=logging.WARNING)
        server_logger.addHandler(handler)
        try:
            with ServiceClient(bg.host, bg.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.submit(CompileRequest(case="hubbard:1x2"))
            assert err.value.status == 503
        finally:
            server_logger.removeHandler(handler)
        sheds = [r for r in captured if "shed submission" in r.getMessage()]
        assert sheds, [r.getMessage() for r in captured]
        assert sheds[0].trace_id
        assert sheds[0].reason == "ServiceDraining"
