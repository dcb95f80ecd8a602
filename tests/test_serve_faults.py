"""Chaos suite: the serve stack's fault-tolerance layer under injected faults.

Covers the fault-injection harness itself (deterministic firing, budgets,
cross-process coordination), then each tolerance mechanism in isolation —
retries, worker-crash supervision + pool rebuild, deadlines, cancellation,
load shedding, the circuit breaker, graceful drain, SIGTERM — and finally
the end-to-end acceptance scenario: 16 concurrent clients against a 10%
worker-crash + slow-compile fault mix, every one of them receiving a
terminal response.
"""

import os
import signal
import threading
import time

import pytest

import repro.serve.queue as queue_mod
from repro.serve import (
    BackgroundServer,
    BreakerOpen,
    CircuitBreaker,
    CompileRequest,
    JobQueue,
    JobStatus,
    QueueFull,
    RetryPolicy,
    ServiceClient,
    ServiceDraining,
    ServiceError,
    faults,
    run_server,
)
from repro.serve.faults import FaultInjector, WorkerCrashFault
from repro.service import MappingService

#: Tight backoff so retry tests run in milliseconds.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02)

FAKE_FP = "ab" * 32


def _fake_result(request, service):
    return {"fingerprint": FAKE_FP, "source": "compiled"}


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no faults armed and fresh counters."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.FAULTS_STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def _arm(monkeypatch, spec, state_dir=None):
    monkeypatch.setenv(faults.FAULTS_ENV, spec)
    if state_dir is not None:
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(state_dir))
    faults.reset()


def _service(tmp_path):
    return MappingService(cache_dir=tmp_path / "cache")


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_deterministic_rate_is_evenly_spaced(self):
        inj = FaultInjector.from_spec("slow_compile:0.25")
        fires = [inj.should_fire("slow_compile") for _ in range(100)]
        assert sum(fires) == 25
        # Evenly spaced: every 4th trial, starting at trial index 3.
        assert fires[3] and fires[7] and not any(fires[:3])

    def test_rate_one_fires_every_trial_rate_zero_never(self):
        always = FaultInjector.from_spec("worker_crash:1")
        assert all(always.should_fire("worker_crash") for _ in range(5))
        never = FaultInjector.from_spec("worker_crash:0")
        assert not any(never.should_fire("worker_crash") for _ in range(5))

    def test_unarmed_points_never_fire(self):
        inj = FaultInjector.from_spec("")
        assert not inj.active
        assert not inj.should_fire("worker_crash")

    def test_bad_specs_rejected(self):
        for bad in ("worker_crash", "worker_crash:2.0", "nosuchpoint:1",
                    "worker_crash:1:0:1:9", "worker_crash:abc"):
            with pytest.raises(ValueError):
                FaultInjector.from_spec(bad)

    def test_max_fires_budget_in_process(self):
        inj = FaultInjector.from_spec("worker_crash:1:0:2")
        fires = [inj.should_fire("worker_crash") for _ in range(5)]
        assert fires == [True, True, False, False, False]

    def test_max_fires_budget_shared_via_state_dir(self, tmp_path):
        # Two injectors (stand-ins for two processes) share one budget
        # through O_EXCL ticket files.
        a = FaultInjector.from_spec("worker_crash:1:0:1", state_dir=str(tmp_path))
        b = FaultInjector.from_spec("worker_crash:1:0:1", state_dir=str(tmp_path))
        assert a.should_fire("worker_crash") is True
        assert b.should_fire("worker_crash") is False

    def test_env_changes_reparse_the_global_injector(self, monkeypatch):
        _arm(monkeypatch, "slow_compile:1:0.0")
        assert faults.get_injector().active
        monkeypatch.setenv(faults.FAULTS_ENV, "")
        assert not faults.get_injector().active

    def test_stats_report_trials_and_fires(self):
        inj = FaultInjector.from_spec("worker_crash:0.5")
        for _ in range(4):
            inj.should_fire("worker_crash")
        stats = inj.stats()
        assert stats["trials"]["worker_crash"] == 4
        assert stats["fired"]["worker_crash"] == 2
        assert stats["rules"]["worker_crash"]["rate"] == 0.5


# ----------------------------------------------------------------------
# Retries and supervision (thread executor)
# ----------------------------------------------------------------------
class TestRetries:
    def test_worker_crash_retries_to_success(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_mod, "_run_request", _fake_result)
        _arm(monkeypatch, "worker_crash:1:0:1")  # exactly one crash
        with JobQueue(service=_service(tmp_path), workers=1, retry=FAST_RETRY) as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            done = q.wait(record.id, timeout=30)
            assert done.status == JobStatus.DONE, done.error
            assert done.attempts == 2
            stats = q.stats()
            assert stats["retried"] == 1
            assert stats["worker_crashes"] == 1
            assert stats["errors"] == 0
            assert stats["faults"]["fired"]["worker_crash"] == 1

    def test_retries_exhaust_into_typed_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_mod, "_run_request", _fake_result)
        _arm(monkeypatch, "worker_crash:1")  # crash every attempt
        with JobQueue(service=_service(tmp_path), workers=1, retry=FAST_RETRY,
                      breaker=False) as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            done = q.wait(record.id, timeout=30)
            assert done.status == JobStatus.ERROR
            assert done.error_kind == "worker_crash"
            assert done.attempts == FAST_RETRY.max_attempts
            stats = q.stats()
            assert stats["retried"] == FAST_RETRY.max_attempts - 1
            assert stats["errors"] == 1

    def test_transient_store_io_is_retried(self, tmp_path, monkeypatch):
        calls = []

        def flaky(request, service):
            calls.append(1)
            if len(calls) == 1:
                raise OSError(28, "injected: no space left on device")
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", flaky)
        with JobQueue(service=_service(tmp_path), workers=1, retry=FAST_RETRY) as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            done = q.wait(record.id, timeout=30)
            assert done.status == JobStatus.DONE
            assert done.attempts == 2 and done.error_kind is None

    def test_store_write_fault_is_transient_and_retried(self, tmp_path, monkeypatch):
        """End-to-end: the store_write injection point → retryable job."""
        _arm(monkeypatch, "store_write:1:0:1")
        with JobQueue(service=_service(tmp_path), workers=1, retry=FAST_RETRY) as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2", kind="jw"))
            done = q.wait(record.id, timeout=120)
            assert done.status == JobStatus.DONE, done.error
            assert done.attempts == 2
            # The retry really stored the artifact (no partial left behind).
            assert q.service.store.contains(done.fingerprint)

    def test_nonretryable_errors_fail_fast(self, tmp_path, monkeypatch):
        def boom(request, service):
            raise ValueError("bad request payload")

        monkeypatch.setattr(queue_mod, "_run_request", boom)
        with JobQueue(service=_service(tmp_path), workers=1, retry=FAST_RETRY) as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            done = q.wait(record.id, timeout=30)
            assert done.status == JobStatus.ERROR
            assert done.error_kind == "exception"
            assert done.attempts == 1
            assert q.stats()["retried"] == 0

    def test_worker_crash_fault_is_a_typed_job_error(self):
        exc = WorkerCrashFault()
        assert exc.kind == "worker_crash" and exc.retryable


class TestProcessPoolSupervision:
    def test_worker_crash_rebuilds_pool_and_retries(self, tmp_path, monkeypatch):
        """A real os._exit in a pool worker → BrokenProcessPool → rebuild +
        re-dispatch; the job still lands DONE with attempts recorded."""
        _arm(monkeypatch, "worker_crash:1:0:1", state_dir=tmp_path / "faults")
        with JobQueue(service=_service(tmp_path), workers=1, executor="process",
                      retry=FAST_RETRY) as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2", kind="jw"))
            done = q.wait(record.id, timeout=300)
            assert done.status == JobStatus.DONE, done.error
            assert done.attempts == 2
            stats = q.stats()
            assert stats["pool_rebuilds"] >= 1
            assert stats["worker_crashes"] >= 1
            assert stats["errors"] == 0


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def _gated(self, monkeypatch, gate):
        def slow(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", slow)

    def test_request_deadline_settles_the_record(self, tmp_path, monkeypatch):
        gate = threading.Event()
        self._gated(monkeypatch, gate)
        try:
            with JobQueue(service=_service(tmp_path), workers=1, retry=False) as q:
                record, _ = q.submit(
                    CompileRequest(case="hubbard:1x2", deadline=0.2)
                )
                start = time.monotonic()
                done = q.wait(record.id, timeout=10)
                # The waiter unblocked on the deadline, not on the worker.
                assert time.monotonic() - start < 5
                assert done.status == JobStatus.ERROR
                assert done.error_kind == "timeout"
                assert q.stats()["timeouts"] == 1
                gate.set()
                time.sleep(0.1)
                # The late completion must not overwrite the settled record.
                assert q.get(record.id).status == JobStatus.ERROR
        finally:
            gate.set()

    def test_queue_wide_job_timeout_applies(self, tmp_path, monkeypatch):
        gate = threading.Event()
        self._gated(monkeypatch, gate)
        try:
            with JobQueue(service=_service(tmp_path), workers=1, retry=False,
                          job_timeout=0.2) as q:
                record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
                done = q.wait(record.id, timeout=10)
                assert done.status == JobStatus.ERROR
                assert done.error_kind == "timeout"
        finally:
            gate.set()

    def test_bad_deadlines_rejected_at_the_schema(self):
        for bad in (-1, 0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError):
                CompileRequest(case="hubbard:1x2", deadline=bad)

    def test_deadline_excluded_from_coalesce_key(self):
        a = CompileRequest(case="hubbard:1x2", deadline=5.0)
        b = CompileRequest(case="hubbard:1x2")
        assert a.coalesce_key() == b.coalesce_key()
        assert CompileRequest.from_dict(a.to_dict()) == a


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_settles_record_and_releases_key(self, tmp_path, monkeypatch):
        gate = threading.Event()

        def slow(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", slow)
        try:
            with JobQueue(service=_service(tmp_path), workers=1) as q:
                blocker, _ = q.submit(CompileRequest(case="hubbard:1x2"))
                queued, _ = q.submit(CompileRequest(case="hubbard:2x2"))
                record, cancelled = q.cancel(queued.id)
                assert cancelled and record.status == JobStatus.CANCELLED
                assert record.error_kind == "cancelled"
                assert q.stats()["cancelled"] == 1
                # The coalesce key is released: an identical re-submission
                # starts a fresh job instead of coalescing onto the corpse.
                fresh, coalesced = q.submit(CompileRequest(case="hubbard:2x2"))
                assert not coalesced and fresh.id != queued.id
                gate.set()
        finally:
            gate.set()

    def test_cancel_peels_one_coalesced_subscriber(self, tmp_path, monkeypatch):
        gate = threading.Event()

        def slow(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", slow)
        try:
            with JobQueue(service=_service(tmp_path), workers=1) as q:
                first, _ = q.submit(CompileRequest(case="hubbard:1x2"))
                second, coalesced = q.submit(CompileRequest(case="hubbard:1x2"))
                assert coalesced and second.id == first.id
                record, cancelled = q.cancel(first.id)
                # One subscriber peeled off; the job keeps running.
                assert not cancelled and record.subscribers == 1
                assert not record.done
                gate.set()
                done = q.wait(first.id, timeout=10)
                assert done.status == JobStatus.DONE
        finally:
            gate.set()

    def test_cancel_unknown_and_settled_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_mod, "_run_request", _fake_result)
        with JobQueue(service=_service(tmp_path), workers=1) as q:
            assert q.cancel("j99999999") == (None, False)
            record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            done = q.wait(record.id, timeout=10)
            assert done.status == JobStatus.DONE
            again, cancelled = q.cancel(record.id)
            assert not cancelled and again.status == JobStatus.DONE

    def test_http_delete_cancels(self, tmp_path, monkeypatch):
        gate = threading.Event()

        def slow(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", slow)
        try:
            with JobQueue(service=_service(tmp_path), workers=1) as q, \
                    BackgroundServer(q) as bg, \
                    ServiceClient(bg.host, bg.port) as client:
                blocker = client.submit(CompileRequest(case="hubbard:1x2"))
                queued = client.submit(CompileRequest(case="hubbard:2x2"))
                record, cancelled = client.cancel(queued.id)
                assert cancelled and record.status == JobStatus.CANCELLED
                with pytest.raises(ServiceError) as err:
                    client.cancel("j99999999")
                assert err.value.status == 404
                gate.set()
                assert client.job(blocker.id) is not None
        finally:
            gate.set()


# ----------------------------------------------------------------------
# Load shedding and the circuit breaker
# ----------------------------------------------------------------------
class TestLoadShedding:
    def _plug(self, monkeypatch, gate):
        def slow(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", slow)

    def test_queue_full_sheds_cold_but_accepts_coalesced(self, tmp_path, monkeypatch):
        gate = threading.Event()
        self._plug(monkeypatch, gate)
        try:
            with JobQueue(service=_service(tmp_path), workers=1,
                          max_pending=1) as q:
                first, _ = q.submit(CompileRequest(case="hubbard:1x2"))
                with pytest.raises(QueueFull) as err:
                    q.submit(CompileRequest(case="hubbard:2x2"))
                assert err.value.retry_after >= 1.0
                # Coalesced twins cost nothing and are always accepted.
                twin, coalesced = q.submit(CompileRequest(case="hubbard:1x2"))
                assert coalesced and twin.id == first.id
                assert q.stats()["shed_full"] == 1
                gate.set()
        finally:
            gate.set()

    def test_http_503_with_retry_after_header(self, tmp_path, monkeypatch):
        gate = threading.Event()
        self._plug(monkeypatch, gate)
        try:
            with JobQueue(service=_service(tmp_path), workers=1,
                          max_pending=1) as q, \
                    BackgroundServer(q) as bg, \
                    ServiceClient(bg.host, bg.port) as client:
                client.submit(CompileRequest(case="hubbard:1x2"))
                with pytest.raises(ServiceError) as err:
                    client.submit(CompileRequest(case="hubbard:2x2"))
                assert err.value.status == 503
                assert err.value.kind == "http"
                assert err.value.retry_after is not None
                assert err.value.retry_after >= 1.0
                gate.set()
        finally:
            gate.set()

    def test_draining_queue_sheds_everything(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_mod, "_run_request", _fake_result)
        with JobQueue(service=_service(tmp_path), workers=1) as q:
            q.drain(timeout=1)
            with pytest.raises(ServiceDraining):
                q.submit(CompileRequest(case="hubbard:1x2"))
            assert q.stats()["shed_draining"] == 1
            assert q.health()["state"] == "draining"


class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        breaker = CircuitBreaker(window=60, min_samples=4, threshold=0.5,
                                 cooldown=0.2)
        for _ in range(4):
            breaker.record(False)
        assert breaker.is_open()
        state = breaker.state()
        assert state["open"] and state["trips"] == 1
        assert breaker.retry_after() > 0
        time.sleep(0.25)
        assert not breaker.is_open()

    def test_mixed_outcomes_below_threshold_stay_closed(self):
        breaker = CircuitBreaker(window=60, min_samples=4, threshold=0.5)
        for ok in (True, True, True, False, True, True, False, True):
            breaker.record(ok)
        assert not breaker.is_open()

    def test_open_breaker_sheds_cold_serves_warm(self, tmp_path, monkeypatch):
        service = _service(tmp_path)
        # min_samples=3: warm success + both poisoned failures must land
        # before the trip (2/3 failure rate >= 0.6).
        breaker = CircuitBreaker(window=60, min_samples=3, threshold=0.6,
                                 cooldown=60)
        real_run = queue_mod._run_request

        def flaky(request, service_):
            if request.case in ("hubbard:2x2", "hubbard:1x3"):
                raise ValueError("poisoned workload")
            return real_run(request, service_)

        monkeypatch.setattr(queue_mod, "_run_request", flaky)
        with JobQueue(service=service, workers=1, retry=False,
                      breaker=breaker) as q:
            # Warm the cache with a real (cheap) compile first.
            warm, _ = q.submit(CompileRequest(case="hubbard:1x2", kind="jw"))
            assert q.wait(warm.id, timeout=120).status == JobStatus.DONE
            # Two failures trip the breaker.
            for case in ("hubbard:2x2", "hubbard:1x3"):
                record, _ = q.submit(CompileRequest(case=case, kind="jw"))
                q.wait(record.id, timeout=30)
            assert breaker.is_open()
            assert q.health()["state"] == "degraded"
            # Cold work is shed...
            with pytest.raises(BreakerOpen):
                q.submit(CompileRequest(case="hubbard:3x3", kind="jw"))
            assert q.stats()["shed_breaker"] == 1
            # ...but the warm request still flows to a DONE record.
            served, _ = q.submit(CompileRequest(case="hubbard:1x2", kind="jw"))
            done = q.wait(served.id, timeout=30)
            assert done.status == JobStatus.DONE
            assert done.result["source"] in ("memory", "disk")

    def test_warm_map_passes_open_breaker_without_building(self, tmp_path, monkeypatch):
        """The breaker's cache probe and the served job both find a warm
        ``map`` through the service's spec alias: nothing is built."""
        builds = []
        real_build = queue_mod.build_case
        monkeypatch.setattr(
            queue_mod, "build_case", lambda src: builds.append(src.spec) or real_build(src)
        )
        breaker = CircuitBreaker(window=60, min_samples=3, threshold=0.5,
                                 cooldown=60)
        with JobQueue(service=_service(tmp_path), workers=1, retry=False,
                      breaker=breaker) as q:
            request = CompileRequest(case="hubbard:2x2")
            cold = q.wait(q.submit(request)[0].id, timeout=120)
            assert cold.status == JobStatus.DONE and builds == ["hubbard:2x2"]
            breaker.record(False)
            breaker.record(False)
            assert breaker.is_open()
            builds.clear()
            warm = q.wait(q.submit(request)[0].id, timeout=30)
            assert warm.status == JobStatus.DONE and warm.source == "memory"
            assert warm.fingerprint == cold.fingerprint
            assert warm.result["pauli_weight"] == cold.result["pauli_weight"] == 76
            assert builds == []
            # A cold map is still shed (its probe misses the alias).
            with pytest.raises(BreakerOpen):
                q.submit(CompileRequest(case="hubbard:1x3"))

    def test_degraded_state_surfaces_over_http(self, tmp_path, monkeypatch):
        def boom(request, service):
            raise ValueError("poisoned")

        monkeypatch.setattr(queue_mod, "_run_request", boom)
        breaker = CircuitBreaker(window=60, min_samples=2, threshold=0.5,
                                 cooldown=60)
        with JobQueue(service=_service(tmp_path), workers=1, retry=False,
                      breaker=breaker) as q, \
                BackgroundServer(q) as bg, \
                ServiceClient(bg.host, bg.port) as client:
            for case in ("hubbard:1x2", "hubbard:2x2"):
                record = client.submit(CompileRequest(case=case), wait=True,
                                       timeout=30)
                assert record.status == JobStatus.ERROR
            stats = client.stats()
            assert stats["breaker"]["open"] and stats["breaker"]["trips"] == 1
            # Degraded is still alive: healthz stays 200 with state exposed.
            assert client.healthy()
            _status, doc = client._call("GET", "/v1/healthz", command="healthz")
            assert doc["result"]["state"] == "degraded"


# ----------------------------------------------------------------------
# Drain and SIGTERM
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_lets_inflight_settle_naturally(self, tmp_path, monkeypatch):
        gate = threading.Event()

        def slow(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", slow)
        with JobQueue(service=_service(tmp_path), workers=1) as q:
            record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            threading.Timer(0.15, gate.set).start()
            summary = q.drain(timeout=15)
            assert summary == {"settled": 1, "forced": 0}
            assert q.get(record.id).status == JobStatus.DONE

    def test_drain_force_settles_stragglers(self, tmp_path, monkeypatch):
        gate = threading.Event()

        def stuck(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", stuck)
        try:
            with JobQueue(service=_service(tmp_path), workers=1) as q:
                record, _ = q.submit(CompileRequest(case="hubbard:1x2"))
                summary = q.drain(timeout=0.2)
                assert summary == {"settled": 0, "forced": 1}
                done = q.get(record.id)
                assert done.status == JobStatus.CANCELLED
                assert done.error_kind == "shutdown"
        finally:
            gate.set()

    def test_shutdown_cancel_futures_settles_queued_jobs(self, tmp_path,
                                                         monkeypatch):
        """The Ctrl-C path: no ?wait=1 client may be left hanging."""
        gate = threading.Event()

        def stuck(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", stuck)
        try:
            q = JobQueue(service=_service(tmp_path), workers=1)
            running, _ = q.submit(CompileRequest(case="hubbard:1x2"))
            queued, _ = q.submit(CompileRequest(case="hubbard:2x2"))
            waiter_result = {}

            def waiter():
                waiter_result["record"] = q.wait(queued.id, timeout=20)

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.05)
            q.shutdown(wait=False, cancel_futures=True)
            thread.join(timeout=10)
            assert not thread.is_alive(), "?wait client left hanging on shutdown"
            assert waiter_result["record"].status == JobStatus.CANCELLED
            assert waiter_result["record"].error_kind == "shutdown"
            assert q.get(running.id).done and q.get(queued.id).done
        finally:
            gate.set()

    def test_background_server_drain(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_mod, "_run_request", _fake_result)
        with JobQueue(service=_service(tmp_path), workers=1) as q:
            bg = BackgroundServer(q).start()
            with ServiceClient(bg.host, bg.port) as client:
                record = client.submit(CompileRequest(case="hubbard:1x2"),
                                       wait=True, timeout=30)
                assert record.done
            summary = bg.drain(timeout=5)
            assert summary["forced"] == 0
            assert q.health()["state"] == "draining"


class TestSigtermDrain:
    def test_sigterm_drains_and_returns(self, tmp_path, monkeypatch):
        """run_server on the main thread: SIGTERM → drain → clean return,
        with the in-flight job settled (not wedged)."""
        gate = threading.Event()

        def slow(request, service):
            gate.wait(30)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", slow)
        holder = {}
        ready_event = threading.Event()

        def ready(server):
            holder["server"] = server
            ready_event.set()

        def driver():
            assert ready_event.wait(10)
            with ServiceClient("127.0.0.1", holder["server"].port) as client:
                holder["record"] = client.submit(
                    CompileRequest(case="hubbard:1x2")
                )
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.2)
            gate.set()  # release the worker so the drain settles it

        try:
            with JobQueue(service=_service(tmp_path), workers=1) as q:
                thread = threading.Thread(target=driver)
                thread.start()
                run_server(q, host="127.0.0.1", port=0, ready=ready,
                           drain_timeout=20)
                thread.join(timeout=10)
                record = q.get(holder["record"].id)
                assert record is not None and record.done
                assert record.status == JobStatus.DONE
        finally:
            gate.set()


# ----------------------------------------------------------------------
# Partial socket writes (client hardening)
# ----------------------------------------------------------------------
class TestPartialWriteFault:
    def test_idempotent_get_retries_through_truncation(self, tmp_path,
                                                       monkeypatch):
        with JobQueue(service=_service(tmp_path), workers=1) as q, \
                BackgroundServer(q) as bg, \
                ServiceClient(bg.host, bg.port) as client:
            _arm(monkeypatch, "partial_write:1:0.5:1")
            stats = client.stats()  # first response truncated; GET retried
            assert stats["executor"] == "thread"

    def test_post_surfaces_typed_connection_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_mod, "_run_request", _fake_result)
        with JobQueue(service=_service(tmp_path), workers=1) as q, \
                BackgroundServer(q) as bg, \
                ServiceClient(bg.host, bg.port) as client:
            _arm(monkeypatch, "partial_write:1:0.5:1")
            with pytest.raises(ServiceError) as err:
                client.submit(CompileRequest(case="hubbard:1x2"))
            assert err.value.kind == "connection"
            assert err.value.status == 0
            assert "re-submit" in str(err.value)
            # The documented recovery: re-submit; the retry converges on the
            # already-running job (coalesced) or a fresh one — either way a
            # terminal record.
            record = client.submit(CompileRequest(case="hubbard:1x2"),
                                   wait=True, timeout=30)
            assert record.done


# ----------------------------------------------------------------------
# End-to-end chaos acceptance
# ----------------------------------------------------------------------
class TestChaosEndToEnd:
    def test_16_clients_all_terminal_under_10pct_fault_mix(self, tmp_path,
                                                           monkeypatch):
        """The ISSUE acceptance scenario: N=16 concurrent clients, 10%
        worker-crash + slow-compile faults — every client gets a terminal
        response, retried jobs succeed with attempts > 1 in stats, and no
        job is left wedged ``running``."""

        def quick(request, service):
            time.sleep(0.01)
            return _fake_result(request, service)

        monkeypatch.setattr(queue_mod, "_run_request", quick)
        _arm(monkeypatch, "worker_crash:0.1,slow_compile:0.1:0.05")
        n_clients = 16
        records, errors = [], []
        lock = threading.Lock()
        with JobQueue(service=_service(tmp_path), workers=4, retry=FAST_RETRY,
                      breaker=CircuitBreaker(min_samples=1000)) as q, \
                BackgroundServer(q) as bg:

            def client_thread(i):
                try:
                    with ServiceClient(bg.host, bg.port) as client:
                        # Distinct cases → no coalescing: 16 cold jobs.
                        record = client.submit(
                            CompileRequest(case=f"hubbard:{i + 1}x7", kind="jw"),
                            wait=True, timeout=60,
                        )
                    with lock:
                        records.append(record)
                except Exception as exc:  # noqa: BLE001 - collected and asserted
                    with lock:
                        errors.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "hung ?wait=1 hold"
            assert not errors, errors
            assert len(records) == n_clients
            # Every client got a *terminal* response...
            assert all(r.done for r in records)
            # ...and the crashes were retried to success, not surfaced.
            assert all(r.status == JobStatus.DONE for r in records), [
                (r.status, r.error) for r in records
            ]
            stats = q.stats()
            assert stats["retried"] >= 1
            assert any(r.attempts > 1 for r in records)
            assert stats["jobs"][JobStatus.RUNNING] == 0
            assert stats["jobs"][JobStatus.QUEUED] == 0
            assert stats["faults"]["fired"]["worker_crash"] >= 1
