"""Fault-tolerant coalescing job queue over the compile executors.

The :class:`~repro.service.MappingService` caches single-flight concurrent
identical requests *inside* one process — every follower still blocks a
thread for the whole compile.  :class:`JobQueue`
generalizes that into request-level coalescing for a served system:

* every submission is keyed by :meth:`CompileRequest.coalesce_key`
  (the deadline excluded);
* the first submission of a key creates a :class:`~repro.serve.schema
  .JobRecord` and dispatches exactly one executor task;
* any submission arriving while that job is still pending/running is
  **coalesced**: it gets the same record back (``subscribers`` incremented)
  and shares the same settlement — N concurrent identical cold requests
  cost one compile, with N-1 clients never touching an executor slot;
* once the job finishes, the key is released — later identical requests
  become new jobs that complete near-instantly from the warm caches.

Work routes onto either a ``ThreadPoolExecutor`` (``executor="thread"`` —
compiles run in-process and share the service's memory tiers; the numpy
kernels release the GIL for most of a compile) or a ``ProcessPoolExecutor``
(``executor="process"`` — the same fork-based pool the batch orchestrator
uses, sharing the service's *disk* store via its cache directory).  Results
travel as plain JSON dicts either way, so the two executors are
interchangeable.

On top of that sits the fault-tolerance layer:

* **settlement futures** — every job carries its own
  ``concurrent.futures.Future`` resolved with the record on *any* terminal
  path (success, error, timeout, cancel, drain), so ``wait()`` and the
  server's ``?wait=1`` bridge always unblock, even when the executor future
  never completes (a wedged worker, a crashed pool);
* **executor supervision** — a ``BrokenProcessPool`` is classified as a
  retryable ``worker_crash``; the pool is rebuilt exactly once per break
  (generation counter) and the victim jobs are re-dispatched under the
  retry policy instead of wedging their subscribers;
* **deadlines** — ``CompileRequest.deadline`` (or the queue-wide
  ``job_timeout``) arms a per-attempt watchdog; an expired attempt settles
  the record as a typed ``timeout`` error (timeouts are not retried — the
  budget is the budget);
* **bounded retries** — retryable failures (worker crash, transient I/O)
  re-dispatch with exponential backoff + full jitter, up to
  ``RetryPolicy.max_attempts``, with attempt counts on the record and in
  :meth:`stats`;
* **cancellation** — :meth:`cancel` releases a lone submission (or peels
  one subscriber off a coalesced job, leaving the rest attached);
* **load shedding** — ``max_pending`` caps live (queued + running) jobs;
  past it, cold submissions raise :class:`QueueFull` (the server maps it to
  503 + ``Retry-After``).  Coalesced submissions are always accepted — they
  cost nothing;
* **circuit breaker** — a rolling failure-rate window; while open, cold
  compiles are shed (:class:`BreakerOpen`) but warm cache hits are still
  served, so a poisoned workload can't take down the cached fast path;
* **graceful drain** — :meth:`drain` stops intake, gives in-flight jobs a
  settling budget, then force-settles the stragglers as ``cancelled`` so no
  client is ever left holding a wedged ``running`` record.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass

from ..sources import build_case
from ..obs.metrics import get_registry
from ..obs.trace import TraceContext, activate, new_trace_id
from ..service import MappingService, pool_context
from . import faults
from .schema import CompileRequest, JobError, JobRecord, JobStatus

__all__ = [
    "EXECUTORS",
    "JobQueue",
    "execute_request",
    "RetryPolicy",
    "CircuitBreaker",
    "RejectedSubmission",
    "QueueFull",
    "BreakerOpen",
    "ServiceDraining",
]

#: Executor kinds a queue can route onto.
EXECUTORS = ("thread", "process")

#: Completed-job retention: the record table keeps at most this many entries,
#: evicting oldest finished jobs first (live jobs are never evicted).
_DEFAULT_MAX_JOBS = 4096


class RejectedSubmission(RuntimeError):
    """A submission the queue refused to accept (load shedding).

    ``retry_after`` is the backpressure hint in seconds the server forwards
    as the HTTP ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class QueueFull(RejectedSubmission):
    """Live-job count hit ``max_pending``; shed before queueing."""


class BreakerOpen(RejectedSubmission):
    """Circuit breaker open: cold compiles shed, warm hits still served."""


class ServiceDraining(RejectedSubmission):
    """The queue is draining for shutdown and accepts no new work."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + full jitter.

    Attempt ``k`` (1-based; the retry after the k-th failure) sleeps a
    uniform draw from ``[0, min(max_delay, base_delay * 2**(k-1))]`` — the
    "full jitter" scheme, which decorrelates a thundering herd of retries.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays must be >= 0")

    def delay(self, failures: int, rng: random.Random) -> float:
        """Backoff before the next attempt, after ``failures`` failures."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** max(0, failures - 1)))
        return rng.uniform(0.0, ceiling)


class CircuitBreaker:
    """Rolling-window failure-rate breaker.

    Outcomes (ok/failed) land in a time-bounded window; once at least
    ``min_samples`` events are in the window and the failure fraction
    reaches ``threshold``, the breaker **trips**: it reports open for
    ``cooldown`` seconds (the window is cleared so one bad burst is
    forgotten once served its cooldown).  The queue sheds *cold* work while
    open; warm cache hits keep flowing.
    """

    def __init__(
        self,
        window: float = 30.0,
        min_samples: int = 8,
        threshold: float = 0.5,
        cooldown: float = 5.0,
    ):
        self.window = float(window)
        self.min_samples = int(min_samples)
        self.threshold = float(threshold)
        self.cooldown = float(cooldown)
        self._lock = threading.Lock()
        self._events: deque[tuple[float, bool]] = deque()
        self._open_until = 0.0
        self._trips = 0

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.window
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def record(self, ok: bool) -> None:
        now = time.monotonic()
        with self._lock:
            if now < self._open_until:
                return  # cooling down; outcomes of in-flight stragglers don't count
            self._events.append((now, ok))
            self._prune_locked(now)
            if len(self._events) < self.min_samples:
                return
            failures = sum(1 for _, event_ok in self._events if not event_ok)
            if failures / len(self._events) >= self.threshold:
                self._open_until = now + self.cooldown
                self._trips += 1
                self._events.clear()

    def is_open(self) -> bool:
        with self._lock:
            return time.monotonic() < self._open_until

    def retry_after(self) -> float:
        with self._lock:
            return max(1.0, self._open_until - time.monotonic())

    def state(self) -> dict:
        now = time.monotonic()
        with self._lock:
            self._prune_locked(now)
            failures = sum(1 for _, ok in self._events if not ok)
            return {
                "open": now < self._open_until,
                "cooldown_remaining": round(max(0.0, self._open_until - now), 3),
                "window_events": len(self._events),
                "window_failures": failures,
                "trips": self._trips,
                "threshold": self.threshold,
                "min_samples": self.min_samples,
            }


def _run_request(
    request: CompileRequest,
    service: MappingService,
    trace_ctx: TraceContext | None = None,
) -> dict:
    """Execute one request against a service; the job-family dispatch.

    When a :class:`TraceContext` is supplied it is activated for the whole
    execution (so service/pipeline spans land on it) and serialized into the
    result's ``trace`` block — the vehicle that carries worker-side spans
    back across a process boundary.
    """
    if trace_ctx is None:
        out = _run_request_traced(request, service)
    else:
        with activate(trace_ctx):
            out = _run_request_traced(request, service)
        out["trace"] = trace_ctx.to_dict()
    return out


def _run_request_traced(request: CompileRequest, service: MappingService) -> dict:
    faults.sleep_if("slow_compile")
    h = build_case(request.case)
    if request.job == "map":
        result = service.get_or_compile(h, request.spec())
        mapping = result.mapping
        return {
            "job": "map",
            "case": request.case,
            "kind": request.kind,
            "fingerprint": result.fingerprint,
            "source": result.source,
            "compile_seconds": round(result.compile_seconds, 6),
            "n_modes": mapping.n_modes,
            "n_qubits": mapping.n_qubits,
            "pauli_weight": int(mapping.map(h).pauli_weight()),
        }
    # job == "compile": mapping + Trotter synthesis + routing, via the
    # hardware pipeline (its circuits/ artifacts ride the same store).
    from ..compile import CompilationPipeline

    pipeline = CompilationPipeline(
        service=service,
        options=request.options(),
        arch_weight=request.arch_weight,
    )
    metrics = pipeline.compile_one(h, request.kind, request.arch)
    return {
        "job": "compile",
        "case": request.case,
        "kind": request.kind,
        "architecture": request.arch,
        "fingerprint": metrics.fingerprint,
        "source": metrics.source,
        "metrics": metrics.to_dict(),
        "timings": pipeline.timings.to_dict(),
    }


def execute_request(
    request_doc: dict,
    cache_dir: str | None,
    use_disk: bool,
    trace: dict | None = None,
) -> dict:
    """Process-pool entry point (module-level, picklable).

    Workers build their own :class:`MappingService` over the shared cache
    directory; the parent's disk store sees every artifact they write.
    ``trace`` is a serialized :class:`TraceContext` — context vars don't
    cross process boundaries, so the trace rides the pickled arguments in
    and the result's ``trace`` block out.
    """
    faults.exit_if("worker_crash")
    request = CompileRequest.from_dict(request_doc)
    service = MappingService(cache_dir=cache_dir, use_disk=use_disk)
    trace_ctx = TraceContext.from_dict(trace) if trace is not None else None
    return _run_request(request, service, trace_ctx=trace_ctx)


def _classify(exc: BaseException) -> tuple[str, bool]:
    """Map one execution failure to ``(error_kind, retryable)``."""
    if isinstance(exc, JobError):
        return exc.kind, exc.retryable
    if isinstance(exc, BrokenExecutor):
        return "worker_crash", True
    if isinstance(exc, CancelledError):
        return "cancelled", False
    # TimeoutError subclasses OSError since 3.10: classify it first, or a
    # hung socket read would masquerade as retryable transient I/O.
    if isinstance(exc, TimeoutError):
        return "timeout", False
    if isinstance(exc, OSError):
        return "transient_io", True
    return "exception", False


class JobQueue:
    """Coalescing, self-healing job queue in front of a :class:`MappingService`.

    Parameters
    ----------
    service:
        The shared compilation service (its store also holds routed-circuit
        artifacts).  Built from ``cache_dir`` when omitted.
    workers:
        Executor width (≥ 1).
    executor:
        ``"thread"`` (default) or ``"process"`` — see module docstring.
    max_jobs:
        Completed-record retention bound.
    job_timeout:
        Default per-attempt execution deadline in seconds (None = no limit);
        ``CompileRequest.deadline`` overrides it per job.
    max_pending:
        Live-job (queued + running) cap; cold submissions past it raise
        :class:`QueueFull`.  None = unbounded.
    retry:
        A :class:`RetryPolicy`, or ``False`` to disable retries (None →
        the default policy: 3 attempts).
    breaker:
        A :class:`CircuitBreaker`, or ``False`` to disable (None → default).
    """

    def __init__(
        self,
        service: MappingService | None = None,
        cache_dir: str | None = None,
        workers: int = 1,
        executor: str = "thread",
        max_jobs: int = _DEFAULT_MAX_JOBS,
        job_timeout: float | None = None,
        max_pending: int | None = None,
        retry: RetryPolicy | None | bool = None,
        breaker: CircuitBreaker | None | bool = None,
        registry=None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.service = service if service is not None else MappingService(cache_dir)
        # Share the service's registry unless the caller isolates one; both
        # default to the process-global registry.
        self.registry = registry if registry is not None else getattr(
            self.service, "registry", None
        ) or get_registry()
        self.executor_kind = executor
        workers = max(1, int(workers))
        self.workers = workers
        self._pool = self._make_pool()
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, JobRecord] = OrderedDict()
        self._futures: dict[str, Future] = {}
        self._by_key: dict[str, str] = {}
        #: job id → settlement future, resolved with the record on ANY
        #: terminal path; what wait()/?wait=1 block on.
        self._settled: dict[str, Future] = {}
        #: job id → live deadline watchdog / pending retry timer.
        self._timers: dict[str, threading.Timer] = {}
        self._retry_timers: dict[str, threading.Timer] = {}
        #: job id → pool generation its current attempt was dispatched to.
        self._job_gen: dict[str, int] = {}
        self._pool_gen = 0
        #: job id → count of live waiters; pinned records survive trimming.
        self._pins: dict[str, int] = {}
        self._ids = itertools.count(1)
        self.max_jobs = int(max_jobs)
        self.job_timeout = float(job_timeout) if job_timeout else None
        self.max_pending = int(max_pending) if max_pending else None
        if retry is False:
            self._retry: RetryPolicy | None = None
        else:
            self._retry = retry if isinstance(retry, RetryPolicy) else RetryPolicy()
        if breaker is False:
            self._breaker: CircuitBreaker | None = None
        else:
            self._breaker = breaker if isinstance(breaker, CircuitBreaker) else CircuitBreaker()
        # Seeded: jitter spacing stays reproducible run to run.
        self._rng = random.Random(0x5EED)
        self._live = 0
        self._draining = False
        self._counters = {
            "submitted": 0,
            "coalesced": 0,
            "executed": 0,
            "errors": 0,
            "retried": 0,
            "timeouts": 0,
            "cancelled": 0,
            "worker_crashes": 0,
            "pool_rebuilds": 0,
            "shed_full": 0,
            "shed_breaker": 0,
            "shed_draining": 0,
        }

    #: Per-queue counter name → global registry metric (name, help, labels).
    #: Terminal states share one ``repro_jobs_total`` family; sheds share
    #: ``repro_jobs_shed_total`` — the Prometheus-idiomatic shapes.
    _METRIC_MAP = {
        "submitted": ("repro_jobs_submitted_total", "Jobs submitted (incl. coalesced).", {}),
        "coalesced": ("repro_jobs_coalesced_total", "Submissions coalesced onto an in-flight job.", {}),
        "executed": ("repro_jobs_total", "Jobs settled, by terminal state.", {"state": "done"}),
        "errors": ("repro_jobs_total", "Jobs settled, by terminal state.", {"state": "error"}),
        "cancelled": ("repro_jobs_total", "Jobs settled, by terminal state.", {"state": "cancelled"}),
        "retried": ("repro_job_retries_total", "Job attempts re-dispatched after retryable failures.", {}),
        "timeouts": ("repro_job_timeouts_total", "Jobs settled by the deadline watchdog.", {}),
        "worker_crashes": ("repro_worker_crashes_total", "Worker-crash failures observed.", {}),
        "pool_rebuilds": ("repro_pool_rebuilds_total", "Process pools rebuilt after breaking.", {}),
        "shed_full": ("repro_jobs_shed_total", "Submissions shed, by reason.", {"reason": "queue_full"}),
        "shed_breaker": ("repro_jobs_shed_total", "Submissions shed, by reason.", {"reason": "breaker_open"}),
        "shed_draining": ("repro_jobs_shed_total", "Submissions shed, by reason.", {"reason": "draining"}),
    }

    def _count(self, name: str, n: int = 1) -> None:
        """The single choke point every queue counter goes through.

        Increments the per-queue counter (``stats()`` back-compat) and the
        process-global registry metric in one place, so no code path can
        bump one without the other.  Callers may hold ``self._lock``; the
        registry's per-instrument locks never reach back into the queue, so
        the nesting cannot deadlock.
        """
        self._counters[name] += n
        metric, help_text, labels = self._METRIC_MAP[name]
        self.registry.counter(metric, help=help_text, **labels).inc(n)

    def _set_depth_locked(self) -> None:
        self.registry.gauge(
            "repro_queue_depth", help="Live (queued + running) jobs."
        ).set(self._live)

    def _make_pool(self):
        if self.executor_kind == "process":
            return ProcessPoolExecutor(
                max_workers=self.workers, mp_context=pool_context()
            )
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # Submission, coalescing, load shedding
    # ------------------------------------------------------------------
    def submit(
        self, request: CompileRequest, trace_id: str | None = None
    ) -> tuple[JobRecord, bool]:
        """Enqueue one request; returns ``(record, coalesced)``.

        ``coalesced=True`` means an identical request was already in flight
        and this submission subscribed to it instead of dispatching work.
        Raises :class:`QueueFull` / :class:`BreakerOpen` /
        :class:`ServiceDraining` when shed — never for coalesced
        submissions, which cost nothing.

        ``trace_id`` stamps the job's trace (one is minted when omitted).
        A coalesced submission keeps the in-flight job's original trace.
        """
        key = request.coalesce_key()
        with self._lock:
            coalesced = self._coalesce_locked(key)
            if coalesced is not None:
                return coalesced, True
            breaker_open = self._breaker is not None and self._breaker.is_open()
            if not breaker_open:
                record = self._accept_locked(request, key, trace_id)
                dispatch = True
            else:
                dispatch = False
        if not dispatch:
            # Breaker open: only warm work passes.  The cache probe runs
            # outside the lock (it fingerprints the Hamiltonian).
            if not self._probe_warm(request):
                with self._lock:
                    self._count("shed_breaker")
                raise BreakerOpen(
                    "circuit breaker open (failure-rate spike): cold compiles "
                    "shed; warm cache hits still served",
                    retry_after=self._breaker.retry_after(),
                )
            with self._lock:
                # Re-check: an identical twin may have arrived mid-probe.
                coalesced = self._coalesce_locked(key)
                if coalesced is not None:
                    return coalesced, True
                record = self._accept_locked(request, key, trace_id)
        self._dispatch(record)
        return record, False

    def _coalesce_locked(self, key: str) -> JobRecord | None:
        if self._draining:
            self._count("shed_draining")
            raise ServiceDraining(
                "service is draining for shutdown; not accepting new jobs",
                retry_after=30.0,
            )
        jid = self._by_key.get(key)
        if jid is not None:
            record = self._jobs[jid]
            if not record.done:
                record.subscribers += 1
                self._count("submitted")
                self._count("coalesced")
                return record
        return None

    def _accept_locked(
        self, request: CompileRequest, key: str, trace_id: str | None = None
    ) -> JobRecord:
        if self.max_pending is not None and self._live >= self.max_pending:
            self._count("shed_full")
            raise QueueFull(
                f"queue at capacity ({self._live} live jobs >= "
                f"max_pending={self.max_pending})",
                retry_after=min(30.0, 1.0 + 0.25 * self._live),
            )
        self._count("submitted")
        record = JobRecord(
            id=f"j{next(self._ids):08d}",
            request=request,
            status=JobStatus.QUEUED,
            created_at=time.time(),
            trace_id=trace_id or new_trace_id(),
        )
        self._jobs[record.id] = record
        self._by_key[key] = record.id
        self._settled[record.id] = Future()
        self._live += 1
        self._set_depth_locked()
        self._trim_locked()
        return record

    def _probe_warm(self, request: CompileRequest) -> bool:
        """True when the request would be served from cache (breaker bypass).

        Only ``map`` jobs have a cheap cache probe (fingerprint the
        Hamiltonian, check the service tiers); compile jobs are always
        treated as cold while the breaker is open.
        """
        if request.job != "map":
            return False
        try:
            h = build_case(request.case)
            spec = request.spec().resolve(h)
            return self.service.is_cached(self.service.fingerprint(h, spec))
        except Exception:  # noqa: BLE001 - a failing probe is just "cold"
            return False

    # ------------------------------------------------------------------
    # Dispatch, supervision, retries
    # ------------------------------------------------------------------
    def _dispatch(self, record: JobRecord) -> None:
        """Hand one attempt of ``record`` to the executor (initial or retry)."""
        request = record.request
        try:
            if self.executor_kind == "process":
                with self._lock:
                    if record.done:
                        return
                    # The pool owns the work from here; RUNNING means
                    # "dispatched" (worker start isn't observable
                    # cross-process).
                    record.status = JobStatus.RUNNING
                    record.started_at = time.time()
                store = self.service.store
                cache_dir = str(store.root) if store is not None else None
                future = self._pool.submit(
                    execute_request,
                    request.to_dict(),
                    cache_dir,
                    store is not None,
                    {"trace_id": record.trace_id, "spans": []},
                )
            else:
                future = self._pool.submit(self._run_local, record)
        except Exception as exc:  # noqa: BLE001 - broken/shut pool at dispatch
            self._handle_failure(record, exc)
            return
        with self._lock:
            settled_meanwhile = record.done
            if not settled_meanwhile:
                self._futures[record.id] = future
                self._job_gen[record.id] = self._pool_gen
                self._retry_timers.pop(record.id, None)
        if settled_meanwhile:
            # Cancel outside the lock: a successful cancel runs done
            # callbacks synchronously, and _on_done needs the lock.
            future.cancel()
            return
        self._arm_deadline(record, future)
        future.add_done_callback(lambda fut, rec=record: self._on_done(rec, fut))

    def _run_local(self, record: JobRecord) -> dict:
        with self._lock:
            if record.done:
                raise CancelledError(f"job {record.id} settled before execution")
            record.status = JobStatus.RUNNING
            record.started_at = time.time()
        faults.crash_if("worker_crash")
        # Activate the trace here rather than passing trace_ctx down —
        # tests monkeypatch _run_request with two-argument fakes, so the
        # (request, service) call shape is part of the contract.
        trace_ctx = TraceContext(record.trace_id)
        with activate(trace_ctx):
            out = _run_request(record.request, self.service)
        if isinstance(out, dict) and "trace" not in out:
            out = dict(out)
            out["trace"] = trace_ctx.to_dict()
        return out

    def _arm_deadline(self, record: JobRecord, future: Future) -> None:
        timeout = record.request.deadline or self.job_timeout
        if not timeout:
            return
        timer = threading.Timer(timeout, self._on_deadline, args=(record, future))
        timer.daemon = True
        with self._lock:
            if record.done:
                return
            old = self._timers.pop(record.id, None)
            self._timers[record.id] = timer
        if old is not None:
            old.cancel()
        timer.start()

    def _on_deadline(self, record: JobRecord, future: Future) -> None:
        with self._lock:
            if record.done or self._futures.get(record.id) is not future:
                return  # settled, or a retry superseded this attempt
            timeout = record.request.deadline or self.job_timeout
            self._count("timeouts")
            self._settle_locked(
                record,
                error=(
                    f"job exceeded its {timeout:g}s deadline "
                    f"(attempt {record.attempts})"
                ),
                kind="timeout",
            )
        # Outside the lock: a successful cancel runs _on_done synchronously,
        # which re-takes the lock (and then no-ops on the settled record).
        future.cancel()
        if self._breaker is not None:
            self._breaker.record(False)

    def _on_done(self, record: JobRecord, future: Future) -> None:
        with self._lock:
            if self._futures.get(record.id) is not future or record.done:
                return  # superseded by a retry, or already settled
            if future.cancelled():
                exc: BaseException | None = CancelledError(
                    f"job {record.id} future cancelled"
                )
            else:
                exc = future.exception()
            if exc is None:
                self._settle_locked(record, result=future.result())
        if exc is None:
            if self._breaker is not None:
                self._breaker.record(True)
            return
        self._handle_failure(record, exc)

    def _handle_failure(self, record: JobRecord, exc: BaseException) -> None:
        """Classify one failed attempt: retry it or settle the record."""
        kind, retryable = _classify(exc)
        retry_delay = None
        with self._lock:
            if record.done:
                return
            gen = self._job_gen.get(record.id)
            if kind == "worker_crash":
                self._count("worker_crashes")
            if (
                retryable
                and self._retry is not None
                and record.attempts < self._retry.max_attempts
                and not self._draining
            ):
                record.attempts += 1
                record.status = JobStatus.QUEUED
                record.started_at = None
                self._count("retried")
                # Drop this attempt's future/watchdog so stale callbacks
                # can't settle the record while the retry is pending.
                self._futures.pop(record.id, None)
                timer = self._timers.pop(record.id, None)
                if timer is not None:
                    timer.cancel()
                retry_delay = self._retry.delay(record.attempts - 1, self._rng)
            else:
                status = JobStatus.CANCELLED if kind in ("cancelled", "shutdown") else None
                self._settle_locked(
                    record,
                    error=f"{type(exc).__name__}: {exc}",
                    kind=kind,
                    status=status,
                )
        if self._breaker is not None and kind not in ("cancelled", "shutdown"):
            self._breaker.record(False)
        if isinstance(exc, BrokenExecutor):
            self._maybe_rebuild(gen)
        if retry_delay is None:
            return
        retry_timer = threading.Timer(retry_delay, self._redispatch, args=(record,))
        retry_timer.daemon = True
        with self._lock:
            if record.done:
                return  # a drain/cancel raced the backoff window
            self._retry_timers[record.id] = retry_timer
        retry_timer.start()

    def _redispatch(self, record: JobRecord) -> None:
        with self._lock:
            self._retry_timers.pop(record.id, None)
            if record.done or self._draining:
                if not record.done:
                    self._count("cancelled")
                    self._settle_locked(
                        record,
                        error="service drained before the retry could run",
                        kind="shutdown",
                        status=JobStatus.CANCELLED,
                    )
                return
        self._dispatch(record)

    def _maybe_rebuild(self, gen: int | None) -> None:
        """Replace a broken process pool exactly once per generation."""
        if self.executor_kind != "process":
            return
        with self._lock:
            if gen is None or gen != self._pool_gen or self._draining:
                return
            self._pool_gen += 1
            old = self._pool
            self._pool = self._make_pool()
            self._count("pool_rebuilds")
        old.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Settlement (the single terminal path)
    # ------------------------------------------------------------------
    def _settle_locked(
        self,
        record: JobRecord,
        result: dict | None = None,
        error: str | None = None,
        kind: str | None = None,
        status: str | None = None,
    ) -> None:
        """Settle one record terminally (idempotent; call under the lock).

        Every terminal transition funnels through here: the coalesce key is
        released, the live gauge drops, watchdogs die, and the settlement
        future resolves so every waiter unblocks.
        """
        if record.done:
            return
        if result is not None:
            record.result = result
            record.fingerprint = result.get("fingerprint")
            record.source = result.get("source")
            record.status = JobStatus.DONE
            self._count("executed")
        else:
            record.error = error
            record.error_kind = kind
            record.status = status or JobStatus.ERROR
            if record.status == JobStatus.ERROR:
                self._count("errors")
        record.finished_at = time.time()
        self.registry.histogram(
            "repro_job_seconds",
            help="Job wall time, submission to settlement.",
        ).observe(max(0.0, record.finished_at - record.created_at))
        key = record.request.coalesce_key()
        if self._by_key.get(key) == record.id:
            del self._by_key[key]
        self._live = max(0, self._live - 1)
        self._set_depth_locked()
        self._job_gen.pop(record.id, None)
        for table in (self._timers, self._retry_timers):
            timer = table.pop(record.id, None)
            if timer is not None:
                timer.cancel()
        settled = self._settled.get(record.id)
        if settled is not None and not settled.done():
            settled.set_result(record)

    def _trim_locked(self) -> None:
        if len(self._jobs) <= self.max_jobs:
            return
        for jid in list(self._jobs):
            if len(self._jobs) <= self.max_jobs:
                break
            record = self._jobs[jid]
            # A record is evictable only once finished AND unobserved: a
            # pinned record still has a ``wait()``/``?wait=1`` client about
            # to read it — evicting it would turn their poll into a 404.
            if record.done and self._pins.get(jid, 0) == 0:
                del self._jobs[jid]
                self._futures.pop(jid, None)
                self._settled.pop(jid, None)
                self._job_gen.pop(jid, None)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> tuple[JobRecord | None, bool]:
        """Cancel one submission of a job; returns ``(record, cancelled)``.

        With multiple coalesced subscribers this peels one off (the job
        keeps running for the rest: ``cancelled=False``).  The last (or
        only) subscriber actually cancels: the executor future is cancelled
        if still possible, the record settles ``cancelled``, and the
        coalesce key is released so an identical re-submission starts
        fresh.  Unknown ids return ``(None, False)``; settled records are
        returned unchanged.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return None, False
            if record.done:
                return record, False
            if record.subscribers > 1:
                record.subscribers -= 1
                return record, False
            future = self._futures.get(job_id)
            self._count("cancelled")
            self._settle_locked(
                record,
                error="cancelled by client request",
                kind="cancelled",
                status=JobStatus.CANCELLED,
            )
        if future is not None:
            future.cancel()  # outside the lock; stale _on_done no-ops
        return record, True

    # ------------------------------------------------------------------
    # Lookup and waiting
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord | None:
        """The job's current record."""
        with self._lock:
            return self._jobs.get(job_id)

    def future(self, job_id: str) -> Future | None:
        """The job's *current attempt's* executor future (may be superseded)."""
        with self._lock:
            return self._futures.get(job_id)

    def settlement(self, job_id: str) -> Future | None:
        """The job's settlement future — resolves with the record on any
        terminal path (for ``asyncio.wrap_future`` bridging)."""
        with self._lock:
            return self._settled.get(job_id)

    def pin(self, job_id: str) -> None:
        """Shield a record from retention trimming while a waiter holds it."""
        with self._lock:
            self._pins[job_id] = self._pins.get(job_id, 0) + 1

    def unpin(self, job_id: str) -> None:
        """Release one :meth:`pin`; the record becomes evictable at zero."""
        with self._lock:
            count = self._pins.get(job_id, 0) - 1
            if count > 0:
                self._pins[job_id] = count
            else:
                self._pins.pop(job_id, None)

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until the job settles (or ``timeout``); returns its record.

        The record is pinned for the duration, so a burst of submissions
        trimming the completed-job table cannot evict it mid-wait.  Blocks
        on the settlement future, which resolves on *any* terminal path —
        success, failure, timeout, cancellation, drain — so a crashed
        worker can never wedge a waiter.
        """
        self.pin(job_id)
        try:
            with self._lock:
                record = self._jobs.get(job_id)
                if record is None:
                    raise KeyError(f"unknown job {job_id!r}")
                settled = self._settled.get(job_id)
            if settled is not None and not record.done:
                try:
                    settled.result(timeout)
                except TimeoutError:
                    pass
            return self.get(job_id) or record
        finally:
            self.unpin(job_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            by_status = {status: 0 for status in JobStatus.ALL}
            for record in self._jobs.values():
                by_status[record.status] += 1
            out = dict(self._counters)
            out["live"] = self._live
            out["draining"] = self._draining
        out["jobs"] = by_status
        out["executor"] = self.executor_kind
        out["workers"] = self.workers
        out["job_timeout"] = self.job_timeout
        out["max_pending"] = self.max_pending
        if self._retry is not None:
            out["retry"] = {
                "max_attempts": self._retry.max_attempts,
                "base_delay": self._retry.base_delay,
                "max_delay": self._retry.max_delay,
            }
        if self._breaker is not None:
            out["breaker"] = self._breaker.state()
        injector = faults.get_injector()
        if injector.active:
            out["faults"] = injector.stats()
        out["service"] = self.service.stats()
        return out

    def health(self) -> dict:
        """Operational state for ``/v1/healthz``: ok / degraded / draining."""
        breaker_state = self._breaker.state() if self._breaker is not None else None
        with self._lock:
            draining = self._draining
            live = self._live
        if draining:
            state = "draining"
        elif breaker_state is not None and breaker_state["open"]:
            state = "degraded"
        else:
            state = "ok"
        out = {"state": state, "draining": draining, "live": live}
        if breaker_state is not None:
            out["breaker"] = breaker_state
        return out

    # ------------------------------------------------------------------
    # Drain and shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 30.0) -> dict:
        """Graceful shutdown: stop intake, settle in-flight, stop the pool.

        New submissions raise :class:`ServiceDraining` from the moment this
        is called.  In-flight jobs get up to ``timeout`` seconds to settle
        naturally; stragglers are force-settled as ``cancelled`` (kind
        ``"shutdown"``) so every waiter — local or ``?wait=1`` — unblocks.
        Returns ``{"settled": n, "forced": n}``.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._lock:
            self._draining = True
            pending = [
                (record, self._settled.get(record.id))
                for record in self._jobs.values()
                if not record.done
            ]
        for _record, settled in pending:
            if settled is None:
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                settled.result(remaining)
            except TimeoutError:
                break
        forced = 0
        to_cancel = []
        with self._lock:
            for record in list(self._jobs.values()):
                if record.done:
                    continue
                future = self._futures.get(record.id)
                if future is not None:
                    to_cancel.append(future)
                self._count("cancelled")
                self._settle_locked(
                    record,
                    error=(
                        f"service drained: job cancelled after the "
                        f"{timeout:g}s settling budget"
                    ),
                    kind="shutdown",
                    status=JobStatus.CANCELLED,
                )
                forced += 1
        for future in to_cancel:
            future.cancel()  # outside the lock; stale _on_done no-ops
        self._pool.shutdown(wait=False, cancel_futures=True)
        return {"settled": len(pending) - forced, "forced": forced}

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Stop the executors.

        ``cancel_futures=True`` (the Ctrl-C path) first settles every
        unfinished record as ``cancelled`` so no ``wait()``/``?wait=1``
        client is left hanging, then cancels whatever the pool hasn't
        started.
        """
        if cancel_futures:
            to_cancel = []
            with self._lock:
                self._draining = True
                for record in self._jobs.values():
                    if record.done:
                        continue
                    future = self._futures.get(record.id)
                    if future is not None:
                        to_cancel.append(future)
                    self._count("cancelled")
                    self._settle_locked(
                        record,
                        error="service shut down before the job completed",
                        kind="shutdown",
                        status=JobStatus.CANCELLED,
                    )
            for future in to_cancel:
                future.cancel()  # outside the lock; stale _on_done no-ops
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
