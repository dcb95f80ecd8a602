"""Parallel batch compilation: cases × mapping kinds through a process pool.

``compile_suite`` expands a suite spec (case spec strings × mapping kinds)
into tasks, **dedups them by fingerprint before dispatch** (two 8-mode cases
share one JW compile; a repeated case compiles once), fans the unique
compiles across a ``ProcessPoolExecutor``, and streams per-task results as
each lands.  With a shared ``cache_dir`` the workers read and repair the
same content-addressed store the serial service uses, so a warm suite is
pure cache reads.

Cases resolve through the :mod:`repro.sources` registry.  Planning
builds every case once, in the parent — some case generators run a
Hartree–Fock solve, which must not be repeated per worker — and
fingerprints each task on that operator; the pool receives the built
``FermionOperator`` of every case in the fingerprint group.  Workers return
the compiled mapping as its schema-v2 JSON document plus one Pauli-weight
evaluation per case: a static kind's key omits the terms, so two cases that
share a ``jw`` artifact still map to different weights.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..analysis.tables import format_table
from ..fermion import FermionOperator
from ..mappings.io import mapping_from_dict, mapping_to_dict
from ..obs.trace import TraceContext, activate, current_trace
from ..sources import resolve as resolve_source
from .fingerprint import MAPPING_KINDS, MappingSpec, fingerprint_request
from .service import MappingService

__all__ = [
    "BatchTask",
    "TaskResult",
    "SuiteReport",
    "expand_tasks",
    "compile_suite",
    "iter_compile_suite",
    "pool_context",
]


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every process-pool consumer shares.

    ``fork`` keeps sys.path (and thus an uninstalled src/ layout) visible to
    workers where available; other platforms fall back to the default start
    method.  The serve job queue routes onto the same kind of pool.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


@dataclass(frozen=True)
class BatchTask:
    """One (case, mapping kind) cell of the suite grid."""

    case: str
    kind: str


@dataclass
class TaskResult:
    """Outcome of one suite cell (streamed as soon as its compile lands)."""

    case: str
    kind: str
    fingerprint: str | None = None
    n_modes: int | None = None
    cache_hit: bool = False
    #: ``"memory"`` | ``"disk"`` | ``"compiled"`` | ``"error"``
    source: str = "error"
    compile_seconds: float = 0.0
    pauli_weight: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "mapping": self.kind,
            "fingerprint": self.fingerprint,
            "n_modes": self.n_modes,
            "cache_hit": self.cache_hit,
            "source": self.source,
            "compile_seconds": round(self.compile_seconds, 6),
            "pauli_weight": self.pauli_weight,
            "error": self.error,
        }


@dataclass
class SuiteReport:
    """All task results of one suite run plus aggregate statistics."""

    tasks: list[TaskResult] = field(default_factory=list)
    n_unique: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    #: Per-stage breakdown (``TraceContext.summary()``) of every compile of
    #: the run — including spans recorded inside pool workers and shipped back.
    timings: dict = field(default_factory=dict)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_cache_hits(self) -> int:
        return sum(1 for t in self.tasks if t.ok and t.cache_hit)

    @property
    def n_errors(self) -> int:
        return sum(1 for t in self.tasks if not t.ok)

    @property
    def total_compile_seconds(self) -> float:
        return sum(t.compile_seconds for t in self.tasks if t.ok)

    def table(self) -> str:
        rows = []
        for t in self.tasks:
            if t.ok:
                rows.append([
                    t.case, t.kind, t.n_modes, t.pauli_weight if t.pauli_weight
                    is not None else "-", t.source,
                    f"{t.compile_seconds:.3f}",
                    (t.fingerprint or "")[:12],
                ])
            else:
                rows.append([t.case, t.kind, "-", "-", "error", "-", t.error])
        title = (
            f"batch suite: {self.n_tasks} tasks ({self.n_unique} unique compiles), "
            f"{self.n_cache_hits} cache hits, {self.n_errors} errors, "
            f"jobs={self.jobs}, wall {self.wall_seconds:.2f}s"
        )
        return format_table(
            title,
            ["case", "mapping", "modes", "Pauli weight", "source", "compile s",
             "fingerprint"],
            rows,
        )

    def to_dict(self) -> dict:
        return {
            "n_tasks": self.n_tasks,
            "n_unique": self.n_unique,
            "n_cache_hits": self.n_cache_hits,
            "n_errors": self.n_errors,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
            "total_compile_seconds": round(self.total_compile_seconds, 6),
            "timings": self.timings,
            "tasks": [t.to_dict() for t in self.tasks],
        }


def expand_tasks(
    cases: Sequence[str], kinds: Sequence[str] | None = None
) -> list[BatchTask]:
    """The suite grid, de-duplicated and in deterministic order."""
    kinds = list(kinds) if kinds else ["hatt"]
    for kind in kinds:
        if kind not in MAPPING_KINDS:
            raise ValueError(
                f"unknown mapping kind {kind!r}; expected one of {MAPPING_KINDS}"
            )
    seen: set[tuple[str, str]] = set()
    out: list[BatchTask] = []
    for case in cases:
        for kind in kinds:
            if (case, kind) not in seen:
                seen.add((case, kind))
                out.append(BatchTask(case, kind))
    return out


def _spec_for(kind: str, arch: str | None, arch_weight: float | None) -> MappingSpec:
    """Per-kind spec builder: arch config attaches only to ``hatt-arch``."""
    if kind == "hatt-arch":
        return MappingSpec(kind=kind, arch=arch, arch_weight=arch_weight)
    return MappingSpec(kind=kind)


# ----------------------------------------------------------------------
# Worker side (must stay module-level picklable)
# ----------------------------------------------------------------------
def _weigh(result, h) -> tuple[int | None, str | None]:
    """``(pauli_weight, None)`` of ``h`` under ``result``, or ``(None, error)``."""
    try:
        return result.pauli_weight(h), None
    except Exception as exc:  # noqa: BLE001 - e.g. non-finite coefficients
        return None, f"{type(exc).__name__}: {exc}"


def _compile_worker(
    args: tuple,
) -> tuple[str, dict | None, str, float, str | None, list[dict], dict]:
    """Compile one unique fingerprint in a worker process.

    ``hams`` maps each case of the fingerprint group to the operator the
    parent built; the first one is compiled.  Returns ``(fingerprint,
    mapping_doc, source, compile_seconds, error, spans, weights)``, with
    ``weights`` mapping each case to its :func:`_weigh` pair when
    ``evaluate`` is set.  The mapping travels back as its schema-v2 JSON
    document (plain dict, no custom pickling surface) and ``spans`` carries
    the worker-side stage timings — context vars don't cross processes, so
    the trace rides the return value.  An operator arrives with its memoized
    Majorana form and digest, so the worker does not convert or hash again;
    the service's fingerprint is still checked against the parent's, so a
    worker that keys the request differently fails its tasks instead of
    caching under the wrong key.
    """
    (hams, kind, arch, arch_weight, cache_dir, use_disk, expected_fp,
     evaluate) = args
    trace_ctx = TraceContext()
    try:
        spec = _spec_for(kind, arch, arch_weight)
        service = MappingService(cache_dir=cache_dir, use_disk=use_disk)
        with activate(trace_ctx):
            result = service.get_or_compile(next(iter(hams.values())), spec)
        if result.fingerprint != expected_fp:  # pragma: no cover - sanity
            raise RuntimeError(
                f"worker fingerprint {result.fingerprint[:12]} != "
                f"parent {expected_fp[:12]} — non-deterministic canonicalization?"
            )
        weights = (
            {case: _weigh(result, h) for case, h in hams.items()} if evaluate else {}
        )
        return (
            expected_fp,
            mapping_to_dict(result.mapping),
            result.source,
            result.compile_seconds,
            None,
            trace_ctx.spans,
            weights,
        )
    except Exception as exc:  # noqa: BLE001 - reported per-task, never fatal
        return (
            expected_fp,
            None,
            "error",
            0.0,
            f"{type(exc).__name__}: {exc}",
            trace_ctx.spans,
            {},
        )


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
def _plan(
    tasks: Iterable[BatchTask],
    arch: str | None = None,
    arch_weight: float | None = None,
) -> tuple[dict[str, FermionOperator], dict[str, list[BatchTask]], list[TaskResult]]:
    """Build every case once, fingerprint every task, group tasks by fingerprint.

    The Majorana form and its digest are memoized on the operator, so a
    case converts and hashes once however many adaptive kinds it runs.  A
    case that fails to resolve or build fails every one of its tasks with
    its error.
    """
    hams: dict[str, FermionOperator] = {}
    failed: dict[str, str] = {}
    errors: list[TaskResult] = []
    by_fp: dict[str, list[BatchTask]] = {}
    for task in tasks:
        if task.case not in hams and task.case not in failed:
            try:
                hams[task.case] = resolve_source(task.case).build()
            except Exception as exc:  # noqa: BLE001 - bad spec or file → per-task error
                failed[task.case] = f"{type(exc).__name__}: {exc}"
        if task.case in failed:
            errors.append(TaskResult(task.case, task.kind, error=failed[task.case]))
            continue
        try:
            spec = _spec_for(task.kind, arch, arch_weight)
            fp = fingerprint_request(hams[task.case], spec)
        except ValueError as exc:  # e.g. hatt-arch without an arch
            errors.append(TaskResult(task.case, task.kind, error=str(exc)))
            continue
        except Exception as exc:  # noqa: BLE001 - e.g. non-finite coefficients
            errors.append(
                TaskResult(task.case, task.kind, error=f"{type(exc).__name__}: {exc}")
            )
            continue
        by_fp.setdefault(fp, []).append(task)
    return hams, by_fp, errors


def _group_results(
    fp: str,
    fp_tasks: list[BatchTask],
    mapping,
    source: str,
    compile_seconds: float,
    weights: dict,
) -> Iterator[TaskResult]:
    """One :class:`TaskResult` per task of a compiled fingerprint group.

    ``weights`` maps a case to its :func:`_weigh` pair; a case whose
    evaluation raised fails only its own tasks.
    """
    for task in fp_tasks:
        weight, error = weights.get(task.case, (None, None))
        if error is not None:
            yield TaskResult(task.case, task.kind, fingerprint=fp, error=error)
            continue
        yield TaskResult(
            case=task.case,
            kind=task.kind,
            fingerprint=fp,
            n_modes=mapping.n_modes,
            cache_hit=source in ("memory", "disk"),
            source=source,
            compile_seconds=compile_seconds,
            pauli_weight=weight,
        )


def iter_compile_suite(
    cases: Sequence[str],
    kinds: Sequence[str] | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    use_cache: bool = True,
    arch: str | None = None,
    arch_weight: float | None = None,
    evaluate: bool = True,
) -> Iterator[TaskResult]:
    """Stream :class:`TaskResult`\\ s for a suite as compiles complete.

    ``jobs > 1`` fans the *unique-fingerprint* compiles over a process pool;
    duplicate tasks ride along for free.  ``use_cache=False`` disables the
    disk store (each run recompiles; parallel dedup still applies).
    ``arch``/``arch_weight`` configure any ``hatt-arch`` tasks in the suite.
    Stage spans land on the active trace, if any — worker spans included.
    """
    tasks = expand_tasks(cases, kinds)
    hams, by_fp, errors = _plan(tasks, arch, arch_weight)
    yield from errors

    if jobs <= 1 or len(by_fp) <= 1:
        service = MappingService(cache_dir=cache_dir, use_disk=use_cache)
        for fp, fp_tasks in by_fp.items():
            spec = _spec_for(fp_tasks[0].kind, arch, arch_weight)
            h = hams[fp_tasks[0].case]
            try:
                result = service.get_or_compile(h, spec)
            except Exception as exc:  # noqa: BLE001 - keep the suite going
                for task in fp_tasks:
                    yield TaskResult(task.case, task.kind, fingerprint=fp,
                                     error=f"{type(exc).__name__}: {exc}")
                continue
            # A static key omits the terms, so each case of the group is
            # weighed on its own operator.
            weights = {
                task.case: _weigh(result, hams[task.case])
                for task in fp_tasks if evaluate
            }
            yield from _group_results(fp, fp_tasks, result.mapping, result.source,
                                      result.compile_seconds, weights)
        return

    # Parallel path: one pool task per unique fingerprint, shipping the
    # operators planning built; workers also run the Pauli-weight evaluation.
    max_workers = min(jobs, len(by_fp), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=max_workers, mp_context=pool_context()) as pool:
        futures = {
            pool.submit(
                _compile_worker,
                ({task.case: hams[task.case] for task in fp_tasks}, fp_tasks[0].kind,
                 arch, arch_weight, cache_dir, use_cache, fp, evaluate),
            ): fp
            for fp, fp_tasks in by_fp.items()
        }
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                fp = futures[future]
                fp_tasks = by_fp[fp]
                try:
                    fp_result, doc, source, secs, err, spans, weights = future.result()
                    trace_ctx = current_trace()
                    if trace_ctx is not None:
                        trace_ctx.extend(spans)
                except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
                    # A dead worker (OOM kill, segfault) must cost its own
                    # tasks, not the rest of the suite.
                    err = f"{type(exc).__name__}: {exc}"
                if err is not None:
                    for task in fp_tasks:
                        yield TaskResult(task.case, task.kind, fingerprint=fp,
                                         source="error", error=err)
                    continue
                yield from _group_results(fp, fp_tasks, mapping_from_dict(doc),
                                          source, secs, weights)


def compile_suite(
    cases: Sequence[str],
    kinds: Sequence[str] | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    use_cache: bool = True,
    arch: str | None = None,
    arch_weight: float | None = None,
    evaluate: bool = True,
    progress=None,
) -> SuiteReport:
    """Run a suite to completion and return its :class:`SuiteReport`.

    ``progress`` (optional callable) receives each :class:`TaskResult` as it
    streams in — the CLI uses it for live per-task lines.
    """
    start = time.perf_counter()
    report = SuiteReport(jobs=jobs)
    trace_ctx = TraceContext()
    with activate(trace_ctx):
        for result in iter_compile_suite(
            cases,
            kinds,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=use_cache,
            arch=arch,
            arch_weight=arch_weight,
            evaluate=evaluate,
        ):
            report.tasks.append(result)
            if progress is not None:
                progress(result)
    report.wall_seconds = time.perf_counter() - start
    report.timings = trace_ctx.summary()
    fps = {t.fingerprint for t in report.tasks if t.ok and t.fingerprint}
    report.n_unique = len(fps)
    # Deterministic report order regardless of completion order.
    report.tasks.sort(key=lambda t: (t.case, t.kind))
    return report
