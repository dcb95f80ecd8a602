"""Typed request/response layer shared by the HTTP API, batch, and the CLI.

This module is the API redesign's core: **one** canonical request object
(:class:`CompileRequest`) flows through every entry point — a ``POST
/v1/jobs`` body, a ``repro serve`` job, a batch cell, a CLI invocation — and
fingerprints identically everywhere, because all of them resolve to the same
:class:`~repro.service.MappingSpec` / ``CompileOptions`` pair underneath.

Three layers:

* :class:`CompileRequest` — a validated, immutable job description
  (``"map"`` → compile one fermion-to-qubit mapping; ``"compile"`` → route a
  Trotter step onto one architecture).  Its :meth:`~CompileRequest
  .coalesce_key` is the cross-client request-coalescing key: every field
  that names the work, so clients asking for the same physics share one
  compile.  Requests carry no engine choice — the service always runs the
  fast kernels, whose bit-identical references are test oracles.
* :class:`JobRecord` — the lifecycle of one submitted job
  (:class:`JobStatus` state machine, timestamps, result payload).
* :func:`envelope` — the versioned JSON response wrapper
  ``{"schema": "repro/v1", "command": ..., "result": ...}`` that every
  ``--json`` CLI path and every HTTP response uses.

Everything round-trips through plain JSON dicts (``to_dict``/``from_dict``)
with strict unknown-key rejection, so a typo'd field fails loudly at the
edge instead of silently changing the request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..circuits.evolution import TERM_ORDERS
from ..compile.pipeline import ARCHITECTURES, CompileOptions
from ..service import MAPPING_KINDS, MappingSpec

__all__ = [
    "SCHEMA",
    "JOB_KINDS",
    "JobStatus",
    "JobError",
    "CompileRequest",
    "JobRecord",
    "envelope",
    "check_envelope",
]

#: Version tag carried by every envelope; bump on incompatible surface changes.
SCHEMA = "repro/v1"

#: Job families: ``map`` compiles a fermion-to-qubit mapping, ``compile``
#: additionally synthesizes and routes one Trotter step onto hardware.
JOB_KINDS = ("map", "compile")


class JobStatus:
    """Job lifecycle states (string constants, not an enum, so records stay
    plain-JSON all the way through)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    ERROR = "error"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, ERROR, CANCELLED)
    TERMINAL = (DONE, ERROR, CANCELLED)


class JobError(RuntimeError):
    """Typed job-execution failure.

    ``kind`` classifies the failure for operators and the retry policy —
    ``"worker_crash"``, ``"timeout"``, ``"transient_io"``, ``"cancelled"``,
    ``"shutdown"``, or the catch-all ``"exception"`` — and lands on
    :attr:`JobRecord.error_kind` when the job settles.  ``retryable`` marks
    whether a bounded re-dispatch of the same work may plausibly succeed
    (a crashed worker or a transient I/O error: yes; a bad request: no).
    """

    def __init__(self, message: str, kind: str = "exception", retryable: bool = False):
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable


@dataclass(frozen=True)
class CompileRequest:
    """One validated compilation job, identical across every entry point.

    ``term_order``/``lookahead`` only apply to ``job="compile"``.  ``arch``
    names the routing target for ``compile`` jobs and — for
    ``kind="hatt-arch"`` only — the coupling graph the tree is grown
    against, so ``map`` jobs accept it exactly when the kind is
    architecture-adaptive.  ``arch_weight`` tunes that kind's distance
    blend and is rejected for every other kind.

    ``deadline`` is a per-attempt execution budget in seconds enforced by
    the queue (it overrides the server's ``--job-timeout`` default).  It is
    the one field *excluded* from :meth:`coalesce_key` — it shapes how the
    work runs, not what the work is — so when identical requests coalesce,
    the first submitter's deadline governs the shared job.
    """

    case: str
    job: str = "map"
    kind: str = "hatt"
    arch: str | None = None
    arch_weight: float | None = None
    term_order: str = "mutual"
    lookahead: int | None = None
    deadline: float | None = None

    def __post_init__(self):
        if not self.case or not isinstance(self.case, str):
            raise ValueError("request needs a non-empty case spec")
        if self.job not in JOB_KINDS:
            raise ValueError(f"unknown job {self.job!r}; expected one of {JOB_KINDS}")
        if self.kind not in MAPPING_KINDS:
            raise ValueError(
                f"unknown mapping kind {self.kind!r}; expected one of {MAPPING_KINDS}"
            )
        if self.term_order not in TERM_ORDERS:
            raise ValueError(
                f"unknown term order {self.term_order!r}; expected one of {TERM_ORDERS}"
            )
        if self.lookahead is not None and (
            not isinstance(self.lookahead, int)
            or isinstance(self.lookahead, bool)
            or self.lookahead < 1
        ):
            raise ValueError(f"lookahead must be a positive int, got {self.lookahead!r}")
        if self.deadline is not None and (
            isinstance(self.deadline, bool)
            or not isinstance(self.deadline, (int, float))
            or not math.isfinite(self.deadline)
            or self.deadline <= 0
        ):
            raise ValueError(
                f"deadline must be a finite number of seconds > 0, got {self.deadline!r}"
            )
        if self.job == "compile" or self.kind == "hatt-arch":
            if self.arch not in ARCHITECTURES:
                need = "compile jobs" if self.job == "compile" else "hatt-arch requests"
                raise ValueError(
                    f"{need} need arch in {ARCHITECTURES}, got {self.arch!r}"
                )
        elif self.arch is not None:
            raise ValueError("map jobs take no arch (except kind='hatt-arch')")
        if self.arch_weight is not None:
            if self.kind != "hatt-arch":
                raise ValueError("arch_weight only applies to kind='hatt-arch'")
            if (
                isinstance(self.arch_weight, bool)
                or not isinstance(self.arch_weight, (int, float))
                or not math.isfinite(self.arch_weight)
                or self.arch_weight < 0
            ):
                raise ValueError(
                    f"arch_weight must be a finite number >= 0, got {self.arch_weight!r}"
                )

    # ------------------------------------------------------------------
    # Bridges into the compilation stack
    # ------------------------------------------------------------------
    def spec(self) -> MappingSpec:
        """The mapping-compile half of the request."""
        if self.kind == "hatt-arch":
            return MappingSpec(
                kind=self.kind, arch=self.arch, arch_weight=self.arch_weight
            )
        return MappingSpec(kind=self.kind)

    def options(self) -> CompileOptions:
        """The synthesis/routing half (``job="compile"`` only)."""
        kwargs: dict = {"term_order": self.term_order}
        if self.lookahead is not None:
            kwargs["lookahead"] = self.lookahead
        return CompileOptions(**kwargs)

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def coalesce_key(self) -> str:
        """Cross-client coalescing key: the work, minus the deadline.

        The case spec is canonicalized through the source registry (best
        effort — an unresolvable case keeps its raw string and fails at
        execution), so aliases of one Hamiltonian (``H2_sto3g`` vs
        ``electronic:H2_sto3g``, parameter-tail orderings) coalesce onto a
        single in-flight compile.
        """
        from ..sources import canonical_spec

        values = self.to_dict()
        del values["deadline"]
        try:
            values["case"] = canonical_spec(self.case)
        except ValueError:
            pass
        return "|".join(f"{name}={value!r}" for name, value in values.items())

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "CompileRequest":
        if not isinstance(doc, dict):
            raise ValueError(f"request must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown request fields {sorted(unknown)!r}; expected {sorted(known)!r}"
            )
        if "case" not in doc:
            raise ValueError("request needs a non-empty case spec")
        return cls(**doc)

    def replace(self, **overrides) -> "CompileRequest":
        return replace(self, **overrides)


@dataclass
class JobRecord:
    """Lifecycle of one submitted job (what ``GET /v1/jobs/{id}`` returns).

    ``subscribers`` counts how many submissions this record serves — 1 for a
    lone request, N when N identical concurrent requests coalesced onto it.
    ``result`` is the job-family payload (fingerprint/weight for ``map``,
    routed metrics for ``compile``); ``error`` is set instead on failure,
    with ``error_kind`` carrying the :class:`JobError` classification
    (``"worker_crash"``, ``"timeout"``, ...).  ``attempts`` counts dispatches
    including retries — a record that settled ``done`` with ``attempts > 1``
    survived a worker crash or transient fault.  ``trace_id`` is the
    request's end-to-end trace identifier: stamped at submission, carried
    through the executor (including process-pool workers), and echoed in
    the envelope's ``trace`` block and artifact provenance.
    """

    id: str
    request: CompileRequest
    status: str = JobStatus.QUEUED
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    fingerprint: str | None = None
    source: str | None = None
    subscribers: int = 1
    attempts: int = 1
    result: dict | None = None
    error: str | None = None
    error_kind: str | None = None
    trace_id: str | None = None

    @property
    def done(self) -> bool:
        return self.status in JobStatus.TERMINAL

    @property
    def wall_seconds(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.created_at

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "request": self.request.to_dict(),
            "status": self.status,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "subscribers": self.subscribers,
            "attempts": self.attempts,
            "result": self.result,
            "error": self.error,
            "error_kind": self.error_kind,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "JobRecord":
        if not isinstance(doc, dict):
            raise ValueError(f"job record must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown job-record fields {sorted(unknown)!r}")
        data = dict(doc)
        data["request"] = CompileRequest.from_dict(data["request"])
        record = cls(**data)
        if record.status not in JobStatus.ALL:
            raise ValueError(
                f"unknown job status {record.status!r}; expected one of {JobStatus.ALL}"
            )
        return record


def envelope(command: str, result, **extra) -> dict:
    """The versioned response wrapper every JSON surface emits.

    ``command`` names the operation (CLI subcommand or HTTP route action);
    ``result`` is its payload; keyword extras land beside them (e.g.
    ``error=...``, ``coalesced=...``).
    """
    doc = {"schema": SCHEMA, "command": command, "result": result}
    doc.update(extra)
    return doc


def check_envelope(doc: dict, command: str | None = None) -> dict:
    """Validate an envelope and return it (client-side guard)."""
    if not isinstance(doc, dict):
        raise ValueError(f"envelope must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    if "command" not in doc or "result" not in doc:
        raise ValueError("envelope needs 'command' and 'result' fields")
    if command is not None and doc["command"] != command:
        raise ValueError(f"expected command {command!r}, got {doc['command']!r}")
    return doc
