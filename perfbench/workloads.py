"""The benchmark's three workloads, each a closed loop over the public API.

A workload is built from its seed, set up (possibly several times, to time
set-up), then run one *pass* at a time.  A pass is a fixed list of jobs, so
every pass of a run does the same work and per-pass figures are comparable.

* ``compile-ladder`` -- cold ``CompilationPipeline(service=None).compile_one``
  over a size ladder, HATT and JW.  Trotter synthesis, peephole and routing
  dominate; the JW rows skip HATT construction, so a construction change
  should move only the HATT rows.
* ``map-syk`` -- a served ``map`` job without HTTP: fresh source build,
  memory-only ``MappingService`` compile, then ``mapping.map(h)``.  The
  fermion->Majorana expansion dominates; no circuit code runs.
* ``serve-mixed`` -- two HTTP clients against ``BackgroundServer`` over a
  two-thread ``JobQueue`` and a disk store.  Mostly warm requests, with every
  fifth a cold ``map`` of a never-seen SYK instance, so cold writes compete
  with warm reads for the workers and the store.
"""

from __future__ import annotations

import itertools
import shutil
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro.sources as sources
from repro.compile import CompilationPipeline
from repro.serve import BackgroundServer, JobQueue, ServiceClient, ServiceError
from repro.service import MappingService, MappingSpec, compile_mapping, fingerprint_request

from checks import anticommute_pairwise, mapping_masks, masks_from_label

ARCH = "sycamore"
LADDER_KINDS = ("hatt", "jw")
QUALITY = ("pauli_weight", "routed_cx", "routed_depth")


@dataclass
class JobResult:
    job: str  # "compile" | "map"
    case: str
    kind: str
    latency_s: float
    quality: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: serve-mixed only: server-side timestamps split the round trip.
    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    http_s: float = 0.0
    circuit_hit: bool = False
    #: serve-mixed: the request joined an identical job already in flight.
    coalesced: bool = False
    #: serve-mixed map jobs: fingerprint of the served mapping.
    fingerprint: str | None = None


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _job_span(rec, name: str = "job"):
    return rec.span(name) if rec is not None else nullcontext()


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp

    def clear_chem_cache(self) -> None:
        """Forget cached integrals so every set-up pays the SCF again."""
        shutil.rmtree(self.tmp / "cache" / "chem", ignore_errors=True)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec) -> list[JobResult]:
        raise NotImplementedError

    def post_checks(self, jobs: list[JobResult]) -> dict[tuple[str, str], list[str]]:
        """Checks made once after the run, keyed by (case, kind)."""
        return {}

    def queue_counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class CompileLadder(Workload):
    name = "compile-ladder"

    def __init__(self, seed, smoke, tmp):
        super().__init__(seed, smoke, tmp)
        if smoke:
            self.cases = ["hubbard:2x2", f"random:syk:n=6,seed={seed}"]
        else:
            self.cases = ["H2O_sto3g", "neutrino:4x2F", "hubbard:4x4",
                          f"random:syk:n=10,seed={seed}"]
        self.hams = []

    def setup(self):
        self.clear_chem_cache()
        self.hams = [(case, sources.build_case(case)) for case in self.cases]

    def run_pass(self, rec):
        out = []
        for case, h in self.hams:
            for kind in LADDER_KINDS:
                start = time.perf_counter()
                try:
                    with _job_span(rec):
                        m = CompilationPipeline(service=None).compile_one(h, kind, ARCH)
                except Exception as exc:  # noqa: BLE001 - a failed job is a result
                    out.append(JobResult("compile", case, kind, time.perf_counter() - start,
                                         errors=[_failure(exc)]))
                    continue
                latency = time.perf_counter() - start
                quality = {key: getattr(m, key) for key in QUALITY}
                out.append(JobResult("compile", case, kind, latency, quality))
        return out

    def post_checks(self, jobs):
        errors = defaultdict(list)
        for case, h in self.hams:
            for kind in LADDER_KINDS:
                bad = anticommute_pairwise(
                    mapping_masks(compile_mapping(h, MappingSpec(kind=kind)))
                )
                if bad:
                    errors[(case, kind)].append(f"{case}|{kind} mapping: {bad}")
            weight = {
                j.kind: j.quality["pauli_weight"]
                for j in jobs if j.case == case and not j.errors
            }
            if len(weight) == 2 and weight["hatt"] > weight["jw"]:
                msg = f"{case}: hatt weight {weight['hatt']} > jw weight {weight['jw']}"
                errors[(case, "hatt")].append(msg)
                errors[(case, "jw")].append(msg)
        return errors


class MapSyk(Workload):
    name = "map-syk"

    def __init__(self, seed, smoke, tmp):
        super().__init__(seed, smoke, tmp)
        if smoke:
            self.cases = [f"random:syk:n=6,seed={seed}", f"random:syk:n=6,seed={seed + 1}",
                          "hubbard:2x2"]
        else:
            self.cases = [f"random:syk:n=16,seed={seed}", f"random:syk:n=12,seed={seed + 1}",
                          "H2O_sto3g"]

    def setup(self):
        # Jobs rebuild their case; set-up only fills the integral cache.
        self.clear_chem_cache()
        for case in self.cases:
            sources.build_case(case)

    def run_pass(self, rec):
        out = []
        for case in self.cases:
            start = time.perf_counter()
            try:
                with _job_span(rec):
                    h = sources.build_case(case)
                    result = MappingService(use_disk=False).get_or_compile(
                        h, MappingSpec(kind="hatt")
                    )
                    weight = result.mapping.map(h).pauli_weight()
            except Exception as exc:  # noqa: BLE001 - a failed job is a result
                out.append(JobResult("map", case, "hatt", time.perf_counter() - start,
                                     errors=[_failure(exc)]))
                continue
            job = JobResult("map", case, "hatt", time.perf_counter() - start,
                            {"pauli_weight": int(weight)})
            bad = anticommute_pairwise(mapping_masks(result.mapping))
            if bad:
                job.errors.append(f"{case}|hatt mapping: {bad}")
            out.append(job)
        return out


class ServeMixed(Workload):
    name = "serve-mixed"
    CLIENTS = 2
    WORKERS = 2
    #: Every COLD_EVERY-th request of a client is a cold map.
    COLD_EVERY = 5

    def __init__(self, seed, smoke, tmp):
        super().__init__(seed, smoke, tmp)
        if smoke:
            maps = ["hubbard:2x2", f"random:syk:n=6,seed={seed}"]
            compiles = ["hubbard:2x2"]
            self.cold_n = 6
        else:
            maps = ["H2O_sto3g", "neutrino:4x2F", f"random:syk:n=12,seed={seed}"]
            compiles = ["hubbard:4x4", "neutrino:4x2F"]
            self.cold_n = 10
        self.warm = [{"job": "map", "case": c, "kind": "hatt"} for c in maps] + [
            {"job": "compile", "case": c, "kind": "hatt", "arch": ARCH} for c in compiles
        ]
        # One pass per client cycles the warm set an exact number of times, so
        # every pass sends the same warm mix.
        self.requests_per_client = len(self.warm) * self.COLD_EVERY
        # Clients start at different warm items, as independent users would.
        self._warm_pos = [i * 2 for i in range(self.CLIENTS)]
        self._cold = itertools.count(1)
        self._cold_lock = threading.Lock()
        self._setups = 0
        self.queue = None
        self.server = None

    def setup(self):
        self.close()
        self.clear_chem_cache()
        for case in dict.fromkeys(req["case"] for req in self.warm):
            sources.build_case(case)
        self._setups += 1
        service = MappingService(cache_dir=str(self.tmp / f"store-{self._setups}"))
        self.queue = JobQueue(service=service, executor="thread", workers=self.WORKERS)
        self.server = BackgroundServer(self.queue).start()
        with ServiceClient(self.server.host, self.server.port) as client:
            for req in self.warm:
                record = client.submit(req, wait=True)
                if record.status != "done":
                    raise RuntimeError(f"prewarm {req} ended {record.status}: {record.error}")

    def _next_request(self, client: int, r: int) -> dict:
        if r % self.COLD_EVERY == self.COLD_EVERY - 1:
            with self._cold_lock:
                k = next(self._cold)
            case = f"random:syk:n={self.cold_n},seed={self.seed + k}"
            return {"job": "map", "case": case, "kind": "hatt"}
        req = self.warm[self._warm_pos[client] % len(self.warm)]
        self._warm_pos[client] += 1
        return req

    def _client(self, client: int, rec, out: list) -> None:
        with ServiceClient(self.server.host, self.server.port) as conn:
            for r in range(self.requests_per_client):
                req = self._next_request(client, r)
                sent_at = time.time()
                start = time.perf_counter()
                try:
                    with _job_span(rec, "request"):
                        record = conn.submit(req, wait=True)
                    out.append(self._result(req, record, time.perf_counter() - start, sent_at))
                except Exception as exc:  # noqa: BLE001 - refused or malformed: a failed job
                    out.append(JobResult(req["job"], req["case"], req["kind"],
                                         time.perf_counter() - start, errors=[_failure(exc)]))

    @staticmethod
    def _result(req: dict, record, latency: float, sent_at: float) -> JobResult:
        job = JobResult(req["job"], req["case"], req["kind"], latency)
        if record.status != "done" or not record.result:
            job.errors.append(f"job {record.status}: {record.error}")
            return job
        # The server runs in this process, so its clock is ours: a record
        # created before this request was sent belongs to an earlier request.
        job.coalesced = record.created_at < sent_at
        if not job.coalesced:
            job.queue_wait_s = record.started_at - record.created_at
            job.exec_s = record.finished_at - record.started_at
            job.http_s = latency - (record.finished_at - record.created_at)
        result = record.result
        if req["job"] == "map":
            job.quality = {"pauli_weight": result["pauli_weight"]}
            job.fingerprint = result["fingerprint"]
        else:
            job.quality = {key: result["metrics"][key] for key in QUALITY}
            job.circuit_hit = result["source"] == "cache"
        return job

    def run_pass(self, rec):
        results: list[list[JobResult]] = [[] for _ in range(self.CLIENTS)]
        threads = [
            threading.Thread(target=self._client, args=(c, rec, results[c]),
                             name=f"perfbench-client-{c}")
            for c in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [job for per_client in results for job in per_client]

    def post_checks(self, jobs):
        """Fetch each mapping artifact over HTTP and check its algebra."""
        errors = defaultdict(list)
        fingerprints: dict[str, set] = defaultdict(set)
        for job in jobs:
            if not job.errors and job.fingerprint is not None:
                fingerprints[job.fingerprint].add((job.case, job.kind))
        # Compile results carry the circuit fingerprint; derive the mapping's.
        for case, kind in {(j.case, j.kind) for j in jobs if j.job == "compile"}:
            h = sources.build_case(case)
            fp = fingerprint_request(h, MappingSpec(kind=kind).resolve(h))
            fingerprints[fp].add((case, kind))
        with ServiceClient(self.server.host, self.server.port) as conn:
            for fp, keys in fingerprints.items():
                try:
                    doc = conn.artifact(fp)["artifact"]
                    bad = anticommute_pairwise(
                        [masks_from_label(label) for label in doc["majorana_strings"]]
                    )
                except (ServiceError, OSError, ValueError, KeyError) as exc:
                    bad = _failure(exc)
                if bad:
                    for key in keys:
                        errors[key].append(f"{key[0]}|{key[1]} mapping {fp[:12]}: {bad}")
        return errors

    def queue_counters(self):
        return self.queue.stats() if self.queue is not None else {}

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.queue is not None:
            self.queue.shutdown(wait=True)
            self.queue = None


WORKLOADS = {cls.name: cls for cls in (CompileLadder, MapSyk, ServeMixed)}
