"""Get-or-compile facade over the fingerprint keyspace and artifact store.

``MappingService`` is the single entry point the pipeline, CLI, and batch
orchestrator share.  A request is ``(hamiltonian, MappingSpec)``; the service

1. fingerprints the request (:mod:`.fingerprint`),
2. consults an in-memory LRU (hot mappings stay parsed),
3. falls back to the disk :class:`~repro.service.store.ArtifactStore`,
4. compiles on a full miss, storing the artifact with provenance.

Concurrent requests for one fingerprint are **single-flighted**: the first
thread compiles while the rest block on a per-fingerprint lock and then read
the freshly cached result, so a thundering herd of identical requests costs
one compile.  (Cross-*process* dedup is the batch orchestrator's job — it
dedups by fingerprint before dispatch; racing writers are still safe because
store writes are atomic and content-addressed.)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .. import __version__
from ..fermion import FermionOperator, MajoranaOperator
from ..hatt import hatt_mapping
from ..mappings import (
    FermionQubitMapping,
    balanced_ternary_tree,
    bravyi_kitaev,
    jordan_wigner,
    parity_mapping,
)
from ..obs.logging import get_logger, slow_compile_threshold
from ..obs.metrics import get_registry
from ..obs.trace import current_trace_id, span
from .fingerprint import MappingSpec, fingerprint_request
from .store import ArtifactStore

_log = get_logger("repro.service")

__all__ = ["MappingService", "CompileResult", "compile_mapping"]

#: In-memory LRU capacity (mappings are small; disk remains the backstop).
_DEFAULT_MEMORY_CAPACITY = 128


def compile_mapping(
    hamiltonian: FermionOperator | MajoranaOperator, spec: MappingSpec
) -> FermionQubitMapping:
    """Compile one mapping from a resolved spec (the cache-free primitive)."""
    spec = spec.resolve(hamiltonian)
    n = spec.n_modes
    if spec.kind == "jw":
        return jordan_wigner(n)
    if spec.kind == "bk":
        return bravyi_kitaev(n)
    if spec.kind == "btt":
        return balanced_ternary_tree(n)
    if spec.kind == "parity":
        return parity_mapping(n)
    # hatt / hatt-unopt / hatt-arch
    graph = None
    if spec.kind == "hatt-arch":
        from ..circuits.architectures import architecture

        graph = architecture(spec.arch)
    return hatt_mapping(
        hamiltonian,
        n_modes=n,
        vacuum=spec.vacuum,
        graph=graph,
        arch_weight=spec.arch_weight,
    )


@dataclass
class CompileResult:
    """Outcome of one get-or-compile: the mapping plus cache bookkeeping."""

    mapping: FermionQubitMapping
    fingerprint: str
    #: ``"memory"`` | ``"disk"`` | ``"compiled"``
    source: str
    #: Compile wall time when ``source == "compiled"``, else 0.
    compile_seconds: float = 0.0
    provenance: dict | None = None

    @property
    def cache_hit(self) -> bool:
        return self.source != "compiled"


@dataclass
class _Stats:
    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    compiles: int = 0
    compile_seconds: float = 0.0
    single_flight_waits: int = 0
    memory_evictions: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def snapshot(self) -> dict:
        with self.lock:
            hits = self.hits_memory + self.hits_disk
            lookups = hits + self.misses
            return {
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "compiles": self.compiles,
                "compile_seconds": self.compile_seconds,
                "single_flight_waits": self.single_flight_waits,
                "memory_evictions": self.memory_evictions,
                "hit_rate": round(hits / lookups, 4) if lookups else None,
            }


class MappingService:
    """Two-tier (memory LRU → disk store) compilation cache with stats.

    Parameters
    ----------
    cache_dir:
        Root for a default :class:`ArtifactStore`; ignored when ``store`` is
        given.
    store:
        An explicit store instance to share between services.
    use_disk:
        ``False`` → memory-only service (no artifacts written), for callers
        that want dedup within a run but no persistent state.
    memory_capacity:
        Max parsed mappings held in the LRU; 0 disables the memory tier.
    max_bytes:
        Disk-cache LRU cap, forwarded to the default :class:`ArtifactStore`
        (an int per namespace or a ``{namespace: bytes}`` dict); ignored when
        an explicit ``store`` is given.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        store: ArtifactStore | None = None,
        use_disk: bool = True,
        memory_capacity: int = _DEFAULT_MEMORY_CAPACITY,
        max_bytes=None,
        registry=None,
    ):
        self.registry = registry if registry is not None else get_registry()
        if store is not None:
            self.store: ArtifactStore | None = store
        elif use_disk:
            self.store = ArtifactStore(
                cache_dir, max_bytes=max_bytes, registry=self.registry
            )
        else:
            self.store = None
        self.memory_capacity = int(memory_capacity)
        self._memory: OrderedDict[str, FermionQubitMapping] = OrderedDict()
        self._memory_lock = threading.Lock()
        self._flight_lock = threading.Lock()
        self._in_flight: dict[str, threading.Lock] = {}
        self._stats = _Stats()

    # ------------------------------------------------------------------
    # Memory tier
    # ------------------------------------------------------------------
    def _memory_get(self, fp: str) -> FermionQubitMapping | None:
        with self._memory_lock:
            mapping = self._memory.get(fp)
            if mapping is not None:
                self._memory.move_to_end(fp)
            return mapping

    def _memory_put(self, fp: str, mapping: FermionQubitMapping) -> None:
        if self.memory_capacity <= 0:
            return
        evicted = 0
        with self._memory_lock:
            self._memory[fp] = mapping
            self._memory.move_to_end(fp)
            while len(self._memory) > self.memory_capacity:
                self._memory.popitem(last=False)
                evicted += 1
        if evicted:
            with self._stats.lock:
                self._stats.memory_evictions += evicted
            self.registry.counter(
                "repro_cache_evictions_total",
                help="Cache entries evicted, by namespace (memory tier or store).",
                namespace="memory",
            ).inc(evicted)

    def _count_hit(self, tier: str) -> None:
        self.registry.counter(
            "repro_cache_hits_total",
            help="Cache hits, by tier.",
            tier=tier,
        ).inc()

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def fingerprint(
        self, hamiltonian: FermionOperator | MajoranaOperator, spec: MappingSpec
    ) -> str:
        return fingerprint_request(hamiltonian, spec)

    def is_cached(self, fingerprint: str) -> bool:
        """True when ``fingerprint`` would be served without compiling.

        A cheap containment probe over both cache tiers (memory LRU, then
        disk store) — the serve-layer circuit breaker uses it to keep
        answering warm requests while shedding cold compiles.
        """
        with self._memory_lock:
            if fingerprint in self._memory:
                return True
        return self.store is not None and self.store.contains(fingerprint)

    def get_or_compile(
        self,
        hamiltonian: FermionOperator | MajoranaOperator,
        spec: MappingSpec,
    ) -> CompileResult:
        with span("fingerprint", registry=self.registry):
            spec = spec.resolve(hamiltonian)
            fp = fingerprint_request(hamiltonian, spec)

        with span("memory_lookup", registry=self.registry):
            mapping = self._memory_get(fp)
        if mapping is not None:
            with self._stats.lock:
                self._stats.hits_memory += 1
            self._count_hit("memory")
            return CompileResult(mapping, fp, "memory",
                                 provenance=getattr(mapping, "provenance", None))

        with self._flight_lock:
            flight = self._in_flight.get(fp)
            if flight is None:
                flight = self._in_flight[fp] = threading.Lock()
        contended = not flight.acquire(blocking=False)
        if contended:
            with self._stats.lock:
                self._stats.single_flight_waits += 1
            flight.acquire()
        try:
            # A single-flight follower lands here after the leader populated
            # the caches; re-check memory before touching disk.
            mapping = self._memory_get(fp)
            if mapping is not None:
                with self._stats.lock:
                    self._stats.hits_memory += 1
                self._count_hit("memory")
                return CompileResult(mapping, fp, "memory",
                                     provenance=getattr(mapping, "provenance", None))

            if self.store is not None:
                with span("disk_lookup", registry=self.registry):
                    mapping = self.store.get_mapping(fp)
                if mapping is not None:
                    self._memory_put(fp, mapping)
                    with self._stats.lock:
                        self._stats.hits_disk += 1
                    self._count_hit("disk")
                    return CompileResult(mapping, fp, "disk",
                                         provenance=getattr(mapping, "provenance", None))

            start = time.perf_counter()
            with span("tree_construction", registry=self.registry):
                mapping = compile_mapping(hamiltonian, spec)
            elapsed = time.perf_counter() - start
            provenance = {
                "fingerprint": fp,
                "kind": spec.kind,
                "n_modes": spec.n_modes,
                "vacuum": spec.vacuum,
                "compile_seconds": round(elapsed, 6),
                "repro_version": __version__,
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }
            if spec.kind == "hatt-arch":
                provenance["arch"] = spec.arch
                provenance["arch_weight"] = spec.arch_weight
            trace_id = current_trace_id()
            if trace_id:
                provenance["trace_id"] = trace_id
            mapping.provenance = provenance
            if self.store is not None:
                with span("store_write", registry=self.registry):
                    self.store.put_mapping(fp, mapping, provenance=provenance)
            self._memory_put(fp, mapping)
            with self._stats.lock:
                self._stats.misses += 1
                self._stats.compiles += 1
                self._stats.compile_seconds += elapsed
            self.registry.counter(
                "repro_cache_misses_total",
                help="Full cache misses (request went to the compiler).",
            ).inc()
            self.registry.counter(
                "repro_compiles_total", help="Mapping compiles executed."
            ).inc()
            self.registry.histogram(
                "repro_compile_seconds",
                help="Wall time of mapping compiles.",
            ).observe(elapsed)
            if elapsed > slow_compile_threshold():
                _log.warning(
                    "slow compile: %s took %.3fs (threshold %.1fs)",
                    fp,
                    elapsed,
                    slow_compile_threshold(),
                    extra={
                        "fingerprint": fp,
                        "seconds": round(elapsed, 3),
                        "trace_id": trace_id,
                    },
                )
            return CompileResult(mapping, fp, "compiled",
                                 compile_seconds=elapsed, provenance=provenance)
        finally:
            flight.release()
            with self._flight_lock:
                # Last one out drops the lock object so the dict stays bounded
                # by the number of concurrently in-flight fingerprints.
                if fp in self._in_flight and not self._in_flight[fp].locked():
                    del self._in_flight[fp]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = self._stats.snapshot()
        out["memory_entries"] = len(self._memory)
        out["memory_capacity"] = self.memory_capacity
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def __repr__(self) -> str:
        root = self.store.root if self.store is not None else None
        return f"MappingService(store={str(root)!r}, lru={self.memory_capacity})"
