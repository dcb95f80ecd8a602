"""Get-or-compile facade over the fingerprint keyspace and artifact store.

``MappingService`` is the single entry point the pipeline, CLI, and batch
orchestrator share.  A request is ``(hamiltonian, MappingSpec)``; the service
fingerprints it (:mod:`.fingerprint`) and asks its ``mappings``
:class:`~repro.service.cache.ArtifactCache`, which tries the in-memory LRU,
then the disk :class:`~repro.service.store.ArtifactStore`, then compiles —
storing the artifact with provenance.  The service's second cache,
``circuits``, holds routed-circuit metrics for
:class:`repro.compile.CompilationPipeline` under the same policy.

Concurrent requests for one fingerprint are **single-flighted** by the cache,
so a thundering herd of identical requests costs one compile.
(Cross-*process* dedup is the batch orchestrator's job — it dedups by
fingerprint before dispatch; racing writers are still safe because store
writes are atomic and content-addressed.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
from .cache import ArtifactCache
from .fingerprint import MappingSpec, fingerprint_request
from .store import ArtifactStore

_log = get_logger("repro.service")

__all__ = ["MappingService", "CompileResult", "compile_mapping"]

#: Memory-tier capacity per namespace (values are small; disk is the backstop).
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


class MappingService:
    """Tiered (memory LRU → disk store → compile) cache for mappings and
    routed circuits, with stats.

    Parameters
    ----------
    cache_dir:
        Root for the disk :class:`ArtifactStore`.
    use_disk:
        ``False`` → memory-only service (no artifacts written), for callers
        that want dedup within a run but no persistent state.
    memory_capacity:
        Max values held in memory *per namespace* (parsed mappings, routed
        circuit metrics); 0 disables the memory tier.
    max_bytes:
        Disk-cache LRU cap, forwarded to the :class:`ArtifactStore` (an int
        per namespace or a ``{namespace: bytes}`` dict).
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        use_disk: bool = True,
        memory_capacity: int = _DEFAULT_MEMORY_CAPACITY,
        max_bytes=None,
        registry=None,
    ):
        self.registry = registry if registry is not None else get_registry()
        self.store: ArtifactStore | None = (
            ArtifactStore(cache_dir, max_bytes=max_bytes, registry=self.registry)
            if use_disk
            else None
        )
        self.mappings = ArtifactCache("mappings", memory_capacity, self.registry)
        #: Routed-circuit metrics, filled by :class:`repro.compile.CompilationPipeline`.
        self.circuits = ArtifactCache("circuits", memory_capacity, self.registry)

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
        return fingerprint in self.mappings or (
            self.store is not None and self.store.contains(fingerprint)
        )

    def get_or_compile(
        self,
        hamiltonian: FermionOperator | MajoranaOperator,
        spec: MappingSpec,
    ) -> CompileResult:
        with span("fingerprint", registry=self.registry):
            spec = spec.resolve(hamiltonian)
            fp = fingerprint_request(hamiltonian, spec)
        elapsed = 0.0

        def compile_() -> FermionQubitMapping:
            nonlocal elapsed
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
            self.registry.counter(
                "repro_compiles_total", help="Mapping compiles executed."
            ).inc()
            self.registry.histogram(
                "repro_compile_seconds", help="Wall time of mapping compiles."
            ).observe(elapsed)
            threshold = slow_compile_threshold()
            if elapsed > threshold:
                _log.warning(
                    "slow compile: %s took %.3fs (threshold %.1fs)", fp, elapsed, threshold,
                    extra={"fingerprint": fp, "seconds": round(elapsed, 3),
                           "trace_id": trace_id},
                )
            return mapping

        def load() -> FermionQubitMapping | None:
            return self.store.get_mapping(fp)

        def save(mapping: FermionQubitMapping) -> None:
            self.store.put_mapping(fp, mapping, provenance=mapping.provenance)

        disk = (load, save) if self.store is not None else (None, None)
        mapping, tier = self.mappings.get_or_compute(fp, compile_, *disk)
        return CompileResult(mapping, fp, tier or "compiled", compile_seconds=elapsed,
                             provenance=getattr(mapping, "provenance", None))

    def stats(self) -> dict:
        """Mapping-namespace stats at the top level, plus ``circuits`` and
        (with a disk tier) ``store`` sub-dicts."""
        out = self.mappings.stats()
        out["circuits"] = self.circuits.stats()
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def __repr__(self) -> str:
        root = self.store.root if self.store is not None else None
        return f"MappingService(store={str(root)!r}, lru={self.mappings.capacity})"
