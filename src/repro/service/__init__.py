"""Compilation service layer: fingerprints, artifact cache, batch orchestration.

HATT mappings are Hamiltonian-adaptive, so every distinct problem instance
pays a fresh O(N^3)–O(N^4) compile.  This package treats compiled mappings as
cacheable, shareable artifacts keyed by the *physics* of the request:

* :mod:`.fingerprint` — order-invariant, coefficient-tolerant content hashes
  over the Hamiltonian's Majorana form plus the mapping config;
* :mod:`.store` — a content-addressed on-disk artifact store with atomic
  writes and corruption-safe loads;
* :mod:`.cache` — ``ArtifactCache``, the one get-or-compute policy (memory
  LRU → disk → compute, single-flight dedup, hit/miss statistics);
* :mod:`.service` — the :class:`MappingService` facade over two such caches;
* :mod:`.batch` — :func:`compile_suite`, fanning cases × mappings across a
  process pool with fingerprint-level dedup and streamed results.
"""

from .fingerprint import (
    ADAPTIVE_KINDS,
    DEFAULT_TOLERANCE,
    MAPPING_KINDS,
    STATIC_KINDS,
    MappingSpec,
    fingerprint_operator,
    fingerprint_request,
)
from .store import NAMESPACES, ArtifactStore, default_cache_dir
from .service import CompileResult, MappingService, compile_mapping
from .batch import (
    BatchTask,
    SuiteReport,
    TaskResult,
    compile_suite,
    expand_tasks,
    iter_compile_suite,
    pool_context,
)

__all__ = [
    "MappingSpec",
    "MAPPING_KINDS",
    "STATIC_KINDS",
    "ADAPTIVE_KINDS",
    "DEFAULT_TOLERANCE",
    "fingerprint_operator",
    "fingerprint_request",
    "ArtifactStore",
    "NAMESPACES",
    "default_cache_dir",
    "MappingService",
    "CompileResult",
    "compile_mapping",
    "BatchTask",
    "TaskResult",
    "SuiteReport",
    "expand_tasks",
    "compile_suite",
    "iter_compile_suite",
    "pool_context",
]
