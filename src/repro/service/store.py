"""Content-addressed artifact store for compiled mappings.

Layout (one directory per fingerprint, sharded by the first two hex chars so
no single directory grows unbounded)::

    <root>/mappings/v1/<fp[:2]>/<fp>/mapping.json  # schema-v2 mapping + provenance
    <root>/circuits/v1/<fp[:2]>/<fp>/metrics.json  # routed-circuit metrics

The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hatt``.  The
``mappings/`` namespace keeps the store disjoint from the chemistry integral
cache (``<root>/chem/``), which honors the same environment variable; the
``circuits/`` namespace holds the hardware-compilation pipeline's artifacts
(keyed by mapping fingerprint × architecture × compile options — see
:mod:`repro.compile.pipeline`).

Both namespaces are **LRU-capped**: construct with ``max_bytes`` (one cap
applied to each namespace, or a ``{"mappings": ..., "circuits": ...}`` dict)
and every put evicts least-recently-used entries until the namespace fits.
Recency is the primary document's mtime — refreshed on every successful read
— so a hot entry survives churn that flushes cold ones.  Recency stamps are
written explicitly with strictly increasing nanosecond timestamps
(:meth:`ArtifactStore._next_recency_ns`): relying on the filesystem's own
mtime would collapse every touch within one second on coarse-granularity
filesystems into a tie, making "least recently used" arbitrary under churn.
The cap is strict: a namespace never exceeds its budget after a put, even
if that means evicting the entry just written.

Durability rules:

* **atomic writes** — documents are written to a same-directory temp file
  and ``os.replace``-d into place, so concurrent writers (batch worker
  processes racing on one fingerprint) and crashes can never expose a
  half-written artifact; last writer wins with identical content, because
  the fingerprint pins the content.
* **corruption-safe loads** — a torn, truncated, or hand-edited document
  loads as a *miss*, never an exception: the store quarantines (unlinks) the
  bad file and counts it in ``stats()["corrupt_dropped"]``, and the service
  recompiles and repairs the entry on the next put.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path

from ..mappings.base import FermionQubitMapping
from ..mappings.io import mapping_from_dict, mapping_to_dict
from ..obs.metrics import get_registry

__all__ = ["ArtifactStore", "NAMESPACES", "default_cache_dir"]

#: On-disk layout version; bump on incompatible directory-structure changes.
_LAYOUT = "v1"

_MAPPING_DOC = "mapping.json"
_CIRCUIT_DOC = "metrics.json"

#: Artifact namespaces, in display order.
NAMESPACES = ("mappings", "circuits")

#: The one document of each namespace: its presence defines the entry, its
#: mtime is the entry's LRU recency.
_NS_DOCS = {"mappings": _MAPPING_DOC, "circuits": _CIRCUIT_DOC}

#: Exceptions that mean "this document's *content* is unusable" — JSON syntax
#: errors, missing/mistyped keys, inconsistent mapping content (io.py
#: validation).  These quarantine the file.  I/O errors (permissions, EIO,
#: stale NFS) are treated as transient misses instead: the artifact may be
#: perfectly valid, so it must not be deleted.
_CORRUPTION = (json.JSONDecodeError, KeyError, TypeError, ValueError)

#: Provenance figures recorded at compile time; each must be a non-negative
#: int.
_COUNT_FIELDS = ("pauli_weight", "mapped_terms")


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-hatt"


def _normalize_caps(max_bytes) -> dict[str, int | None]:
    if max_bytes is None:
        return {ns: None for ns in NAMESPACES}
    if isinstance(max_bytes, dict):
        bad = set(max_bytes) - set(NAMESPACES)
        if bad:
            raise ValueError(f"unknown cache namespaces {sorted(bad)!r}")
        return {
            ns: (int(max_bytes[ns]) if max_bytes.get(ns) is not None else None)
            for ns in NAMESPACES
        }
    return {ns: int(max_bytes) for ns in NAMESPACES}


class ArtifactStore:
    """Disk half of the compilation cache; see module docstring for layout.

    Parameters
    ----------
    root:
        Store root; defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hatt``.
    max_bytes:
        LRU cap per namespace — an int (applied to each namespace
        independently), a ``{namespace: bytes}`` dict, or ``None`` (unbounded,
        the default).
    """

    def __init__(self, root: str | Path | None = None, max_bytes=None, registry=None):
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.registry = registry if registry is not None else get_registry()
        self._bases = {ns: self.root / ns / _LAYOUT for ns in NAMESPACES}
        self._caps = _normalize_caps(max_bytes)
        self._evictions = {ns: 0 for ns in NAMESPACES}
        self._corrupt_dropped = 0
        self._recency_lock = threading.Lock()
        self._last_recency_ns = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @staticmethod
    def _check_fingerprint(fingerprint: str) -> str:
        if len(fingerprint) < 8 or not all(c in "0123456789abcdef" for c in fingerprint):
            raise ValueError(f"malformed fingerprint {fingerprint!r}")
        return fingerprint

    def _doc_path(self, namespace: str, fingerprint: str) -> Path:
        fp = self._check_fingerprint(fingerprint)
        return self._bases[namespace] / fp[:2] / fp / _NS_DOCS[namespace]

    def mapping_path(self, fingerprint: str) -> Path:
        return self._doc_path("mappings", fingerprint)

    def circuit_path(self, fingerprint: str) -> Path:
        return self._doc_path("circuits", fingerprint)

    # ------------------------------------------------------------------
    # Raw document I/O
    # ------------------------------------------------------------------
    def _next_recency_ns(self) -> int:
        """A strictly increasing nanosecond recency stamp.

        ``st_mtime`` alone is unusable as an LRU clock: some filesystems
        round it to whole seconds, so every document touched within one
        second ties and eviction order becomes arbitrary.  Stamping each
        write/read-hit with ``max(now_ns, last + 1)`` makes recency a total
        order regardless of filesystem timestamp granularity.
        """
        with self._recency_lock:
            ns = max(time.time_ns(), self._last_recency_ns + 1)
            self._last_recency_ns = ns
            return ns

    @staticmethod
    def _write_fault_check() -> None:
        """Chaos hook: raise before the atomic rename when ``store_write``
        is armed, proving the cleanup path leaves no partial documents.

        Imported lazily — ``repro.serve`` imports this module at package
        level, so a top-level import here would be a cycle.
        """
        from ..serve import faults

        faults.raise_if("store_write", faults.store_write_error)

    def _write_atomic(self, path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            self._write_fault_check()
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._touch(path)

    def _read_doc(self, path: Path, touch: bool = False) -> dict | None:
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise ValueError("artifact document is not a JSON object")
        except FileNotFoundError:
            return None
        except _CORRUPTION:
            self._quarantine(path)
            return None
        except OSError:
            return None  # transient I/O: a miss, but keep the artifact
        if touch:
            self._touch(path)
        return data

    def _touch(self, path: Path) -> None:
        """Refresh a document's LRU recency (write or read hit)."""
        ns = self._next_recency_ns()
        try:
            os.utime(path, ns=(ns, ns))
        except OSError:
            pass

    def _quarantine(self, path: Path) -> None:
        self._corrupt_dropped += 1
        self.registry.counter(
            "repro_store_corrupt_dropped_total",
            help="Corrupt artifact documents quarantined by the store.",
        ).inc()
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Namespace scans and LRU accounting
    # ------------------------------------------------------------------
    def _ns_fingerprints(self, namespace: str) -> list[str]:
        base = self._bases[namespace]
        doc = _NS_DOCS[namespace]
        if not base.is_dir():
            return []
        return sorted(
            entry.name
            for shard in base.iterdir()
            if shard.is_dir()
            for entry in shard.iterdir()
            if (entry / doc).is_file()
        )

    def entries(self, namespace: str) -> list[dict]:
        """Per-entry inventory of one namespace, least-recently-used first."""
        if namespace not in NAMESPACES:
            raise ValueError(f"unknown namespace {namespace!r}; expected {NAMESPACES}")
        out = []
        for fp in self._ns_fingerprints(namespace):
            try:
                st = self._doc_path(namespace, fp).stat()
                size, mtime, mtime_ns = st.st_size, st.st_mtime, st.st_mtime_ns
            except OSError:
                size, mtime, mtime_ns = 0, 0.0, 0
            out.append(
                {"fingerprint": fp, "bytes": size, "mtime": mtime, "mtime_ns": mtime_ns}
            )
        # Sort on st_mtime_ns: the float st_mtime cannot represent the
        # store's nanosecond recency stamps (53-bit mantissa), so close
        # touches would alias back into ties.
        out.sort(key=lambda e: (e["mtime_ns"], e["fingerprint"]))
        return out

    def _remove_entry(self, namespace: str, fingerprint: str) -> bool:
        path = self._doc_path(namespace, fingerprint)
        try:
            path.unlink()
            existed = True
        except OSError:
            existed = False
        try:
            path.parent.rmdir()
        except OSError:
            pass
        return existed

    def _enforce_cap(self, namespace: str) -> int:
        """Evict least-recently-used entries until the namespace fits its cap.

        Strict bound: eviction continues while the namespace exceeds the cap,
        even if that removes the entry that was just written (a cap smaller
        than one artifact yields an always-empty namespace, never an
        over-budget one).  Returns the number of entries evicted.
        """
        cap = self._caps[namespace]
        if cap is None:
            return 0
        inventory = self.entries(namespace)
        total = sum(e["bytes"] for e in inventory)
        evicted = 0
        for entry in inventory:  # LRU-first order
            if total <= cap:
                break
            if self._remove_entry(namespace, entry["fingerprint"]):
                evicted += 1
            total -= entry["bytes"]
        self._evictions[namespace] += evicted
        if evicted:
            self.registry.counter(
                "repro_cache_evictions_total",
                help="Cache entries evicted, by namespace and tier.",
                namespace=namespace,
                tier="disk",
            ).inc(evicted)
        return evicted

    # ------------------------------------------------------------------
    # Mappings
    # ------------------------------------------------------------------
    def put_mapping(
        self,
        fingerprint: str,
        mapping: FermionQubitMapping,
        provenance: dict | None = None,
    ) -> Path:
        path = self.mapping_path(fingerprint)
        self._write_atomic(path, mapping_to_dict(mapping, provenance=provenance))
        self._enforce_cap("mappings")
        return path

    def get_mapping(self, fingerprint: str) -> FermionQubitMapping | None:
        """Load a stored mapping, or ``None`` on miss *or* corruption.

        Every load runs :meth:`FermionQubitMapping.check` (with the vacuum
        condition when the provenance records ``vacuum``) and validates the
        stored weight fields, so a document that parses but is not a valid
        mapping — one flipped Pauli, a negative weight — is quarantined
        like a torn one and never served.
        """
        loaded = self._load_mapping(fingerprint)
        return loaded[1] if loaded is not None else None

    def get_mapping_doc(self, fingerprint: str) -> dict | None:
        """The stored mapping document (schema-v2 JSON), checked like
        :meth:`get_mapping`."""
        loaded = self._load_mapping(fingerprint)
        return loaded[0] if loaded is not None else None

    def _load_mapping(self, fingerprint: str) -> tuple[dict, FermionQubitMapping] | None:
        path = self.mapping_path(fingerprint)
        data = self._read_doc(path, touch=True)
        if data is None:
            return None
        try:
            mapping = mapping_from_dict(data)
            provenance = getattr(mapping, "provenance", None) or {}
            mapping.check(vacuum=provenance.get("vacuum") is True)
            for field in _COUNT_FIELDS:
                value = provenance.get(field)
                if value is not None and (
                    isinstance(value, bool) or not isinstance(value, int) or value < 0
                ):
                    raise ValueError(f"stored {field} {value!r} is not a count")
        except _CORRUPTION:
            self._quarantine(path)
            return None
        return data, mapping

    # ------------------------------------------------------------------
    # Routed-circuit metrics (compilation-pipeline artifacts)
    # ------------------------------------------------------------------
    def put_circuit_report(self, fingerprint: str, report: dict) -> Path:
        path = self.circuit_path(fingerprint)
        self._write_atomic(path, report)
        self._enforce_cap("circuits")
        return path

    def get_circuit_report(self, fingerprint: str) -> dict | None:
        return self._read_doc(self.circuit_path(fingerprint), touch=True)

    def circuit_fingerprints(self) -> list[str]:
        """All fingerprints with a routed-circuit document, sorted."""
        return self._ns_fingerprints("circuits")

    def remove_circuit(self, fingerprint: str) -> bool:
        return self._remove_entry("circuits", fingerprint)

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def contains(self, fingerprint: str) -> bool:
        return self.mapping_path(fingerprint).exists()

    def fingerprints(self) -> list[str]:
        """All fingerprints with a mapping document, sorted."""
        return self._ns_fingerprints("mappings")

    def provenance(self, fingerprint: str) -> dict | None:
        data = self._read_doc(self.mapping_path(fingerprint))
        if data is None:
            return None
        prov = data.get("provenance")
        return prov if isinstance(prov, dict) else None

    def remove(self, fingerprint: str) -> bool:
        """Drop one mapping entry. Returns whether anything existed."""
        return self._remove_entry("mappings", fingerprint)

    def clear(self, namespace: str | None = None) -> int:
        """Remove every entry of one namespace (default: all); returns the
        number of entries dropped."""
        targets = NAMESPACES if namespace is None else (namespace,)
        n = 0
        for ns in targets:
            if ns not in NAMESPACES:
                raise ValueError(f"unknown namespace {ns!r}; expected {NAMESPACES}")
            for fp in self._ns_fingerprints(ns):
                if self._remove_entry(ns, fp):
                    n += 1
        return n

    def namespace_stats(self) -> dict:
        """Per-namespace entry counts, byte totals, caps, and evictions."""
        out = {}
        for ns in NAMESPACES:
            inventory = self.entries(ns)
            out[ns] = {
                "entries": len(inventory),
                "bytes": sum(e["bytes"] for e in inventory),
                "max_bytes": self._caps[ns],
                "evictions": self._evictions[ns],
            }
        return out

    def stats(self) -> dict:
        ns = self.namespace_stats()
        return {
            "root": str(self.root),
            "n_mappings": ns["mappings"]["entries"],
            "n_circuits": ns["circuits"]["entries"],
            "total_bytes": sum(s["bytes"] for s in ns.values()),
            "corrupt_dropped": self._corrupt_dropped,
            "namespaces": ns,
        }

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"
