"""One get-or-compute cache policy, shared by every artifact namespace.

An :class:`ArtifactCache` serves one namespace (``mappings``, ``circuits``)
from a memory LRU, then an optional backing tier given per call as
``load``/``save`` callables (the disk store), then ``compute``.  A
backing-tier value that fails to decode is a miss.

Concurrent requests for one key are **single-flighted**: the first thread
walks the tiers while the rest wait for its value, so a thundering herd
costs one compute even with no tier to hold the result.  No cache-wide lock
is held while computing (a compute may go through another key of the same
cache); followers of a failed leader retry as fresh requests.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

from ..obs.trace import span

__all__ = ["ArtifactCache"]

#: A backing-tier document that cannot be decoded (schema drift, missing or
#: mistyped keys) is recomputed and overwritten.
_DECODE_ERRORS = (KeyError, TypeError, ValueError)

_STATS = ("hits_memory", "hits_disk", "misses", "compile_seconds",
          "single_flight_waits", "memory_evictions")
_HITS = ("repro_cache_hits_total", "Cache hits, by namespace and tier.")
_EVICTIONS = ("repro_cache_evictions_total", "Cache entries evicted, by namespace and tier.")
#: stat -> (metric, help, labels beyond ``namespace``).
_METRICS = {
    "hits_memory": (*_HITS, {"tier": "memory"}),
    "hits_disk": (*_HITS, {"tier": "disk"}),
    "misses": ("repro_cache_misses_total", "Full cache misses, by namespace.", {}),
    "memory_evictions": (*_EVICTIONS, {"tier": "memory"}),
}


class _Flight:
    """One in-progress fill; ``value`` stays ``None`` if the leader failed."""

    __slots__ = ("done", "value")

    def __init__(self):
        self.done = threading.Event()
        self.value = None


class ArtifactCache:
    """Memory LRU → backing tier → compute, for one namespace.

    ``capacity`` caps the memory tier (0 disables it; single flight still
    applies).  Every event goes through :meth:`_count`, which feeds both
    :meth:`stats` and ``registry``.
    """

    def __init__(self, namespace: str, capacity: int, registry):
        self.namespace = namespace
        self.capacity = int(capacity)
        self.registry = registry
        self._memory: OrderedDict = OrderedDict()
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(_STATS, 0)

    def __contains__(self, key: str) -> bool:
        """Memory-tier containment (no recency refresh, no counting)."""
        with self._lock:
            return key in self._memory

    def _count(self, stat: str, amount=1) -> None:
        with self._lock:
            self._counts[stat] += amount
        if stat in _METRICS:
            name, help, labels = _METRICS[stat]
            self.registry.counter(
                name, help=help, namespace=self.namespace, **labels
            ).inc(amount)

    def _get(self, key: str):
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
            return value

    def _put(self, key: str, value) -> None:
        if self.capacity <= 0:
            return
        evicted = 0
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
                evicted += 1
        if evicted:
            self._count("memory_evictions", evicted)

    def get_or_compute(self, key: str, compute: Callable, load=None, save=None) -> tuple:
        """The value for ``key`` and the tier that served it: ``"memory"``
        (single-flight followers included), ``"disk"`` (``load()`` returned a
        value) or ``None`` (``compute()`` ran, then ``save(value)``)."""
        while True:
            with span("memory_lookup", registry=self.registry):
                value = self._get(key)
            if value is not None:
                self._count("hits_memory")
                return value, "memory"
            with self._lock:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = self._flights[key] = _Flight()
            if leader:
                try:
                    flight.value, tier = self._fill(key, compute, load, save)
                    return flight.value, tier
                finally:
                    with self._lock:
                        del self._flights[key]
                    flight.done.set()
            self._count("single_flight_waits")
            flight.done.wait()
            if flight.value is not None:
                self._count("hits_memory")
                return flight.value, "memory"

    def _fill(self, key, compute, load, save) -> tuple[object, str | None]:
        if load is not None:
            with span("disk_lookup", registry=self.registry):
                try:
                    value = load()
                except _DECODE_ERRORS:
                    value = None
            if value is not None:
                self._put(key, value)
                self._count("hits_disk")
                return value, "disk"
        start = time.perf_counter()
        value = compute()
        elapsed = time.perf_counter() - start
        if save is not None:
            with span("store_write", registry=self.registry):
                save(value)
        self._put(key, value)
        self._count("misses")
        self._count("compile_seconds", elapsed)
        return value, None

    def stats(self) -> dict:
        with self._lock:
            out = dict(self._counts, memory_entries=len(self._memory))
        hits = out["hits_memory"] + out["hits_disk"]
        lookups = hits + out["misses"]
        out["compiles"] = out["misses"]  # every miss is exactly one compute
        out["hit_rate"] = round(hits / lookups, 4) if lookups else None
        out["memory_capacity"] = self.capacity
        return out
