"""Batch-compile a suite of Hamiltonians through the compilation service.

Demonstrates the full service-layer flow:

* fingerprinting — the same physics always hits the same cache key, however
  the operator was built;
* get-or-compile — cold miss, then warm hits from the memory LRU and from a
  fresh service reading the disk store;
* ``compile_suite`` — cases × mappings fanned over worker processes with
  fingerprint-level dedup, then a warm second pass that is pure cache reads.

Run:  python examples/batch_suite.py
(artifacts land in a temporary directory; nothing persists)
"""

import tempfile
import time

from repro.service import (
    MappingService,
    MappingSpec,
    compile_suite,
    fingerprint_request,
)
from repro.sources import build_case

CASES = ["LiH_sto3g", "NH_sto3g", "hubbard:2x3", "neutrino:3x2F"]


def fingerprints_key_the_physics() -> None:
    print("=" * 64)
    print("Fingerprints: content-addressed, order-invariant, config-aware")
    print("=" * 64)
    h = build_case("hubbard:2x2")
    fp_hatt = fingerprint_request(h, MappingSpec(kind="hatt"))
    fp_jw = fingerprint_request(h, MappingSpec(kind="jw"))
    print(f"  hubbard:2x2 x hatt -> {fp_hatt[:16]}…")
    print(f"  hubbard:2x2 x jw   -> {fp_jw[:16]}…  (config forks the key)")
    # Static mappings depend only on the mode count, so any other 8-mode
    # problem reuses the identical JW artifact.
    other = build_case("hubbard:1x4")
    assert fingerprint_request(other, MappingSpec(kind="jw")) == fp_jw
    print("  hubbard:1x4 x jw   -> same key (static kinds share artifacts)\n")


def get_or_compile_tiers(cache_dir: str) -> None:
    print("=" * 64)
    print("MappingService: compile once, hit forever")
    print("=" * 64)
    h = build_case("LiH_sto3g")
    spec = MappingSpec(kind="hatt")
    service = MappingService(cache_dir=cache_dir)
    for label in ("cold", "warm"):
        start = time.perf_counter()
        result = service.get_or_compile(h, spec)
        print(f"  {label}: source={result.source:<8} "
              f"{(time.perf_counter() - start) * 1e3:8.2f} ms")
    # A different service instance (another process, in real deployments)
    # reads the same artifact from disk — strings bit-identical.
    fresh = MappingService(cache_dir=cache_dir)
    start = time.perf_counter()
    again = fresh.get_or_compile(h, spec)
    print(f"  new service: source={again.source:<8} "
          f"{(time.perf_counter() - start) * 1e3:8.2f} ms")
    print(f"  stats: {service.stats()}\n")


def batch_fanout(cache_dir: str) -> None:
    print("=" * 64)
    print(f"compile_suite: {len(CASES)} cases x (hatt, jw), 2 workers")
    print("=" * 64)
    report = compile_suite(CASES, ["hatt", "jw"], jobs=2, cache_dir=cache_dir)
    print(report.table())
    warm = compile_suite(CASES, ["hatt", "jw"], jobs=1, cache_dir=cache_dir)
    assert all(t.cache_hit for t in warm.tasks)
    print(f"\n  warm pass: {warm.n_cache_hits}/{warm.n_tasks} cache hits "
          f"in {warm.wall_seconds:.3f}s")


if __name__ == "__main__":
    fingerprints_key_the_physics()
    with tempfile.TemporaryDirectory(prefix="repro-batch-suite-") as cache_dir:
        get_or_compile_tiers(cache_dir)
        batch_fanout(cache_dir)
