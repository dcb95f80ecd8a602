"""Tests for the compilation service layer (repro.service)."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermion import FermionOperator, MajoranaOperator
from repro.fermion.majorana import majorana_form
from repro.service import (
    MAPPING_KINDS,
    ArtifactStore,
    MappingService,
    MappingSpec,
    compile_mapping,
    compile_suite,
    default_cache_dir,
    expand_tasks,
    fingerprint_operator,
    fingerprint_request,
    iter_compile_suite,
)
from repro.service.fingerprint import DEFAULT_TOLERANCE
from repro.sources import build_case

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Hypothesis strategies: random Hermitian-ish fermionic operators
# ----------------------------------------------------------------------
actions = st.tuples(st.integers(0, 5), st.booleans())
monomials = st.lists(actions, min_size=0, max_size=4).map(tuple)
coeffs = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=10, allow_nan=False, allow_infinity=False
)
term_lists = st.lists(st.tuples(monomials, coeffs), min_size=1, max_size=8)


def build_operator(terms):
    op = FermionOperator()
    for actions_, coeff in terms:
        op.add_term(actions_, coeff)
    return op


class TestFingerprint:
    @settings(max_examples=60, deadline=None)
    @given(term_lists, st.randoms(use_true_random=False))
    def test_term_order_invariant(self, terms, rng):
        """The satellite hardening property: physically identical operators
        built in different term orders hash identically."""
        shuffled = list(terms)
        rng.shuffle(shuffled)
        spec = MappingSpec(kind="hatt")
        a, b = build_operator(terms), build_operator(shuffled)
        if a.n_modes == 0:
            return  # pure scalars carry no modes to map
        assert fingerprint_request(a, spec) == fingerprint_request(b, spec)

    @settings(max_examples=40, deadline=None)
    @given(term_lists)
    def test_zero_terms_dropped(self, terms):
        """Adding and subtracting a term leaves the fingerprint unchanged."""
        op = build_operator(terms)
        if op.n_modes == 0:
            return
        op2 = build_operator(terms)
        op2.add_term(((7, True), (7, False)), 2.5)
        op2.add_term(((7, True), (7, False)), -2.5)
        spec = MappingSpec(kind="hatt", n_modes=max(op.n_modes, 8))
        assert fingerprint_request(op, spec) == fingerprint_request(op2, spec)

    def test_sub_tolerance_jitter_collides(self):
        a = FermionOperator({((0, True), (0, False)): 1.0})
        b = FermionOperator({((0, True), (0, False)): 1.0 + 1e-14})
        spec = MappingSpec(kind="hatt")
        assert fingerprint_request(a, spec) == fingerprint_request(b, spec)

    def test_negative_zero_collides_with_zero(self):
        a = FermionOperator({((0, True), (0, False)): 1.0 + 0.0j})
        b = FermionOperator({((0, True), (0, False)): 1.0 - 0.0j})
        assert fingerprint_operator(a) == fingerprint_operator(b)

    def test_distinct_coefficients_fork(self):
        a = FermionOperator({((0, True), (0, False)): 1.0})
        b = FermionOperator({((0, True), (0, False)): 1.5})
        assert fingerprint_operator(a) != fingerprint_operator(b)

    def test_kind_and_modes_fork(self):
        h = build_case("hubbard:1x2")
        fps = {
            fingerprint_request(h, MappingSpec(kind=k)) for k in ("hatt", "jw", "bk")
        }
        assert len(fps) == 3
        assert fingerprint_request(h, MappingSpec(kind="jw", n_modes=4)) != \
            fingerprint_request(h, MappingSpec(kind="jw", n_modes=6))

    def test_vacuum_flag_forks(self):
        h = build_case("hubbard:1x2")
        assert fingerprint_request(h, MappingSpec(kind="hatt")) != \
            fingerprint_request(h, MappingSpec(kind="hatt-unopt"))

    def test_golden_digests_pin_existing_caches(self):
        """Digests recorded with fingerprint schema 2: stored ``mappings/``
        and ``circuits/`` artifacts must stay reachable."""
        from repro.compile import CompileOptions, circuit_fingerprint

        h = build_case("H2_sto3g")
        mapping_fps = {
            kind: fingerprint_request(h, MappingSpec(kind).resolve(h))
            for kind in ("hatt", "jw")
        }
        assert mapping_fps == {
            "hatt": "8632d6499a9624a397a775ba8a7b18bab99b04d67b37036f98e2fff09bacb0bc",
            "jw": "bc79a5a3651d858e77056fd1ba074079b3ac583618567b73d9bdbf04b8fb9b7b",
        }
        arch_spec = MappingSpec("hatt-arch", arch="sycamore").resolve(h)
        assert fingerprint_request(h, arch_spec) == (
            "61f33d6a1f66dde5ae33a1f4a5cdb4613c927ca87005077effb909a939edc839"
        )
        op_fp = fingerprint_operator(h)
        circuit_fps = {
            kind: circuit_fingerprint(op_fp, fp, "sycamore", CompileOptions())
            for kind, fp in mapping_fps.items()
        }
        assert circuit_fps == {
            "hatt": "32e4fda0731e120a348e445f028696cec1db1dd013920c1b817139155017645a",
            "jw": "a7833451904a07d21a92e58852e53126bc65e50dd5109f538eba2d920fda645c",
        }

    @pytest.mark.parametrize("case, digest", [
        ("H2O_sto3g",
         "dbd9b2918adb1618d92714c100af3e5f729c50cb6d8d954d9689d303893714fa"),
        ("neutrino:4x2F",
         "fab0b233edbc1964cfb2c210b81326fe4359136ed6c783004ebd9101e2cded9a"),
        ("hubbard:4x4",
         "cc38573fb158c6f4e6e6e285c81d99b4d9fdc32dc57f63ccb69487b4fa7cef02"),
        ("random:syk:n=12,seed=5",
         "da5eed3a8aaf043862aafad71e644a51d0088e13b732eb937d28fb5886fe327c"),
    ])
    def test_golden_operator_digests(self, case, digest):
        """Schema-2 digests of real Hamiltonians: a change to the Majorana
        form or the digest would strand every existing cache entry."""
        assert fingerprint_operator(build_case(case)) == digest

    def test_static_kinds_ignore_hamiltonian(self):
        a, b = build_case("hubbard:1x2"), build_case("H2_sto3g")
        assert a.n_modes == b.n_modes == 4
        spec = MappingSpec(kind="jw")
        assert fingerprint_request(a, spec) == fingerprint_request(b, spec)
        assert fingerprint_request(a, MappingSpec(kind="hatt")) != \
            fingerprint_request(b, MappingSpec(kind="hatt"))

    def test_majorana_form_supported(self):
        h = MajoranaOperator.from_fermion_operator(build_case("hubbard:1x2"))
        fp = fingerprint_request(h, MappingSpec(kind="hatt"))
        assert len(fp) == 64 and fp == fingerprint_request(h, MappingSpec(kind="hatt"))

    def test_stable_across_processes(self):
        """SHA-256 over canonical JSON — immune to interpreter hash salting."""
        code = (
            "from repro.sources import build_case\n"
            "from repro.service import MappingSpec, fingerprint_request\n"
            "print(fingerprint_request(build_case('hubbard:2x2'), "
            "MappingSpec(kind='hatt')))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        ).stdout.strip()
        expected = fingerprint_request(
            build_case("hubbard:2x2"), MappingSpec(kind="hatt")
        )
        assert out == expected

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MappingSpec(kind="nope")

    def test_memo_invalidated_on_mutation(self):
        """The per-operator canonical-form memo must never serve stale keys."""
        h = build_case("hubbard:1x2")
        spec = MappingSpec(kind="hatt")
        fp1 = fingerprint_request(h, spec)
        assert fingerprint_request(h, spec) == fp1  # memoized path
        h.add_term(((0, True), (0, False)), 0.25)
        fp2 = fingerprint_request(h, spec)
        assert fp2 != fp1
        h.add_term(((0, True), (0, False)), -0.25)
        assert fingerprint_request(h, spec) == fp1

    def test_memo_respects_tolerance(self):
        h = build_case("hubbard:1x2")
        a = fingerprint_operator(h, tol=1e-12)
        b = fingerprint_operator(h, tol=1e-6)
        assert a != b  # tol is part of the payload, memo keyed on it
        assert fingerprint_operator(h, tol=1e-12) == a

    def test_majorana_memo_invalidated_on_mutation(self):
        m = MajoranaOperator.from_fermion_operator(build_case("hubbard:1x2"))
        fp1 = fingerprint_operator(m)
        m.add_term((0, 1), 0.5)
        assert fingerprint_operator(m) != fp1


#: Coefficients around the 1e-12 drop and grid, plus ordinary ones.
_tiny = st.one_of(
    st.sampled_from([3e-13, 5e-13, 7e-13, 1e-12, 1.2e-12, 1.5e-12]),
    st.floats(0.5e-12, 1.5e-12),
).flatmap(lambda v: st.sampled_from([v, -v, complex(0, v), complex(v, -v)]))
kernel_coeffs = st.one_of(coeffs, _tiny, st.sampled_from([1.0, -1.0, 0.5, 2]))
#: Small modes collide often (repeats, contractions, equal monomials);
#: modes >= 64 cross a machine word.
kernel_actions = st.tuples(
    st.one_of(st.integers(0, 3), st.integers(62, 70)), st.booleans()
)
kernel_ops = st.lists(
    st.tuples(
        st.lists(kernel_actions, min_size=0, max_size=6).map(tuple),
        kernel_coeffs,
        st.sampled_from(["add", "cancel", "cancel-readd"]),
    ),
    max_size=12,
)


class TestCanonicalKernel:
    """The operator key: one digest of the memoized Majorana form."""

    @staticmethod
    def _build(ops):
        op = FermionOperator()
        for term, coeff, how in ops:
            op.add_term(term, coeff)
            if how != "add":
                # Cancel to within 1e-12 (the key is dropped) ...
                op.add_term(term, -coeff + 4e-13)
            if how == "cancel-readd":
                op.add_term(term, coeff)  # ... then insert it again
        return op

    @settings(max_examples=400, deadline=None)
    @given(kernel_ops, st.sampled_from([DEFAULT_TOLERANCE, 1e-9, 1e-6]))
    def test_ladder_and_majorana_forms_share_the_key(self, ops, tol):
        """An operator, its normal-ordered rewrite and its Majorana form are
        one operator, so they must reach one key."""
        op = self._build(ops)
        key = fingerprint_operator(op, tol)
        assert fingerprint_operator(op.normal_order(), tol) == key
        assert fingerprint_operator(majorana_form(op), tol) == key

    def test_request_key_shared_by_the_majorana_form(self):
        h = build_case("hubbard:2x2")
        spec = MappingSpec(kind="hatt")
        m = MajoranaOperator.from_fermion_operator(h)
        assert fingerprint_request(m, spec) == fingerprint_request(h, spec)

    def test_grid_points_beyond_int64_stay_exact(self):
        """A 1e8 coefficient sits at grid point 1e20, beyond int64; the
        imaginary parts 3 and 4 must still fork the key.  A grid point that
        overflows float64 cannot be hashed."""
        a = FermionOperator({((0, True), (0, False)): 1e8 + 3j, (): -2.5e15})
        b = FermionOperator({((0, True), (0, False)): 1e8 + 4j, (): -2.5e15})
        assert fingerprint_operator(a) != fingerprint_operator(b)
        with pytest.raises(ValueError, match="non-finite"):
            fingerprint_operator(FermionOperator({(): 1e300}))

    def test_empty_and_all_vanishing_operators(self):
        empty = fingerprint_operator(FermionOperator())
        op = FermionOperator({((2, True), (2, True)): 1.0, ((0, False), (0, False)): 2.0})
        assert fingerprint_operator(op) == empty

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), complex(0, float("nan")),
    ])
    def test_non_finite_coefficients_raise(self, bad):
        """A NaN would otherwise fail the conversion's dust test and vanish,
        so the key and the mapping would silently drop the term."""
        op = FermionOperator({((0, True), (1, False)): bad, ((1, True), (1, False)): 1.0})
        with pytest.raises(ValueError, match="non-finite"):
            majorana_form(op)
        with pytest.raises(ValueError, match="non-finite"):
            fingerprint_request(op, MappingSpec(kind="hatt"))

    def test_non_finite_majorana_coefficient_raises(self):
        m = MajoranaOperator({(0, 1): float("nan"), (2, 3): 1.0})
        with pytest.raises(ValueError, match="non-finite"):
            fingerprint_operator(m)


class TestArtifactStore:
    def test_roundtrip_bit_identical(self, tmp_path):
        h = build_case("hubbard:2x2")
        mapping = compile_mapping(h, MappingSpec(kind="hatt").resolve(h))
        store = ArtifactStore(tmp_path)
        fp = fingerprint_request(h, MappingSpec(kind="hatt"))
        store.put_mapping(fp, mapping, provenance={"compile_seconds": 0.1})
        loaded = store.get_mapping(fp)
        assert loaded.strings == mapping.strings
        assert loaded.provenance["compile_seconds"] == 0.1
        assert loaded.tree is not None
        assert store.contains(fp)
        assert store.fingerprints() == [fp]

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactStore(tmp_path).get_mapping("ab" * 32) is None

    def test_corrupt_mapping_is_a_miss_and_quarantined(self, tmp_path):
        h = build_case("hubbard:1x2")
        mapping = compile_mapping(h, MappingSpec(kind="jw").resolve(h))
        store = ArtifactStore(tmp_path)
        fp = "cd" * 32
        path = store.put_mapping(fp, mapping)
        path.write_text("{ not json")
        assert store.get_mapping(fp) is None
        assert not path.exists()  # quarantined
        assert store.stats()["corrupt_dropped"] == 1
        # A put repairs the entry.
        store.put_mapping(fp, mapping)
        assert store.get_mapping(fp) is not None

    def test_unreadable_file_is_a_miss_but_not_quarantined(self, tmp_path, monkeypatch):
        """Transient I/O errors must not delete a valid, expensive artifact."""
        h = build_case("hubbard:1x2")
        mapping = compile_mapping(h, MappingSpec(kind="jw").resolve(h))
        store = ArtifactStore(tmp_path)
        fp = "ab" * 32
        path = store.put_mapping(fp, mapping)
        read_text = Path.read_text

        def denied(self, *args, **kwargs):
            # Raised here rather than by chmod(0), which does not stop root.
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        with pytest.raises(PermissionError):
            path.read_text()
        assert store.get_mapping(fp) is None
        assert path.exists()  # still on disk, NOT quarantined
        assert store.stats()["corrupt_dropped"] == 0

    def test_semantically_corrupt_document_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "ef" * 32
        path = store.mapping_path(fp)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": 2, "name": "x"}))  # missing keys
        assert store.get_mapping(fp) is None
        assert store.stats()["corrupt_dropped"] == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        h = build_case("hubbard:1x2")
        mapping = compile_mapping(h, MappingSpec(kind="jw").resolve(h))
        store = ArtifactStore(tmp_path)
        fp = "12" * 32
        for _ in range(3):
            store.put_mapping(fp, mapping)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_remove_and_clear(self, tmp_path):
        h = build_case("hubbard:1x2")
        mapping = compile_mapping(h, MappingSpec(kind="jw").resolve(h))
        store = ArtifactStore(tmp_path)
        for fp in ("ab" * 32, "cd" * 32):
            store.put_mapping(fp, mapping)
        assert store.remove("ab" * 32)
        assert store.fingerprints() == ["cd" * 32]
        assert store.clear() == 1
        assert store.fingerprints() == []

    def test_malformed_fingerprint_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.mapping_path("../../etc/passwd")

    def test_env_default_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        assert ArtifactStore().root == tmp_path / "envcache"


class TestStoreFailurePaths:
    """Injected I/O failures: the store must fail loudly but leave no
    partial artifacts, and torn reads must stay misses — never crashes."""

    def test_enospc_write_error_leaves_no_partials(self, tmp_path, monkeypatch):
        from repro.serve import faults

        h = build_case("hubbard:1x2")
        mapping = compile_mapping(h, MappingSpec(kind="jw").resolve(h))
        store = ArtifactStore(tmp_path / "store")
        fp = "ab" * 32
        monkeypatch.setenv(faults.FAULTS_ENV, "store_write:1:0:1")
        faults.reset()
        try:
            with pytest.raises(OSError) as err:
                store.put_mapping(fp, mapping)
            assert err.value.errno == 28  # ENOSPC
        finally:
            monkeypatch.delenv(faults.FAULTS_ENV)
            faults.reset()
        # The atomic write protocol (tmp file + os.replace) must leave
        # neither a destination file nor a stray temp file behind.
        assert list((tmp_path / "store").rglob("*.tmp")) == []
        assert not store.mapping_path(fp).exists()
        assert store.get_mapping(fp) is None
        assert not store.contains(fp)
        # The fault budget is spent (max_fires=1): a retry succeeds.
        store.put_mapping(fp, mapping)
        assert store.get_mapping(fp) is not None

    def test_torn_read_under_concurrent_eviction_is_a_miss(self, tmp_path):
        """A corrupted artifact read while the LRU evictor churns the same
        namespace must return None (and quarantine), never raise."""
        h = build_case("hubbard:1x2")
        mapping = compile_mapping(h, MappingSpec(kind="jw").resolve(h))
        store = ArtifactStore(tmp_path, max_bytes={"mappings": 4000})
        fp_bad = "0d" * 32
        stop = threading.Event()
        churn_errors = []

        def churn():
            try:
                i = 0
                while not stop.is_set() and i < 200:
                    store.put_mapping(f"{i:064x}", mapping)
                    i += 1
            except Exception as exc:  # noqa: BLE001 - asserted below
                churn_errors.append(exc)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(50):
                path = store.mapping_path(fp_bad)
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text("{ torn")
                except FileNotFoundError:
                    continue  # evictor removed the entry dir mid-plant
                assert store.get_mapping(fp_bad) is None
        finally:
            stop.set()
            thread.join(timeout=120)
        assert not churn_errors, churn_errors
        assert store.stats()["corrupt_dropped"] >= 1


class TestArtifactCache:
    @pytest.mark.parametrize("capacity", [16, 2])
    def test_concurrent_lookups_compute_each_key_once(self, capacity):
        """More threads than cores over a few keys, with a short switch
        interval: each key is computed exactly once (the dict backing tier
        serves keys the small memory tier evicted) and no count is lost."""
        import random

        from repro.obs.metrics import MetricsRegistry
        from repro.service.cache import ArtifactCache

        cache = ArtifactCache("stress", capacity, MetricsRegistry())
        keys = [f"k{i}" for i in range(8)]
        disk: dict[str, str] = {}
        computes: dict[str, int] = {}
        lock = threading.Lock()
        n_threads, rounds = 8, 100
        barrier = threading.Barrier(n_threads)
        wrong = []

        def compute(key):
            with lock:
                computes[key] = computes.get(key, 0) + 1
            return key.upper()

        def worker(seed):
            order = keys + [random.Random(seed).choice(keys) for _ in range(rounds)]
            barrier.wait()
            for key in order:
                value, _tier = cache.get_or_compute(
                    key, lambda: compute(key), lambda: disk.get(key),
                    lambda v: disk.__setitem__(key, v))
                if value != key.upper():
                    wrong.append((key, value))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert computes == {key: 1 for key in keys}
        stats = cache.stats()
        assert stats["misses"] == len(keys)
        lookups = stats["hits_memory"] + stats["hits_disk"] + stats["misses"]
        assert lookups == n_threads * (len(keys) + rounds)
        assert stats["memory_entries"] == min(capacity, len(keys))


class TestMappingService:
    def test_cold_miss_then_memory_then_disk(self, tmp_path):
        h = build_case("hubbard:2x2")
        spec = MappingSpec(kind="hatt")
        svc = MappingService(cache_dir=tmp_path)
        r1 = svc.get_or_compile(h, spec)
        r2 = svc.get_or_compile(h, spec)
        assert (r1.source, r2.source) == ("compiled", "memory")
        assert not r1.cache_hit and r2.cache_hit
        fresh = MappingService(cache_dir=tmp_path)
        r3 = fresh.get_or_compile(h, spec)
        assert r3.source == "disk"
        stats = svc.stats()
        assert stats["compiles"] == 1 and stats["hits_memory"] == 1

    def test_compiled_hatt_mapping_retains_little_memory(self):
        """Memory-tier entries must not pin HATT's working state (the
        incidence matrix, the term list): a compiled SYK n=10 mapping keeps
        its strings, tree and trace only."""
        import gc
        import tracemalloc

        from repro.fermion.majorana import majorana_form

        compile_mapping(build_case("random:syk:n=6,seed=0"), MappingSpec(kind="hatt"))
        h = build_case("random:syk:n=10,seed=1")
        majorana_form(h).packed_terms()  # the operator's own memo is not the mapping's
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mapping = compile_mapping(h, MappingSpec(kind="hatt"))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert mapping.construction.trace and mapping.construction.children_uids
        assert retained < 64 * 1024

    def test_warm_mapping_bit_identical_to_fresh_compile(self, tmp_path):
        """Acceptance: warm hits return Majorana strings bit-identical to a
        fresh compile."""
        h = build_case("LiH_sto3g")
        spec = MappingSpec(kind="hatt")
        MappingService(cache_dir=tmp_path).get_or_compile(h, spec)
        warm = MappingService(cache_dir=tmp_path).get_or_compile(h, spec)
        fresh = compile_mapping(h, spec.resolve(h))
        assert warm.source == "disk"
        assert warm.mapping.strings == fresh.strings
        assert [s.phase for s in warm.mapping.strings] == \
            [s.phase for s in fresh.strings]

    def test_provenance_written(self, tmp_path):
        h = build_case("hubbard:1x2")
        svc = MappingService(cache_dir=tmp_path)
        r = svc.get_or_compile(h, MappingSpec(kind="hatt"))
        prov = svc.store.provenance(r.fingerprint)
        assert prov["kind"] == "hatt"
        assert prov["repro_version"]
        assert prov["compile_seconds"] >= 0

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        svc = MappingService(cache_dir=tmp_path, memory_capacity=1)
        h1, h2 = build_case("hubbard:1x2"), build_case("hubbard:2x2")
        spec = MappingSpec(kind="hatt")
        svc.get_or_compile(h1, spec)
        svc.get_or_compile(h2, spec)  # evicts h1 from memory
        assert svc.get_or_compile(h1, spec).source == "disk"
        assert svc.get_or_compile(h1, spec).source == "memory"

    def test_memory_only_service(self, tmp_path):
        svc = MappingService(use_disk=False)
        h = build_case("hubbard:1x2")
        spec = MappingSpec(kind="hatt")
        assert svc.get_or_compile(h, spec).source == "compiled"
        assert svc.get_or_compile(h, spec).source == "memory"
        assert svc.store is None

    def test_single_flight_compiles_once(self, tmp_path):
        """A thundering herd of identical requests costs one compile."""
        h = build_case("hubbard:2x3")
        spec = MappingSpec(kind="hatt")
        svc = MappingService(cache_dir=tmp_path)
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait()
            results.append(svc.get_or_compile(h, spec))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = svc.stats()
        assert stats["compiles"] == 1
        assert len({r.fingerprint for r in results}) == 1
        assert sum(r.source == "compiled" for r in results) == 1
        ref = results[0].mapping.strings
        assert all(r.mapping.strings == ref for r in results)

    def test_single_flight_without_any_tier(self, monkeypatch):
        """Followers take the leader's value even when no tier can hold it."""
        from repro.service import service as service_mod

        h = build_case("hubbard:2x3")
        spec = MappingSpec(kind="hatt")
        svc = MappingService(use_disk=False, memory_capacity=0)
        # Hold the leader's compile open until all five followers have joined
        # its flight; with no tier, a follower arriving after the compile
        # finished would (correctly) compile again.
        release = threading.Event()
        real = service_mod.compile_mapping

        def gated(hamiltonian, spec_):
            release.wait(30)
            return real(hamiltonian, spec_)

        monkeypatch.setattr(service_mod, "compile_mapping", gated)
        results = []

        def worker():
            results.append(svc.get_or_compile(h, spec))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while svc.mappings.stats()["single_flight_waits"] < 5 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert svc.stats()["compiles"] == 1
        assert sorted(r.source for r in results) == ["compiled"] + ["memory"] * 5
        assert svc.stats()["memory_entries"] == 0

    def test_failed_leader_lets_followers_retry(self, monkeypatch):
        from repro.service import service as service_mod

        h = build_case("hubbard:1x2")
        spec = MappingSpec(kind="jw", n_modes=4)
        svc = MappingService(use_disk=False)
        entered, release = threading.Event(), threading.Event()
        real = service_mod.compile_mapping
        calls = []

        def flaky(hamiltonian, spec_):
            calls.append(1)
            if len(calls) == 1:
                entered.set()
                release.wait(30)
                raise RuntimeError("boom")
            return real(hamiltonian, spec_)

        monkeypatch.setattr(service_mod, "compile_mapping", flaky)
        errors, results = [], []

        def leader():
            try:
                svc.get_or_compile(h, spec)
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=leader)
        t.start()
        assert entered.wait(30)
        follower = threading.Thread(
            target=lambda: results.append(svc.get_or_compile(h, spec)))
        follower.start()
        deadline = time.monotonic() + 30
        while svc.stats()["single_flight_waits"] == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        t.join(timeout=30)
        follower.join(timeout=30)
        assert not t.is_alive() and not follower.is_alive()
        assert len(errors) == 1
        assert [r.source for r in results] == ["compiled"]
        assert len(calls) == 2

    def test_corrupt_disk_entry_recompiles(self, tmp_path):
        h = build_case("hubbard:1x2")
        spec = MappingSpec(kind="hatt")
        svc = MappingService(cache_dir=tmp_path)
        r = svc.get_or_compile(h, spec)
        svc.store.mapping_path(r.fingerprint).write_text("garbage")
        fresh = MappingService(cache_dir=tmp_path)
        r2 = fresh.get_or_compile(h, spec)
        assert r2.source == "compiled"
        assert r2.mapping.strings == r.mapping.strings


def _spec(kind: str) -> MappingSpec:
    return MappingSpec(kind, arch="sycamore") if kind == "hatt-arch" else MappingSpec(kind)


class TestStoredWeight:
    """The mapped Pauli weight recorded at compile time and served warm."""

    @pytest.mark.parametrize("case", [
        "H2O_sto3g", "neutrino:4x2F", "hubbard:4x4", "random:syk:n=10,seed=3",
    ])
    def test_memory_and_disk_hits_report_the_recomputed_weight(self, tmp_path, case):
        h = build_case(case)
        svc = MappingService(cache_dir=tmp_path)
        for kind in MAPPING_KINDS:
            spec = _spec(kind)
            cold = svc.get_or_compile(h, spec)
            memory = svc.get_or_compile(h, spec)
            disk = MappingService(cache_dir=tmp_path).get_or_compile(h, spec)
            assert (cold.source, memory.source, disk.source) == (
                "compiled", "memory", "disk"
            )
            want = int(compile_mapping(h, spec).map(h).pauli_weight())
            for result in (cold, memory, disk):
                assert result.pauli_weight(h) == want, (case, kind, result.source)
                # Only Hamiltonian-keyed artifacts carry a figure to serve.
                assert (result.stored_weight is not None) == spec.hamiltonian_dependent
            provenance = svc.store.provenance(cold.fingerprint)
            if spec.hamiltonian_dependent:
                assert provenance["mapped_terms"] == len(cold.mapping.map(h))
            else:
                assert "pauli_weight" not in provenance
                assert "mapped_terms" not in provenance

    def test_static_artifact_reports_each_hamiltonians_own_weight(self, tmp_path):
        """One ``jw`` artifact serves every 8-mode problem, so its weight
        must come from the Hamiltonian at hand, never from the artifact."""
        a, b = build_case("hubbard:2x2"), build_case("random:syk:n=8,seed=1")
        assert a.n_modes == b.n_modes == 8
        spec = MappingSpec(kind="jw")
        svc = MappingService(cache_dir=tmp_path)
        ra, rb = svc.get_or_compile(a, spec), svc.get_or_compile(b, spec)
        rb_disk = MappingService(cache_dir=tmp_path).get_or_compile(b, spec)
        assert ra.fingerprint == rb.fingerprint
        assert (ra.source, rb.source, rb_disk.source) == ("compiled", "memory", "disk")
        jw = compile_mapping(a, spec)
        assert ra.pauli_weight(a) == int(jw.map(a).pauli_weight())
        assert rb.pauli_weight(b) == rb_disk.pauli_weight(b) == int(jw.map(b).pauli_weight())
        assert ra.pauli_weight(a) != rb.pauli_weight(b)

    def test_artifact_without_weight_maps_as_before(self, tmp_path):
        """An artifact stored before the weight was recorded still serves."""
        h = build_case("hubbard:2x2")
        spec = MappingSpec(kind="hatt")
        svc = MappingService(cache_dir=tmp_path)
        fp = svc.get_or_compile(h, spec).fingerprint
        path = svc.store.mapping_path(fp)
        doc = json.loads(path.read_text())
        del doc["provenance"]["pauli_weight"], doc["provenance"]["mapped_terms"]
        path.write_text(json.dumps(doc))
        old = MappingService(cache_dir=tmp_path).get_or_compile(h, spec)
        assert old.source == "disk" and old.stored_weight is None
        assert old.pauli_weight(h) == int(old.mapping.map(h).pauli_weight())


class TestCheckedLoads:
    """Every stored mapping passes ``FermionQubitMapping.check`` on load."""

    @staticmethod
    def _stored(tmp_path, kind="hatt", case="hubbard:2x2"):
        h = build_case(case)
        svc = MappingService(cache_dir=tmp_path)
        result = svc.get_or_compile(h, MappingSpec(kind=kind))
        path = svc.store.mapping_path(result.fingerprint)
        return h, result, path, json.loads(path.read_text())

    @staticmethod
    def _flip_one_pauli(path, doc):
        from repro.mappings.io import mapping_from_dict

        label = doc["majorana_strings"][0]  # e.g. "Z7Z6Z5X0"
        doc["majorana_strings"][0] = {"X": "Z", "Y": "Z", "Z": "X"}[label[0]] + label[1:]
        doc["tree"] = None  # a bare string list, as in a v1 document
        path.write_text(json.dumps(doc))
        assert not mapping_from_dict(doc).anticommutation_ok()  # still parses

    def test_one_flipped_pauli_is_recomputed_never_served(self, tmp_path):
        from repro.obs.metrics import get_registry

        h, result, path, doc = self._stored(tmp_path)
        self._flip_one_pauli(path, doc)
        store = ArtifactStore(tmp_path)
        counter = get_registry().counter("repro_store_corrupt_dropped_total")
        before = counter.value
        assert store.get_mapping(result.fingerprint) is None
        assert not path.exists()
        assert store.stats()["corrupt_dropped"] == 1
        assert counter.value == before + 1
        fresh = MappingService(cache_dir=tmp_path).get_or_compile(h, MappingSpec("hatt"))
        assert fresh.source == "compiled"
        assert fresh.mapping.strings == result.mapping.strings

    def test_raw_document_is_checked_too(self, tmp_path):
        """``GET /v1/artifacts/{fp}`` reads ``get_mapping_doc``: a document
        ``get_mapping`` would refuse is not served raw either."""
        _, result, path, doc = self._stored(tmp_path)
        store = ArtifactStore(tmp_path)
        assert store.get_mapping_doc(result.fingerprint) == doc
        self._flip_one_pauli(path, doc)
        assert store.get_mapping_doc(result.fingerprint) is None
        assert not path.exists() and store.stats()["corrupt_dropped"] == 1

    def test_vacuum_is_checked_when_the_provenance_asks(self, tmp_path):
        _, result, path, doc = self._stored(tmp_path)
        doc["phases"][0] = (doc["phases"][0] + 2) % 4  # still anticommuting
        path.write_text(json.dumps(doc))
        assert ArtifactStore(tmp_path).get_mapping(result.fingerprint) is None
        doc["provenance"]["vacuum"] = False
        path.write_text(json.dumps(doc))
        assert ArtifactStore(tmp_path).get_mapping(result.fingerprint) is not None

    @pytest.mark.parametrize("bad", [-1, 1.5, "12", True, [3]])
    def test_bad_stored_weight_is_corrupt(self, tmp_path, bad):
        _, result, path, doc = self._stored(tmp_path)
        doc["provenance"]["pauli_weight"] = bad
        path.write_text(json.dumps(doc))
        store = ArtifactStore(tmp_path)
        assert store.get_mapping(result.fingerprint) is None
        assert store.stats()["corrupt_dropped"] == 1

    def test_good_stored_weight_loads(self, tmp_path):
        h, result, path, doc = self._stored(tmp_path)
        loaded = ArtifactStore(tmp_path).get_mapping(result.fingerprint)
        assert loaded.provenance["pauli_weight"] == result.pauli_weight(h)


class TestBatch:
    CASES = ["hubbard:1x2", "hubbard:2x2", "H2_sto3g"]

    def test_expand_tasks_dedups_and_validates(self):
        tasks = expand_tasks(["a", "a", "b"], ["hatt", "jw"])
        assert len(tasks) == 4
        with pytest.raises(ValueError):
            expand_tasks(["a"], ["nope"])

    def test_serial_suite_correct_and_deduped(self, tmp_path):
        report = compile_suite(self.CASES, ["hatt", "jw"], cache_dir=tmp_path)
        assert report.n_tasks == 6 and report.n_errors == 0
        # hubbard:1x2 and H2_sto3g are both 4-mode, so their JW compiles
        # share a fingerprint: 5 unique compiles for 6 tasks.
        assert report.n_unique == 5
        weights = {(t.case, t.kind): t.pauli_weight for t in report.tasks}
        h = build_case("hubbard:2x2")
        expected = compile_mapping(h, MappingSpec(kind="hatt").resolve(h))
        assert weights[("hubbard:2x2", "hatt")] == expected.map(h).pauli_weight()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_task_reports_its_own_weight(self, jobs):
        """hubbard:1x2 and H2_sto3g share one ``jw`` artifact, but each maps
        its own Hamiltonian to its own weight (20 and 32)."""
        report = compile_suite(
            ["H2_sto3g", "hubbard:1x2", "hubbard:2x2"], ["jw", "hatt"],
            jobs=jobs, use_cache=False,
        )
        assert report.n_errors == 0 and report.n_unique == 5
        for t in report.tasks:
            h = build_case(t.case)
            mapping = compile_mapping(h, MappingSpec(kind=t.kind).resolve(h))
            assert t.pauli_weight == mapping.map(h).pauli_weight(), (t.case, t.kind)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_case_fails_only_its_own_tasks(self, tmp_path, jobs):
        """A NaN term fails both tasks of its case, including the ``jw`` task
        whose key it shares with hubbard:1x2; the other case is untouched."""
        from repro.sources import save_npz

        op = build_case("hubbard:1x2").copy()
        op.add_term(((3, True), (0, False)), float("nan"))
        assert op.n_modes == 4
        save_npz(tmp_path / "nan.npz", op)
        nan_case = f"npz:{tmp_path / 'nan.npz'}"
        report = compile_suite(
            [nan_case, "hubbard:1x2"], ["hatt", "jw"], jobs=jobs, use_cache=False
        )
        by_task = {(t.case, t.kind): t for t in report.tasks}
        for kind in ("hatt", "jw"):
            assert "non-finite" in by_task[(nan_case, kind)].error
        assert by_task[("hubbard:1x2", "hatt")].pauli_weight == 16
        assert by_task[("hubbard:1x2", "jw")].pauli_weight == 20
        assert report.n_errors == 2

    def test_second_pass_all_cache_hits(self, tmp_path):
        compile_suite(self.CASES, ["hatt"], cache_dir=tmp_path)
        report = compile_suite(self.CASES, ["hatt"], cache_dir=tmp_path)
        assert all(t.cache_hit for t in report.tasks), report.to_dict()
        assert report.n_cache_hits == report.n_tasks

    def test_parallel_matches_serial(self, tmp_path):
        serial = compile_suite(self.CASES, ["hatt", "jw"], use_cache=False)
        parallel = compile_suite(
            self.CASES, ["hatt", "jw"], jobs=2, use_cache=False
        )
        assert parallel.n_errors == 0
        key = lambda r: [(t.case, t.kind, t.fingerprint, t.pauli_weight)  # noqa: E731
                         for t in r.tasks]
        assert key(parallel) == key(serial)

    def test_parallel_workers_share_disk_cache(self, tmp_path):
        compile_suite(self.CASES, ["hatt"], jobs=2, cache_dir=tmp_path)
        report = compile_suite(self.CASES, ["hatt"], jobs=2, cache_dir=tmp_path)
        assert all(t.cache_hit for t in report.tasks), report.to_dict()

    def test_bad_case_is_per_task_error(self, tmp_path):
        report = compile_suite(
            ["hubbard:1x2", "no_such_case"], ["hatt"], cache_dir=tmp_path
        )
        by_case = {t.case: t for t in report.tasks}
        assert by_case["hubbard:1x2"].ok
        assert not by_case["no_such_case"].ok
        assert "no_such_case" in report.table() or by_case["no_such_case"].error

    def test_streaming_iterator_yields_all_tasks(self, tmp_path):
        seen = list(iter_compile_suite(self.CASES, ["hatt"], cache_dir=tmp_path))
        assert {(t.case, t.kind) for t in seen} == {(c, "hatt") for c in self.CASES}

    def test_no_eval_skips_weights(self, tmp_path):
        report = compile_suite(
            ["hubbard:1x2"], ["hatt"], cache_dir=tmp_path, evaluate=False
        )
        assert report.tasks[0].pauli_weight is None

    def test_report_serializes(self, tmp_path):
        report = compile_suite(["hubbard:1x2"], ["hatt"], cache_dir=tmp_path)
        blob = json.dumps(report.to_dict())
        assert "fingerprint" in blob
        assert "hubbard:1x2" in report.table()


# ----------------------------------------------------------------------
# The spec alias: source identity -> content fingerprints
# ----------------------------------------------------------------------
_params = st.floats(-4, 4, allow_nan=False, allow_infinity=False).map(repr)
builtin_specs = st.one_of(
    st.builds(
        "hubbard:{}x{},t={},u={},bc={},ordering={}".format,
        st.integers(1, 3), st.integers(1, 2), _params, _params,
        st.sampled_from(["open", "periodic"]),
        st.sampled_from(["interleaved", "blocked"]),
    ),
    st.builds("neutrino:{}x{}F,mu={}".format,
              st.integers(1, 2), st.integers(1, 2), _params),
    st.builds("random:syk:n={},seed={},j={}".format,
              st.integers(4, 7), st.integers(0, 2**31), _params),
    st.sampled_from(["H2_sto3g", "electronic:LiH_sto3g"]),
)


def _unbuildable(spec: str):
    """A fresh source for ``spec`` whose operator must not be needed."""
    from repro.sources import resolve

    src = resolve(spec)

    def refuse():
        raise AssertionError(f"{spec} was built on an alias hit")

    src._build = refuse
    return src


class TestSpecAlias:
    @settings(max_examples=40, deadline=None)
    @given(builtin_specs, st.sampled_from(["hatt", "jw", "hatt-arch"]))
    def test_alias_serves_the_content_fingerprints(self, case, kind):
        from repro.compile import CompilationPipeline
        from repro.sources import resolve

        spec = _spec(kind)
        svc = MappingService(use_disk=False)
        pipeline = CompilationPipeline(service=svc)
        primed = resolve(case)
        svc.fingerprint(primed, spec)
        pipeline._operator_fingerprint(primed)
        # Served from the alias: a fresh source that refuses to build.
        fresh = _unbuildable(case)
        request_fp = svc.fingerprint(fresh, spec)
        operator_fp = pipeline._operator_fingerprint(fresh)
        h = resolve(case).build()
        assert request_fp == fingerprint_request(h, spec.resolve(h))
        assert operator_fp == fingerprint_operator(h)
        stats = svc.aliases.stats()
        assert (stats["hits_memory"], stats["misses"]) == (2, 2)

    def test_warm_requests_neither_build_nor_fingerprint(self, tmp_path, monkeypatch):
        """Served ``map`` and ``compile`` jobs build and fingerprint each
        case once, on its cold request, and serve every repeat from the
        alias (the mapping's weight and the circuit come from their caches)."""
        import repro.compile.pipeline as pipeline_mod
        import repro.serve.queue as queue_mod
        import repro.service.service as service_mod
        from repro.serve.schema import CompileRequest

        calls = []
        for module, name in ((queue_mod, "build_case"),
                             (service_mod, "fingerprint_request"),
                             (pipeline_mod, "fingerprint_operator")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _n=name, _r=real:
                                calls.append(_n) or _r(*a))
        svc = MappingService(cache_dir=tmp_path)
        requests = [CompileRequest(case="hubbard:2x2"),
                    CompileRequest(case="hubbard:1x3", job="compile", arch="sycamore")]
        cold = [queue_mod._run_request(r, svc) for r in requests]
        assert sorted(calls) == sorted(["build_case", "fingerprint_request"] * 2
                                       + ["fingerprint_operator"])
        calls.clear()
        for _ in range(3):
            warm = [queue_mod._run_request(r, svc) for r in requests]
            assert [w["fingerprint"] for w in warm] == [c["fingerprint"] for c in cold]
            assert warm[0]["pauli_weight"] == cold[0]["pauli_weight"]
            assert warm[1]["metrics"]["routed_cx"] == cold[1]["metrics"]["routed_cx"]
        assert calls == []

    def test_operator_callers_never_touch_the_alias(self):
        h = build_case("hubbard:2x2")
        svc = MappingService(use_disk=False)
        for _ in range(2):
            svc.get_or_compile(h, MappingSpec(kind="hatt"))
        stats = svc.stats()["aliases"]
        assert stats["hits_memory"] == stats["misses"] == stats["memory_entries"] == 0


class TestPipelineIntegration:
    def test_compare_mappings_with_service_matches_direct(self, tmp_path):
        from repro.analysis import compare_mappings

        h = build_case("hubbard:2x2")
        svc = MappingService(cache_dir=tmp_path)
        direct = compare_mappings(h, 8, compile_circuit=False)
        via_service = compare_mappings(h, 8, compile_circuit=False, service=svc)
        assert {k: r.to_dict() for k, r in direct.items()} == \
            {k: r.to_dict() for k, r in via_service.items()}
        # Second run is served entirely from cache.
        compare_mappings(h, 8, compile_circuit=False, service=svc)
        stats = svc.stats()
        assert stats["compiles"] == 4 and stats["hits_memory"] == 4

    def test_compare_row_order_same_with_and_without_service(self, tmp_path):
        from repro.analysis import compare_mappings

        h = build_case("hubbard:2x2")
        kwargs = dict(compile_circuit=False, include_unopt=True, arch="sycamore")
        direct = compare_mappings(h, 8, **kwargs)
        via_service = compare_mappings(
            h, 8, service=MappingService(cache_dir=tmp_path), **kwargs)
        assert list(direct) == list(via_service) == [
            "JW", "BK", "BTT", "HATT", "HATT-unopt", "HATT-arch"]
        assert {k: r.to_dict() for k, r in direct.items()} == \
            {k: r.to_dict() for k, r in via_service.items()}


class TestCircuitNamespace:
    def test_roundtrip_and_inventory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "ab" * 32
        store.put_circuit_report(fp, {"circuit_schema": 1, "routed_cx": 7})
        assert store.get_circuit_report(fp) == {"circuit_schema": 1, "routed_cx": 7}
        assert store.circuit_fingerprints() == [fp]
        assert store.fingerprints() == []  # disjoint from the mapping namespace

    def test_corrupt_circuit_doc_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "cd" * 32
        store.put_circuit_report(fp, {"routed_cx": 1})
        store.circuit_path(fp).write_text("{ torn")
        assert store.get_circuit_report(fp) is None
        assert not store.circuit_path(fp).exists()  # quarantined
        assert store.stats()["corrupt_dropped"] == 1

    def test_stats_and_clear_cover_circuits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_circuit_report("ef" * 32, {"routed_cx": 2})
        stats = store.stats()
        assert stats["n_circuits"] == 1 and stats["total_bytes"] > 0
        assert store.clear() == 1
        assert store.circuit_fingerprints() == []

    def test_remove_circuit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = "0a" * 32
        assert not store.remove_circuit(fp)
        store.put_circuit_report(fp, {"x": 1})
        assert store.remove_circuit(fp)
        assert store.get_circuit_report(fp) is None


class TestLruCaps:
    """Disk-cache LRU caps: eviction order, strict bounds, per-namespace."""

    @staticmethod
    def _put(store, fp, mtime, pad=100):
        store.put_circuit_report(fp, {"pad": "x" * pad})
        os.utime(store.circuit_path(fp), (mtime, mtime))

    def test_uncapped_store_never_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(5):
            self._put(store, f"{i:02d}" * 32, mtime=1000 + i)
        assert len(store.circuit_fingerprints()) == 5
        assert store.namespace_stats()["circuits"]["evictions"] == 0

    def test_cap_evicts_least_recently_used_first(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=10_000)
        size = None
        for i in range(3):
            self._put(store, f"{i:02d}" * 32, mtime=1000 + i)
            size = store.circuit_path(f"{i:02d}" * 32).stat().st_size
        # Shrink the cap to two entries and trigger enforcement with a put.
        store._caps["circuits"] = int(2.5 * size)
        self._put(store, "aa" * 32, mtime=2000)
        left = store.circuit_fingerprints()
        assert "00" * 32 not in left and "01" * 32 not in left
        assert "02" * 32 in left and "aa" * 32 in left
        assert store.namespace_stats()["circuits"]["evictions"] == 2

    def test_read_hit_refreshes_recency(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(3):
            self._put(store, f"{i:02d}" * 32, mtime=1000 + i)
        assert store.get_circuit_report("00" * 32) is not None  # touch
        order = [e["fingerprint"] for e in store.entries("circuits")]
        assert order == ["01" * 32, "02" * 32, "00" * 32]

    def test_hot_entry_survives_cap_pressure(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=10_000)
        self._put(store, "00" * 32, mtime=1000)
        self._put(store, "01" * 32, mtime=1001)
        size = store.circuit_path("01" * 32).stat().st_size
        assert store.get_circuit_report("00" * 32) is not None  # now the hottest
        store._caps["circuits"] = int(2.5 * size)
        self._put(store, "02" * 32, mtime=99999)
        left = store.circuit_fingerprints()
        assert "00" * 32 in left and "01" * 32 not in left

    def test_strict_cap_never_exceeded_even_by_newest(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=10)
        store.put_circuit_report("ab" * 32, {"pad": "x" * 100})
        assert store.circuit_fingerprints() == []
        assert store.namespace_stats()["circuits"]["bytes"] == 0
        assert store.namespace_stats()["circuits"]["evictions"] == 1

    def test_caps_are_per_namespace(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes={"circuits": 10})
        h = build_case("hubbard:1x2")
        spec = MappingSpec(kind="jw", n_modes=4)
        fp = fingerprint_request(h, spec)
        store.put_mapping(fp, compile_mapping(h, spec))
        store.put_circuit_report("cd" * 32, {"pad": "x" * 100})
        assert store.fingerprints() == [fp]  # mappings namespace unbounded
        assert store.circuit_fingerprints() == []

    def test_interleaved_reads_and_writes_stay_bounded(self, tmp_path):
        cap = 1200
        store = ArtifactStore(tmp_path, max_bytes=cap)
        for i in range(12):
            self._put(store, f"{i:02x}" * 32, mtime=1000 + i)
            if i % 3 == 0:
                store.get_circuit_report(f"{i:02x}" * 32)
            assert store.namespace_stats()["circuits"]["bytes"] <= cap

    def test_bad_cap_namespace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache namespaces"):
            ArtifactStore(tmp_path, max_bytes={"bogus": 10})

    def test_service_forwards_max_bytes(self, tmp_path):
        svc = MappingService(cache_dir=tmp_path, max_bytes=10)
        h = build_case("hubbard:1x2")
        svc.get_or_compile(h, MappingSpec(kind="jw", n_modes=4))
        # The artifact was written, then immediately evicted by the tiny cap.
        assert svc.store.fingerprints() == []
        assert svc.stats()["store"]["namespaces"]["mappings"]["evictions"] == 1

    def test_memory_metrics_exposed(self, tmp_path):
        svc = MappingService(cache_dir=tmp_path, memory_capacity=1)
        h4, h8 = build_case("hubbard:1x2"), build_case("hubbard:2x2")
        svc.get_or_compile(h4, MappingSpec(kind="jw", n_modes=4))
        svc.get_or_compile(h8, MappingSpec(kind="jw", n_modes=8))  # evicts
        svc.get_or_compile(h4, MappingSpec(kind="jw", n_modes=4))  # disk hit
        stats = svc.stats()
        assert stats["memory_evictions"] >= 1
        assert stats["hits_disk"] == 1
        assert stats["hit_rate"] == round(1 / 3, 4)

    def test_cache_metric_labels(self, tmp_path):
        """Hits and evictions carry {namespace,tier}; misses {namespace}."""
        from repro.compile import CompilationPipeline
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        svc = MappingService(cache_dir=tmp_path, memory_capacity=1, max_bytes=10,
                             registry=reg)
        h4, h8 = build_case("hubbard:1x2"), build_case("hubbard:2x2")
        svc.get_or_compile(h4, MappingSpec(kind="jw", n_modes=4))
        svc.get_or_compile(h4, MappingSpec(kind="jw", n_modes=4))  # memory hit
        svc.get_or_compile(h8, MappingSpec(kind="jw", n_modes=8))  # evicts h4
        pipeline = CompilationPipeline(service=svc)
        pipeline.compile_one(h4, "jw", "sycamore")
        pipeline.compile_one(h4, "jw", "sycamore")  # both memory hits
        values = {name: fam["values"] for name, fam in reg.snapshot().items()}
        assert values["repro_cache_hits_total"] == {
            "namespace=circuits,tier=memory": 1,
            "namespace=mappings,tier=memory": 2,
        }
        assert values["repro_cache_misses_total"] == {
            "namespace=circuits": 1,
            "namespace=mappings": 3,
        }
        evictions = values["repro_cache_evictions_total"]
        assert evictions["namespace=mappings,tier=memory"] >= 1
        assert evictions["namespace=mappings,tier=disk"] >= 1
        assert evictions["namespace=circuits,tier=disk"] == 1
        assert set(evictions) <= {
            f"namespace={ns},tier={tier}"
            for ns in ("mappings", "circuits") for tier in ("memory", "disk")
        }


class TestArchFingerprint:
    """hatt-arch requests must key mappings/v1 on the coupling graph too."""

    def test_distinct_archs_fork(self):
        h = build_case("hubbard:1x2")
        fps = {
            fingerprint_request(h, MappingSpec(kind="hatt-arch", arch=a))
            for a in ("montreal", "sycamore", "ionq_forte")
        }
        assert len(fps) == 3

    def test_arch_forks_from_plain_hatt(self):
        h = build_case("hubbard:1x2")
        plain = fingerprint_request(h, MappingSpec(kind="hatt"))
        arch = fingerprint_request(h, MappingSpec(kind="hatt-arch", arch="montreal"))
        assert plain != arch

    def test_weight_quantization(self):
        """Weights are fingerprinted at 1/64 resolution: the default weight
        and an explicit equal weight collide; distinct weights fork."""
        h = build_case("hubbard:1x2")
        from repro.hatt import DEFAULT_ARCH_WEIGHT

        base = MappingSpec(kind="hatt-arch", arch="montreal")
        explicit = MappingSpec(
            kind="hatt-arch", arch="montreal", arch_weight=DEFAULT_ARCH_WEIGHT
        )
        other = MappingSpec(kind="hatt-arch", arch="montreal", arch_weight=2.0)
        assert fingerprint_request(h, base) == fingerprint_request(h, explicit)
        assert fingerprint_request(h, base) != fingerprint_request(h, other)

    def test_arch_requires_known_name(self):
        with pytest.raises(ValueError):
            MappingSpec(kind="hatt-arch", arch="torus")
        with pytest.raises(ValueError):
            MappingSpec(kind="hatt-arch")  # arch is mandatory for the kind

    def test_arch_rejected_for_other_kinds(self):
        with pytest.raises(ValueError):
            MappingSpec(kind="hatt", arch="montreal")
        with pytest.raises(ValueError):
            MappingSpec(kind="jw", arch_weight=0.5)

    def test_service_roundtrip_with_provenance(self, tmp_path):
        h = build_case("hubbard:1x2")
        svc = MappingService(cache_dir=tmp_path)
        spec = MappingSpec(kind="hatt-arch", arch="sycamore", arch_weight=0.5)
        cold = svc.get_or_compile(h, spec)
        assert cold.source == "compiled"
        assert cold.provenance["arch"] == "sycamore"
        assert cold.provenance["arch_weight"] == 0.5
        warm = svc.get_or_compile(h, spec)
        assert warm.cache_hit
        assert [str(s) for s in warm.mapping.strings] == \
            [str(s) for s in cold.mapping.strings]

    def test_batch_suite_threads_arch(self, tmp_path):
        report = compile_suite(
            ["hubbard:1x2"],
            ["hatt", "hatt-arch"],
            cache_dir=tmp_path,
            arch="montreal",
            arch_weight=0.5,
        )
        assert report.n_errors == 0
        fps = {t.fingerprint for t in report.tasks}
        assert len(fps) == 2  # hatt and hatt-arch are distinct cache entries

    def test_batch_hatt_arch_without_arch_is_per_task_error(self, tmp_path):
        report = compile_suite(["hubbard:1x2"], ["hatt-arch"], cache_dir=tmp_path)
        assert report.n_errors == 1


class TestRecencyGranularity:
    """LRU recency must stay strictly ordered within one filesystem tick."""

    def test_rapid_writes_order_strictly(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fps = [f"{i:02d}" * 32 for i in range(8)]
        for fp in fps:  # all writes land well inside one second
            store.put_circuit_report(fp, {"i": fp[:2]})
        order = [e["fingerprint"] for e in store.entries("circuits")]
        assert order == fps

    def test_rapid_touches_order_strictly(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fps = [f"{i:02d}" * 32 for i in range(6)]
        for fp in fps:
            store.put_circuit_report(fp, {"i": fp[:2]})
        for fp in reversed(fps):  # re-touch in reverse, sub-second
            assert store.get_circuit_report(fp) is not None
        order = [e["fingerprint"] for e in store.entries("circuits")]
        assert order == list(reversed(fps))

    def test_recency_stamps_strictly_increase(self, tmp_path):
        store = ArtifactStore(tmp_path)
        seen = [store._next_recency_ns() for _ in range(1000)]
        assert seen == sorted(seen) and len(set(seen)) == len(seen)

    def test_eviction_respects_sub_second_recency(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=10_000)
        fps = [f"{i:02d}" * 32 for i in range(3)]
        for fp in fps:
            store.put_circuit_report(fp, {"pad": "x" * 100})
        size = store.circuit_path(fps[0]).stat().st_size
        assert store.get_circuit_report(fps[0]) is not None  # oldest → hottest
        store._caps["circuits"] = int(2.5 * size)
        store.put_circuit_report("aa" * 32, {"pad": "x" * 100})
        left = store.circuit_fingerprints()
        assert fps[0] in left and fps[1] not in left
