"""Tests for the pluggable HamiltonianSource API (repro.sources).

Covers the registry (every spec form, canonicalization, the satellite
error contract), ``.npz``/FCIDUMP round-trips (property-based via
Hypothesis), the SYK ensemble, the batch/serve integration, and the
removed streamed-fingerprint surface.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermion import FermionOperator
from repro.models.electronic import case_integrals, fermion_hamiltonian_from_integrals
from repro.service import MappingService, MappingSpec, compile_suite
from repro.service.fingerprint import fingerprint_operator, fingerprint_request
from repro.serve.schema import CompileRequest
from repro.sources import (
    HamiltonianSource,
    build_case,
    canonical_spec,
    load_npz,
    read_fcidump,
    register_source,
    registered_prefixes,
    resolve,
    save_npz,
    source_catalog,
    write_fcidump,
)
from repro.sources import registry as registry_mod

# ----------------------------------------------------------------------
# Registry: every spec form + error contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_prefixes_registered(self):
        assert set(registered_prefixes()) >= {
            "electronic", "fcidump", "hubbard", "neutrino", "npz", "random"
        }

    @pytest.mark.parametrize("spec, n_modes", [
        ("hubbard:2x3", 12),
        ("hubbard:3x3,bc=open", 18),
        ("hubbard:2x2,t=1.5,u=8,ordering=blocked", 8),
        ("neutrino:2x2F", 8),
        ("neutrino:2x2F,mu=0.05", 8),
        ("electronic:H2_sto3g", 4),
        ("H2_sto3g", 4),
        ("random:syk:n=6,seed=3", 6),
    ])
    def test_spec_forms_resolve(self, spec, n_modes):
        src = resolve(spec)
        assert src.n_modes == n_modes
        assert src.build().n_modes <= n_modes
        doc = src.describe()
        assert doc["spec"] == src.spec
        assert doc["n_modes"] == n_modes

    def test_bare_name_is_electronic_alias(self):
        assert canonical_spec("H2_sto3g") == "electronic:H2_sto3g"
        a = fingerprint_operator(build_case("H2_sto3g"))
        b = fingerprint_operator(build_case("electronic:H2_sto3g"))
        assert a == b

    def test_canonical_spec_normalizes_parameter_tails(self):
        assert canonical_spec("hubbard:2x3,u=4,t=1") == "hubbard:2x3"
        assert (canonical_spec("hubbard:2x3,u=8,t=2")
                == canonical_spec("hubbard:2x3,t=2,u=8"))

    def test_hubbard_default_matches_legacy_generator(self):
        from repro.models import hubbard_case

        assert fingerprint_operator(build_case("hubbard:2x3")) == \
            fingerprint_operator(hubbard_case("2x3"))

    def test_hubbard_variants_are_distinct_hamiltonians(self):
        fps = {
            fingerprint_operator(build_case(s))
            for s in ("hubbard:3x3", "hubbard:3x3,bc=open",
                      "hubbard:3x3,ordering=blocked", "hubbard:3x3,u=8")
        }
        assert len(fps) == 4

    def test_unknown_prefix_error_names_everything(self):
        with pytest.raises(ValueError) as err:
            build_case("hubard:2x3")
        msg = str(err.value)
        assert "hubard:2x3" in msg          # the spec
        assert "prefix 'hubard'" in msg      # the attempted resolver
        for prefix in ("hubbard", "fcidump", "npz", "random"):
            assert prefix in msg             # the registered prefixes

    def test_unknown_bare_name_error_names_resolver(self):
        with pytest.raises(ValueError) as err:
            build_case("H2_sto3")
        msg = str(err.value)
        assert "H2_sto3" in msg
        assert "bare electronic name" in msg
        assert "registered prefixes" in msg

    @pytest.mark.parametrize("bad", [
        "", "hubbard:9z9", "hubbard:2x3,volume=2", "hubbard:2x3,bc=twisted",
        "hubbard:2x3,t=1,t=2", "hubbard:2x3,t",
        "neutrino:2x2", "random:ising:n=4", "random:syk:seed=1",
        "random:syk:n=two", "npz:", "npz:/no/such/file.npz",
        "fcidump:/no/such/file.fcid",
    ])
    def test_bad_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            resolve(bad)

    def test_non_string_spec_raises_type_error(self):
        with pytest.raises(TypeError):
            resolve(123)

    def test_register_source_rejects_duplicates_and_bad_prefixes(self):
        with pytest.raises(ValueError):
            register_source("hubbard", lambda s: None,
                            description="x", grammar="x")
        for bad in ("", "a:b", "a,b", " pad "):
            with pytest.raises(ValueError):
                register_source(bad, lambda s: None, description="x", grammar="x")

    def test_custom_source_registration(self):
        class Toy(HamiltonianSource):
            family = "toy"

            @property
            def n_modes(self):
                return 2

            def _build(self):
                return FermionOperator.number(0) + FermionOperator.number(1)

        try:
            register_source("toy", Toy, description="toy model",
                            grammar="toy:<anything>")
            src = resolve("toy:x")
            assert src.n_modes == 2
            assert len(src.build()) == 2
            assert any(s["prefix"] == "toy" for s in source_catalog())
        finally:
            registry_mod._REGISTRY.pop("toy", None)

    def test_source_catalog_shape(self):
        for entry in source_catalog():
            assert set(entry) == {
                "prefix", "description", "grammar", "examples", "file_backed"
            }
            json.dumps(entry)  # must be JSON-serializable for `cases --json`


# ----------------------------------------------------------------------
# identity(): which sources may be served through the service's alias
# ----------------------------------------------------------------------
def _load_example(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSourceIdentity:
    @pytest.mark.parametrize("spec, cls", [
        ("hubbard:2x3,u=8", "repro.sources.builtin.HubbardSource"),
        ("neutrino:2x2F", "repro.sources.builtin.NeutrinoSource"),
        ("H2_sto3g", "repro.sources.builtin.ElectronicSource"),
        ("random:syk:n=6,seed=3", "repro.sources.synthetic.SykSource"),
    ])
    def test_generator_families_name_spec_class_and_version(self, spec, cls):
        src = resolve(spec)
        assert src.identity() == (src.spec, cls, 1)
        assert resolve(src.spec).identity() == src.identity()

    @pytest.mark.parametrize("spec", [
        "hubbard:2x2,u=4.0000001", "hubbard:2x2,t=1.0000000001",
        "neutrino:2x2F,mu=0.1000001", "random:syk:n=6,seed=1,j=1.0000001",
    ])
    def test_canonical_spec_keeps_every_digit(self, spec):
        """Two parameter values must never share a canonical spec, or they
        would share an identity (and a coalesce key)."""
        src = resolve(spec)
        assert src.spec == spec
        default = resolve(spec.rsplit(",", 1)[0])
        assert src.identity() != default.identity()
        assert fingerprint_operator(src.build()) != fingerprint_operator(default.build())

    def test_short_parameters_stay_short(self):
        assert resolve("hubbard:3x3,bc=open,u=8.0").spec == "hubbard:3x3,bc=open,u=8"
        assert resolve("neutrino:3x2F,mu=0.050").spec == "neutrino:3x2F,mu=0.05"

    def test_subclass_overriding_build_has_no_identity(self):
        from repro.sources import HubbardSource

        class HalfHopping(HubbardSource):
            def _build(self):
                return super()._build() * 0.5

        src = HalfHopping("hubbard:2x2")
        assert src.spec == "hubbard:2x2"
        assert src.identity() is None
        assert HubbardSource("hubbard:2x2").identity() is not None

    def test_replaced_registration_has_no_identity(self):
        from repro.sources import HubbardSource

        class Shadow(HubbardSource):
            pass

        original = registry_mod._REGISTRY["hubbard"]
        try:
            register_source("hubbard", Shadow, description="x", grammar="x",
                            replace=True)
            assert resolve("hubbard:2x2").identity() is None
        finally:
            registry_mod._REGISTRY["hubbard"] = original
        assert resolve("hubbard:2x2").identity() is not None

    def test_example_ring_source_never_hits_the_alias(self, monkeypatch):
        import repro.service.service as service_mod

        ring = _load_example("custom_source")
        calls = []
        real = service_mod.fingerprint_request
        monkeypatch.setattr(service_mod, "fingerprint_request",
                            lambda h, spec: calls.append(spec) or real(h, spec))
        monkeypatch.setitem(registry_mod._REGISTRY, "ring", registry_mod.SourceInfo(
            "ring", ring.RingSource, description="ring", grammar="ring:<n>"))
        src = resolve("ring:6")
        assert src.identity() is None
        svc = MappingService(use_disk=False)
        first = svc.get_or_compile(src, MappingSpec(kind="hatt"))
        again = svc.get_or_compile(resolve("ring:6"), MappingSpec(kind="hatt"))
        assert (first.source, again.source) == ("compiled", "memory")
        assert len(calls) == 2
        aliases = svc.aliases.stats()
        assert aliases["hits_memory"] == aliases["misses"] == 0

    @pytest.mark.parametrize("family", ["fcidump", "npz"])
    def test_file_rewritten_in_place_misses_the_alias(self, tmp_path, family):
        def write(scale):
            h, eri, core, nelec = case_integrals("H2_sto3g")
            path = tmp_path / f"h2.{family}"
            if family == "fcidump":
                write_fcidump(path, h * scale, eri, core, nelec)
            else:
                save_npz(path, fermion_hamiltonian_from_integrals(h * scale, eri, core))
            return f"{family}:{path}"

        spec = MappingSpec(kind="hatt")
        svc = MappingService(use_disk=False)
        case = write(1.0)
        before = resolve(case).identity()
        assert before[:3] == (case, type(resolve(case)).__module__ + "."
                              + type(resolve(case)).__qualname__, 1)
        held = resolve(case)
        old = svc.fingerprint(held, spec)
        assert svc.fingerprint(resolve(case), spec) == old
        write(0.5)
        # A source hashes and parses one read of the file, so one already
        # read keeps naming (and building) the content it read.
        assert held.identity() == before
        assert svc.fingerprint(held, spec) == old
        assert fingerprint_request(held.build(), spec.resolve(held.build())) == old
        src = resolve(case)
        assert src.identity() != before and src.identity()[:3] == before[:3]
        new = svc.fingerprint(src, spec)
        h = resolve(case).build()
        assert new != old and new == fingerprint_request(h, spec.resolve(h))
        assert svc.aliases.stats()["misses"] == 2


# Any term multiset in any order, duplicates included.
fermion_terms = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, 4), st.booleans()),
            min_size=0, max_size=4,
        ).map(tuple),
        st.complex_numbers(
            max_magnitude=10, allow_nan=False, allow_infinity=False
        ),
    ),
    max_size=25,
)


# ----------------------------------------------------------------------
# .npz round-trip
# ----------------------------------------------------------------------
class TestNpzRoundTrip:
    def test_builtin_case_round_trip(self, tmp_path):
        h = build_case("neutrino:2x2F")
        path = tmp_path / "nu.npz"
        save_npz(path, h)
        assert load_npz(path) == h
        src = resolve(f"npz:{path}")
        assert src.file_backed
        assert src.n_modes == h.n_modes
        assert fingerprint_operator(src.build()) == fingerprint_operator(h)
        assert src.describe()["n_terms"] == len(h)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        src = resolve(f"npz:{path}")  # header validation is lazy
        with pytest.raises(ValueError, match="schema"):
            src.n_modes

    @given(fermion_terms)
    @settings(max_examples=40, deadline=None)
    def test_property_save_load_fingerprint(self, items):
        import tempfile

        op = FermionOperator()
        for term, coeff in items:
            op.add_term(term, coeff)
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/op.npz"
            save_npz(path, op)
            loaded = load_npz(path)
        assert loaded == op
        assert fingerprint_operator(loaded) == fingerprint_operator(op)


# ----------------------------------------------------------------------
# FCIDUMP round-trip
# ----------------------------------------------------------------------
class TestFcidumpRoundTrip:
    def test_case_round_trip_is_bitwise(self, tmp_path):
        h, eri, core, nelec = case_integrals("H2_sto3g")
        path = tmp_path / "h2.fcid"
        write_fcidump(path, h, eri, core, nelec)
        h2, eri2, core2, nelec2, _ = read_fcidump(path)
        assert np.array_equal(h, h2)
        assert np.array_equal(eri, eri2)
        assert core == core2 and nelec == nelec2

    def test_source_fingerprint_matches_builtin_case(self, tmp_path):
        h, eri, core, nelec = case_integrals("H2_sto3g")
        path = tmp_path / "h2.fcid"
        write_fcidump(path, h, eri, core, nelec)
        src = resolve(f"fcidump:{path}")
        expected = fingerprint_operator(build_case("H2_sto3g"))
        assert src.file_backed
        assert src.n_modes == 4
        assert fingerprint_operator(src.build()) == expected

    def test_reads_symmetry_compacted_external_file(self, tmp_path):
        # External-program style: one line per orbit, Fortran D exponents.
        path = tmp_path / "ext.fcid"
        path.write_text(
            "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n"
            "  0.5D0  1 1 1 1\n"
            "  0.25D0 1 2 1 1\n"
            "  1.0D0  1 1 0 0\n"
            " -0.75D0 1 2 0 0\n"
            "  0.125D0 0 0 0 0\n"
        )
        h, eri, core, nelec, ms2 = read_fcidump(path)
        assert (nelec, ms2, core) == (2, 0, 0.125)
        assert h[0, 0] == 1.0 and h[0, 1] == h[1, 0] == -0.75
        assert eri[0, 0, 0, 0] == 0.5
        # All 8 images of (12|11) must be populated.
        for idx in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]:
            assert eri[idx] == 0.25

    def test_malformed_files_rejected(self, tmp_path):
        no_header = tmp_path / "a.fcid"
        no_header.write_text("1.0 1 1 0 0\n")
        with pytest.raises(ValueError):
            read_fcidump(no_header)
        bad_line = tmp_path / "b.fcid"
        bad_line.write_text("&FCI NORB=1,NELEC=0,MS2=0,\n&END\n1.0 1 1\n")
        with pytest.raises(ValueError, match="malformed"):
            read_fcidump(bad_line)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip_any_tensors(self, seed, norb, symmetrize):
        """Both symmetric and wholly asymmetric tensors round-trip bitwise,
        and the rebuilt operator fingerprints identically."""
        import tempfile

        rng = np.random.default_rng(seed)
        h = rng.standard_normal((norb, norb))
        eri = rng.standard_normal((norb, norb, norb, norb))
        if symmetrize:
            h = h + h.T
            eri = eri + eri.transpose(1, 0, 2, 3)
            eri = eri + eri.transpose(0, 1, 3, 2)
            eri = eri + eri.transpose(2, 3, 0, 1)
        core = float(rng.standard_normal())
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/t.fcid"
            write_fcidump(path, h, eri, core)
            h2, eri2, core2, _, _ = read_fcidump(path)
        assert np.array_equal(h, h2)
        assert np.array_equal(eri, eri2)
        assert core == core2
        a = fermion_hamiltonian_from_integrals(h, eri, core)
        b = fermion_hamiltonian_from_integrals(h2, eri2, core2)
        assert fingerprint_operator(a) == fingerprint_operator(b)


# ----------------------------------------------------------------------
# SYK ensemble
# ----------------------------------------------------------------------
class TestSykSource:
    def test_deterministic_and_seed_sensitive(self):
        a = fingerprint_operator(build_case("random:syk:n=6,seed=3"))
        b = fingerprint_operator(build_case("random:syk:n=6,seed=3"))
        c = fingerprint_operator(build_case("random:syk:n=6,seed=4"))
        assert a == b != c

    def test_hermitian(self):
        assert build_case("random:syk:n=6,seed=0").is_hermitian()
        assert build_case("random:syk:n=5,seed=2,j=0.5").is_hermitian()

    @staticmethod
    def _reference_stream(src):
        """The scalar-draw generator the per-pair block draws of
        ``SykSource`` replaced, kept as its oracle."""
        rng = np.random.default_rng(src.seed)
        scale = src.j / float(src.n) ** 1.5
        pairs = [(i, k) for i in range(src.n) for k in range(i + 1, src.n)]
        for a, (i, k) in enumerate(pairs):
            for i2, k2 in pairs[a:]:
                if (i, k) == (i2, k2):
                    g = complex(rng.standard_normal() * scale)
                    yield ((i, True), (k, True), (k2, False), (i2, False)), g
                else:
                    re, im = rng.standard_normal(2)
                    g = complex(re * scale, im * scale)
                    yield ((i, True), (k, True), (k2, False), (i2, False)), g
                    yield ((i2, True), (k2, True), (k, False), (i, False)), g.conjugate()

    @pytest.mark.parametrize("spec", [
        "random:syk:n=4,seed=0", "random:syk:n=7,seed=2,j=-3",
        "random:syk:n=10,seed=3,j=0.5", "random:syk:n=12,seed=5",
        # scale ~4e-12: some couplings fall inside the 1e-12 drop
        "random:syk:n=9,seed=2,j=1e-10",
        "random:syk:n=8,seed=1,j=0",
    ])
    def test_block_draw_build_matches_scalar_loop(self, spec):
        """The generated terms, and the built operator's terms, their order
        and every coefficient bit, equal the old scalar-draw loop's."""
        def bits(pairs):
            return [(t, complex(c).real.hex(), complex(c).imag.hex()) for t, c in pairs]

        src = resolve(spec)
        want = FermionOperator()
        for term, coeff in self._reference_stream(src):
            want.add_term(term, coeff)
        assert bits(src._iter_raw()) == bits(self._reference_stream(src))
        assert bits(src.build().terms()) == bits(want.terms())

    def test_stream_draws_one_pair_block_at_a_time(self, monkeypatch):
        """The first term arrives after one outer pair's block of normals
        (``2P - 1`` for ``P`` mode pairs), not the whole ``P²`` draw."""
        sizes = []

        class Recording:
            def __init__(self, seed):
                self.rng = real(seed)

            def standard_normal(self, size):
                sizes.append(size)
                return self.rng.standard_normal(size)

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", Recording)
        src = resolve("random:syk:n=12,seed=5")
        n_pairs = 12 * 11 // 2
        first, _ = next(src._iter_raw())
        assert first == ((0, True), (1, True), (1, False), (0, False))
        assert sizes == [2 * n_pairs - 1]
        assert sum(1 for _ in src._iter_raw()) == n_pairs**2
        assert max(sizes) == 2 * n_pairs - 1

    def test_canonical_spec_normalizes(self):
        assert canonical_spec("random:syk:seed=7,n=8") == "random:syk:n=8,seed=7"
        assert canonical_spec("random:syk:n=8,seed=7,j=1") == \
            "random:syk:n=8,seed=7"


# ----------------------------------------------------------------------
# Batch + serve integration
# ----------------------------------------------------------------------
class TestSourcesThroughTheStack:
    def _dump_h2(self, tmp_path):
        h, eri, core, nelec = case_integrals("H2_sto3g")
        path = tmp_path / "h2.fcid"
        write_fcidump(path, h, eri, core, nelec)
        return f"fcidump:{path}"

    def test_file_backed_batch_dedups_against_builtin(self, tmp_path):
        fcid_spec = self._dump_h2(tmp_path)
        report = compile_suite(
            ["H2_sto3g", fcid_spec], ["hatt"], cache_dir=str(tmp_path / "cache")
        )
        assert report.n_errors == 0
        assert report.n_tasks == 2
        # Same physics through two frontends → one unique compile.
        assert report.n_unique == 1
        weights = {t.pauli_weight for t in report.tasks}
        assert len(weights) == 1

    def test_file_backed_batch_parallel_spec_shipping(self, tmp_path):
        fcid_spec = self._dump_h2(tmp_path)
        cache = str(tmp_path / "cache")
        serial = compile_suite(
            [fcid_spec, "random:syk:n=5,seed=1", "hubbard:1x2"],
            ["hatt", "jw"], cache_dir=cache,
        )
        assert serial.n_errors == 0
        warm = compile_suite(
            [fcid_spec, "random:syk:n=5,seed=1", "hubbard:1x2"],
            ["hatt", "jw"], cache_dir=cache, jobs=2,
        )
        assert warm.n_errors == 0
        assert all(t.cache_hit for t in warm.tasks)
        assert [t.pauli_weight for t in warm.tasks] == \
            [t.pauli_weight for t in serial.tasks]
        assert [t.fingerprint for t in warm.tasks] == \
            [t.fingerprint for t in serial.tasks]

    def test_cold_parallel_file_backed_batch(self, tmp_path):
        fcid_spec = self._dump_h2(tmp_path)
        report = compile_suite(
            [fcid_spec, "hubbard:1x2"], ["hatt", "jw"],
            cache_dir=str(tmp_path / "cache"), jobs=2,
        )
        assert report.n_errors == 0
        assert all(t.pauli_weight is not None for t in report.tasks)

    def test_bad_case_is_per_task_error(self, tmp_path):
        report = compile_suite(
            ["hubard:2x3", "hubbard:1x2"], ["jw"],
            cache_dir=str(tmp_path / "cache"),
        )
        assert report.n_errors == 1
        bad = [t for t in report.tasks if not t.ok][0]
        assert "hubard" in (bad.error or "")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_task_of_a_failed_case_names_the_failure(self, tmp_path, jobs):
        """A case that fails to resolve (misspelt prefix) or to build (an
        ``.npz`` this package did not write) reports its own error on every
        one of its tasks, and the healthy case still compiles."""
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, stuff=np.arange(3))
        report = compile_suite(
            ["hubard:2x3", f"npz:{foreign}", "hubbard:1x2"], ["hatt", "jw"],
            cache_dir=str(tmp_path / "cache"), jobs=jobs,
        )
        assert report.n_tasks == 6 and report.n_errors == 4
        for task in report.tasks:
            if task.case == "hubbard:1x2":
                assert task.ok and task.pauli_weight is not None
            else:
                assert re.search(
                    "no source is registered|not a repro operator archive",
                    task.error or "",
                ), (task.case, task.kind, task.error)

    def test_service_cache_hit_across_frontends(self, tmp_path):
        fcid_spec = self._dump_h2(tmp_path)
        service = MappingService(cache_dir=str(tmp_path / "cache"))
        spec = MappingSpec(kind="hatt")
        cold = service.get_or_compile(build_case("H2_sto3g"), spec)
        warm = service.get_or_compile(build_case(fcid_spec), spec)
        assert cold.source == "compiled"
        assert warm.source in ("memory", "disk")
        assert warm.fingerprint == cold.fingerprint

    def test_coalesce_key_canonicalizes_aliases(self):
        a = CompileRequest(case="H2_sto3g")
        b = CompileRequest(case="electronic:H2_sto3g")
        assert a.coalesce_key() == b.coalesce_key()
        # Unresolvable cases keep the raw string and differ.
        c = CompileRequest(case="no_such_case")
        d = CompileRequest(case="H2_sto3g")
        assert c.coalesce_key() != d.coalesce_key()


# ----------------------------------------------------------------------
# The streamed fingerprint and the chunked term protocol are gone
# ----------------------------------------------------------------------
def test_streamed_fingerprint_surface_is_removed():
    """Every case is fingerprinted on its built operator by the one kernel;
    the streamed canonicalizer and the chunked ``iter_terms`` feeding it
    were removed in 1.11 and must not come back as a second path."""
    import repro.service as service
    import repro.service.fingerprint as fingerprint_module
    import repro.sources as sources

    for name in ("fingerprint_stream", "fingerprint_request_stream", "DEFAULT_SPILL_AT"):
        assert name not in service.__all__
        assert not hasattr(service, name)
        assert not hasattr(fingerprint_module, name)
    assert not hasattr(fingerprint_module, "canonical_lines_stream")
    assert "DEFAULT_CHUNK_SIZE" not in sources.__all__
    assert not hasattr(sources, "DEFAULT_CHUNK_SIZE")
    for name in ("iter_terms", "fingerprint_stream"):
        assert not hasattr(HamiltonianSource, name)
