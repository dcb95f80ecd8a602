"""Tests for the hardware compilation pipeline (repro.compile)."""

import pytest

from repro.compile import (
    ARCHITECTURES,
    CIRCUIT_SCHEMA,
    CompilationPipeline,
    CompileOptions,
    RoutedMetrics,
    circuit_fingerprint,
)
from repro.service import MappingService
from repro.sources import build_case


@pytest.fixture(scope="module")
def h2():
    return build_case("H2_sto3g")


class TestCompileOptions:
    def test_defaults(self):
        opts = CompileOptions()
        assert opts.term_order == "mutual"

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            CompileOptions(term_order="alphabetical")

    def test_options_fork_fingerprint(self):
        base = CompileOptions()
        fp = circuit_fingerprint("ef" * 32, "ab" * 32, "montreal", base)
        assert fp != circuit_fingerprint("ef" * 32, "cd" * 32, "montreal", base)
        assert fp != circuit_fingerprint("00" * 32, "ab" * 32, "montreal", base)
        assert fp != circuit_fingerprint("ef" * 32, "ab" * 32, "sycamore", base)
        assert fp != circuit_fingerprint(
            "ef" * 32, "ab" * 32, "montreal", CompileOptions(lookahead=8)
        )
        assert fp != circuit_fingerprint(
            "ef" * 32, "ab" * 32, "montreal", CompileOptions(term_order="lexicographic")
        )
        assert fp != circuit_fingerprint(
            "ef" * 32, "ab" * 32, "montreal", CompileOptions(trotter_steps=2)
        )


class TestCompileOne:
    def test_metrics_shape(self, h2):
        pipeline = CompilationPipeline()
        m = pipeline.compile_one(h2, "hatt", "montreal")
        assert m.kind == "hatt" and m.architecture == "montreal"
        assert m.n_qubits == 4 and m.n_physical == 27
        assert m.routed_cx >= m.logical_cx  # routing can only add CX
        assert m.routed_depth > 0 and m.pauli_weight > 0
        assert m.source == "computed"
        assert len(m.fingerprint) == 64

    def test_all_to_all_needs_no_swaps(self, h2):
        m = CompilationPipeline().compile_one(h2, "jw", "ionq_forte")
        assert m.routed_swaps == 0
        assert m.routed_cx == m.logical_cx

    def test_graph_shared_across_pipeline(self, h2):
        pipeline = CompilationPipeline()
        assert pipeline.graph("montreal") is pipeline.graph("montreal")


class TestSweep:
    def test_sweep_covers_grid(self, h2):
        report = CompilationPipeline().sweep(
            h2, kinds=("jw", "hatt"), architectures=("montreal", "ionq_forte"),
            case="H2_sto3g",
        )
        assert set(report.metrics) == {"montreal", "ionq_forte"}
        assert set(report.metrics["montreal"]) == {"jw", "hatt"}
        assert len(report.rows()) == 4

    def test_table_and_dict(self, h2):
        report = CompilationPipeline().sweep(
            h2, kinds=("jw",), architectures=("montreal",), case="H2_sto3g"
        )
        text = report.table()
        assert "H2_sto3g" in text and "montreal" in text
        payload = report.to_dict()
        assert payload["case"] == "H2_sto3g"
        assert payload["metrics"]["montreal"]["jw"]["routed_cx"] > 0

    def test_default_architectures(self, h2):
        report = CompilationPipeline().sweep(h2, kinds=("jw",))
        assert tuple(report.metrics) == ARCHITECTURES


class TestCircuitCache:
    def test_cold_then_warm(self, h2, tmp_path):
        service = MappingService(cache_dir=str(tmp_path))
        pipeline = CompilationPipeline(service=service)
        cold = pipeline.compile_one(h2, "hatt", "montreal")
        assert pipeline.stats == {"routed": 1, "circuit_hits": 0}
        warm = pipeline.compile_one(h2, "hatt", "montreal")
        assert pipeline.stats == {"routed": 1, "circuit_hits": 1}
        assert warm.source == "cache"
        assert warm.artifact() == cold.artifact()

    def test_warm_across_pipelines(self, h2, tmp_path):
        service = MappingService(cache_dir=str(tmp_path))
        cold = CompilationPipeline(service=service).compile_one(h2, "jw", "sycamore")
        fresh = CompilationPipeline(service=service)
        warm = fresh.compile_one(h2, "jw", "sycamore")
        assert fresh.stats["routed"] == 0
        assert warm.artifact() == cold.artifact()

    def test_option_change_misses(self, h2, tmp_path):
        service = MappingService(cache_dir=str(tmp_path))
        CompilationPipeline(service=service).compile_one(h2, "jw", "montreal")
        other = CompilationPipeline(
            service=service, options=CompileOptions(lookahead=8)
        )
        other.compile_one(h2, "jw", "montreal")
        assert other.stats["routed"] == 1

    def test_schema_drift_recomputes(self, h2, tmp_path):
        service = MappingService(cache_dir=str(tmp_path))
        pipeline = CompilationPipeline(service=service)
        m = pipeline.compile_one(h2, "jw", "montreal")
        doc = service.store.get_circuit_report(m.fingerprint)
        doc["circuit_schema"] = CIRCUIT_SCHEMA + 1
        service.store.put_circuit_report(m.fingerprint, doc)
        again = pipeline.compile_one(h2, "jw", "montreal")
        assert again.source == "computed"

    def test_corrupt_artifact_recomputes(self, h2, tmp_path):
        service = MappingService(cache_dir=str(tmp_path))
        pipeline = CompilationPipeline(service=service)
        m = pipeline.compile_one(h2, "jw", "montreal")
        service.store.circuit_path(m.fingerprint).write_text("{ nope")
        again = pipeline.compile_one(h2, "jw", "montreal")
        assert again.source == "computed"
        assert again.artifact() == m.artifact()

    def test_static_kinds_do_not_collide_across_hamiltonians(self, h2, tmp_path):
        """Regression: jw/bk/btt mapping fingerprints are keyed on
        (kind, n_modes) only, but routed circuits depend on the Hamiltonian —
        two same-width cases must not share a circuit artifact."""
        service = MappingService(cache_dir=str(tmp_path))
        pipeline = CompilationPipeline(service=service)
        m_h2 = pipeline.compile_one(h2, "jw", "montreal")
        other = build_case("hubbard:1x2")  # also 4 modes
        m_hub = pipeline.compile_one(other, "jw", "montreal")
        assert m_hub.source == "computed"
        assert m_hub.fingerprint != m_h2.fingerprint
        assert m_hub.routed_cx != m_h2.routed_cx

    def test_no_service_keeps_nothing(self, h2):
        pipeline = CompilationPipeline()
        pipeline.compile_one(h2, "jw", "montreal")
        pipeline.compile_one(h2, "jw", "montreal")
        assert pipeline.stats == {"routed": 2, "circuit_hits": 0}


class TestRoutedMetricsRoundtrip:
    def test_artifact_roundtrip(self, h2):
        m = CompilationPipeline().compile_one(h2, "bk", "manhattan")
        restored = RoutedMetrics.from_artifact(m.artifact())
        assert restored == m  # source is excluded from equality
        assert restored.source == "cache"

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            RoutedMetrics.from_artifact({"circuit_schema": 999})


class TestWithOptions:
    def test_clone_shares_graphs_and_service(self, h2, tmp_path):
        service = MappingService(cache_dir=str(tmp_path))
        base = CompilationPipeline(service=service)
        base.graph("montreal")
        clone = base.with_options(lookahead=8)
        assert clone.options.lookahead == 8
        assert clone.service is service
        assert clone.graph("montreal") is base.graph("montreal")
