"""End-to-end integration tests across the whole stack.

Each test exercises a full user workflow: model → mapping → qubit
Hamiltonian → (circuit | simulation | serialization), with
physics invariants as the oracle.
"""

import numpy as np
import pytest

from repro import hatt_mapping, jordan_wigner
from repro.analysis import evaluate_mapping
from repro.circuits import to_cx_u3, trotter_circuit
from repro.mappings import load_mapping, save_mapping
from repro.models import fermi_hubbard, hubbard_case
from repro.models.electronic import electronic_case
from repro.sim import (
    NoiseModel,
    Statevector,
    noisy_expectations,
    occupation_statevector,
)


class TestHubbardWorkflow:
    def test_map_compile_simulate(self):
        """Map a 1x2 Hubbard model, compile a Trotter circuit, simulate it,
        and verify energy conservation for the exactly-commuting part."""
        h = fermi_hubbard(1, 2, t=1.0, u=4.0)
        mapping = hatt_mapping(h)
        hq = mapping.map(h)
        assert hq.is_hermitian()

        # Start from the half-filled determinant and evolve.
        state = occupation_statevector(mapping, [0, 3])  # up on site0, down on site1
        e_start = state.expectation(hq)
        circuit = to_cx_u3(trotter_circuit(hq, time=0.05, steps=4))
        state.apply_circuit(circuit)
        e_end = state.expectation(hq)
        # Trotter error at dt=0.0125 is tiny; energy nearly conserved.
        assert e_end == pytest.approx(e_start, abs=1e-2)


class TestMoleculeWorkflow:
    def test_h2_full_stack(self):
        """Molecule → SCF → HATT → save/load → HF state → exact energy."""
        case = electronic_case("H2_sto3g")
        mapping = hatt_mapping(case.hamiltonian, n_modes=case.n_modes)
        hq = mapping.map(case.hamiltonian)
        assert hq.pauli_weight() == 32  # paper Table I

        # Serialization round-trip mid-pipeline.
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h2_hatt.json"
            save_mapping(mapping, path)
            mapping = load_mapping(path)

        state = occupation_statevector(mapping, case.hf_occupation)
        energy = state.expectation(mapping.map(case.hamiltonian))
        assert energy == pytest.approx(case.scf_energy, abs=1e-9)

    def test_report_consistency(self):
        """evaluate_mapping's numbers agree with direct computation."""
        case = electronic_case("H2_sto3g")
        mapping = jordan_wigner(4)
        report = evaluate_mapping(case.hamiltonian, mapping)
        hq = mapping.map(case.hamiltonian)
        assert report.pauli_weight == hq.pauli_weight()
        circuit = to_cx_u3(trotter_circuit(hq))
        assert report.cx_count == circuit.cx_count
        assert report.depth == circuit.depth()


class TestNoiseWorkflow:
    def test_mapping_ranking_under_noise(self):
        """A heavier mapping (BTT on H2) can't beat the lighter ones by more
        than statistical noise at high error rates."""
        case = electronic_case("H2_sto3g")
        noise = NoiseModel(p1=5e-4, p2=5e-3)
        results = {}
        for factory in (jordan_wigner,):
            mapping = factory(4)
            hq = mapping.map(case.hamiltonian)
            circuit = to_cx_u3(trotter_circuit(hq, time=0.1))
            res = noisy_expectations(circuit, hq, noise, shots=200, seed=4)
            results[mapping.name] = res
        assert results["JW"].variance > 0

    def test_noiseless_circuit_matches_statevector(self):
        h = hubbard_case("1x2")
        mapping = jordan_wigner(4)
        hq = mapping.map(h)
        circuit = trotter_circuit(hq, time=0.3)
        res = noisy_expectations(circuit, hq, NoiseModel(), shots=2)
        direct = Statevector(4).apply_circuit(circuit).expectation(hq)
        assert res.mean == pytest.approx(direct, abs=1e-10)


class TestCrossMappingInvariants:
    @pytest.mark.parametrize("geometry", ["1x2", "2x2"])
    def test_spectra_agree_all_mappings(self, geometry):
        h = hubbard_case(geometry)
        n = h.n_modes
        if n > 8:
            pytest.skip("dense check too large")
        from repro.mappings import balanced_ternary_tree, bravyi_kitaev

        ref = np.linalg.eigvalsh(jordan_wigner(n).map(h).to_matrix())
        for factory in (bravyi_kitaev, balanced_ternary_tree):
            ev = np.linalg.eigvalsh(factory(n).map(h).to_matrix())
            np.testing.assert_allclose(ev, ref, atol=1e-8)
        hatt = hatt_mapping(h, n_modes=n)
        ev = np.linalg.eigvalsh(hatt.map(h).to_matrix())
        np.testing.assert_allclose(ev, ref, atol=1e-8)

    def test_vacuum_energy_identical(self):
        """⟨vac|H|vac⟩ is mapping-independent for vacuum-preserving maps."""
        h = hubbard_case("2x2")
        from repro.mappings import balanced_ternary_tree, bravyi_kitaev

        values = []
        for mapping in (
            jordan_wigner(8),
            bravyi_kitaev(8),
            balanced_ternary_tree(8),
            hatt_mapping(h, n_modes=8),
        ):
            hq = mapping.map(h)
            values.append(hq.expectation_basis_state(0).real)
        assert max(values) - min(values) < 1e-9


def test_package_version_matches_pyproject():
    import tomllib
    from pathlib import Path

    import repro

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == repro.__version__
