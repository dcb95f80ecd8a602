"""Tests for noise models, noisy trajectories, and state preparation."""

import numpy as np
import pytest

from repro.circuits import Circuit, trotter_circuit
from repro.hatt import hatt_mapping
from repro.mappings import balanced_ternary_tree, bravyi_kitaev, jordan_wigner
from repro.models.electronic import electronic_case
from repro.paulis import QubitOperator
from repro.sim import (
    NoiseModel,
    Statevector,
    ionq_forte_noise_model,
    noisy_expectations,
    occupation_state_circuit,
    occupation_statevector,
)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=-0.1).validate()
        with pytest.raises(ValueError):
            NoiseModel(p2=1.5).validate()
        NoiseModel(p1=0.01, p2=0.05).validate()

    def test_ionq_forte_rates(self):
        nm = ionq_forte_noise_model()
        assert nm.p1 == pytest.approx(0.0002)
        assert nm.p2 == pytest.approx(0.0101)


class TestNoisyExpectations:
    def setup_method(self):
        self.h = QubitOperator.from_label_dict({"ZI": 1.0, "IZ": 1.0, "XX": 0.3})
        self.circuit = trotter_circuit(self.h, time=0.4)

    def test_zero_noise_zero_bias(self):
        res = noisy_expectations(self.circuit, self.h, NoiseModel(), shots=20)
        assert res.bias == pytest.approx(0.0, abs=1e-12)
        assert res.variance == pytest.approx(0.0, abs=1e-12)

    def test_noise_increases_bias_and_variance(self):
        low = noisy_expectations(
            self.circuit, self.h, NoiseModel(p1=1e-4, p2=1e-3), shots=300, seed=1
        )
        high = noisy_expectations(
            self.circuit, self.h, NoiseModel(p1=1e-2, p2=1e-1), shots=300, seed=1
        )
        assert high.bias > low.bias
        assert high.variance > low.variance

    def test_energy_conserved_noiselessly(self):
        """e^{-iHt} preserves ⟨H⟩ exactly when the Trotterization is exact
        (commuting terms) — the experiment's theoretical reference."""
        h = QubitOperator.from_label_dict({"ZI": 1.0, "IZ": 1.0, "ZZ": 0.3})
        circuit = trotter_circuit(h, time=0.4)
        e0 = Statevector(2).expectation(h)
        res = noisy_expectations(circuit, h, NoiseModel(), shots=5)
        assert res.noiseless == pytest.approx(e0, abs=1e-9)

    def test_deterministic_given_seed(self):
        nm = NoiseModel(p1=1e-3, p2=1e-2)
        a = noisy_expectations(self.circuit, self.h, nm, shots=50, seed=7)
        b = noisy_expectations(self.circuit, self.h, nm, shots=50, seed=7)
        np.testing.assert_allclose(a.energies, b.energies)


class TestStatePrep:
    @pytest.mark.parametrize(
        "factory", [jordan_wigner, bravyi_kitaev, balanced_ternary_tree]
    )
    def test_occupation_numbers(self, factory):
        mapping = factory(4)
        occupied = [1, 3]
        state = occupation_statevector(mapping, occupied)
        for mode in range(4):
            n_op = mapping.mode_number_operator(mode)
            expected = 1.0 if mode in occupied else 0.0
            assert state.expectation(n_op) == pytest.approx(expected, abs=1e-9)

    def test_jw_prep_is_x_gates(self):
        mapping = jordan_wigner(3)
        circuit = occupation_state_circuit(mapping, [0, 2])
        assert all(g.name in ("x", "z") for g in circuit.gates)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            occupation_state_circuit(jordan_wigner(2), [5])

    def test_hf_energy_matches_scf_for_all_mappings(self):
        """⟨HF|H_Q|HF⟩ == E_SCF through the full prep+map pipeline."""
        case = electronic_case("H2_sto3g")
        occ = [0, 2]  # blocked ordering: 1 alpha + 1 beta electron
        for factory in (jordan_wigner, bravyi_kitaev, balanced_ternary_tree):
            mapping = factory(4)
            hq = mapping.map(case.hamiltonian)
            state = occupation_statevector(mapping, occ)
            assert state.expectation(hq) == pytest.approx(
                case.scf_energy, abs=1e-8
            ), mapping.name
        hatt = hatt_mapping(case.hamiltonian, n_modes=4)
        hq = hatt.map(case.hamiltonian)
        state = occupation_statevector(hatt, occ)
        assert state.expectation(hq) == pytest.approx(case.scf_energy, abs=1e-8)

    def test_fewer_gates_for_vacuum_preserving_low_weight(self):
        """State-prep cost equals the summed weight of even Majorana strings."""
        mapping = jordan_wigner(5)
        circuit = occupation_state_circuit(mapping, [0, 1, 2])
        expected = sum(mapping.majorana(2 * j).weight for j in range(3))
        assert len(circuit) == expected
