"""Tests for the exact density-matrix simulator and the MC-noise cross-check."""

import numpy as np
import pytest

from repro.circuits import Circuit, Gate, trotter_circuit
from repro.paulis import QubitOperator
from repro.sim import NoiseModel, Statevector, noisy_expectations

from density import DensityMatrix


def op_from(labels):
    return QubitOperator.from_label_dict(labels)


class TestBasics:
    def test_initial_state(self):
        dm = DensityMatrix(2)
        assert dm.trace() == pytest.approx(1.0)
        assert dm.purity() == pytest.approx(1.0)
        assert dm.rho[0, 0] == pytest.approx(1.0)

    def test_from_statevector(self):
        sv = Statevector(2)
        sv.apply(Gate("h", (0,)))
        dm = DensityMatrix.from_statevector(sv.amplitudes)
        assert dm.purity() == pytest.approx(1.0)
        assert dm.expectation(op_from({"IX": 1.0})) == pytest.approx(1.0)

    def test_unitary_gate_matches_statevector(self):
        circuit = Circuit(2)
        circuit.add("h", 0).add("cx", 0, 1).add("t", 1).add("rz", 0, params=(0.4,))
        sv = Statevector(2).apply_circuit(circuit)
        dm = DensityMatrix(2)
        for gate in circuit.gates:
            dm.apply_gate(gate)
        np.testing.assert_allclose(
            dm.rho, np.outer(sv.amplitudes, sv.amplitudes.conj()), atol=1e-12
        )


class TestChannels:
    def test_full_depolarizing_single_qubit(self):
        """p=1 uniform Pauli channel sends Bloch vector to -r/3."""
        dm = DensityMatrix(1)
        dm.apply_gate(Gate("h", (0,)))  # +X eigenstate
        dm.apply_depolarizing((0,), 1.0)
        x = dm.expectation(op_from({"X": 1.0}))
        assert x == pytest.approx(-1.0 / 3.0)

    def test_trace_preserved(self):
        dm = DensityMatrix(2)
        dm.apply_gate(Gate("h", (0,)))
        dm.apply_depolarizing((0, 1), 0.37)
        assert dm.trace() == pytest.approx(1.0)

    def test_purity_decreases(self):
        dm = DensityMatrix(2)
        dm.apply_gate(Gate("h", (0,)))
        before = dm.purity()
        dm.apply_depolarizing((0,), 0.2)
        assert dm.purity() < before

    def test_zero_probability_noop(self):
        dm = DensityMatrix(1)
        rho = dm.rho.copy()
        dm.apply_depolarizing((0,), 0.0)
        np.testing.assert_allclose(dm.rho, rho)


class TestMonteCarloAgreement:
    def test_trajectories_unbiased(self):
        """The MC sampler's mean energy converges to the exact channel value."""
        h = op_from({"ZI": 1.0, "IZ": 1.0, "XX": 0.4})
        circuit = trotter_circuit(h, time=0.6)
        noise = NoiseModel(p1=0.02, p2=0.08)
        dm = DensityMatrix(2)
        dm.apply_noisy_circuit(circuit, noise)
        exact = dm.expectation(h)
        mc = noisy_expectations(circuit, h, noise, shots=4000, seed=3)
        assert mc.mean == pytest.approx(exact, abs=0.05)

    def test_noiseless_agreement_exact(self):
        h = op_from({"ZZ": 0.5, "XI": 0.3})
        circuit = trotter_circuit(h, time=0.5)
        dm = DensityMatrix(2)
        dm.apply_noisy_circuit(circuit, NoiseModel())
        mc = noisy_expectations(circuit, h, NoiseModel(), shots=3)
        assert dm.expectation(h) == pytest.approx(mc.mean, abs=1e-9)


class TestSuzukiOrder2:
    def test_second_order_more_accurate(self):
        from scipy.linalg import expm

        h = op_from({"XI": 0.8, "ZZ": 0.6, "IY": -0.5})
        exact = expm(-1j * h.to_matrix())

        def error(suzuki_order):
            u = trotter_circuit(h, time=1.0, steps=2,
                                suzuki_order=suzuki_order).to_matrix()
            phase = np.trace(exact.conj().T @ u)
            u = u * (phase.conjugate() / abs(phase))
            return np.linalg.norm(u - exact, ord=2)

        assert error(2) < error(1)

    def test_second_order_scaling(self):
        """Error ~ 1/steps² for the Strang splitting."""
        from scipy.linalg import expm

        h = op_from({"XX": 0.9, "ZI": 0.7})
        exact = expm(-1j * h.to_matrix())

        def err(steps):
            u = trotter_circuit(h, time=1.0, steps=steps, suzuki_order=2).to_matrix()
            phase = np.trace(exact.conj().T @ u)
            u = u * (phase.conjugate() / abs(phase))
            return np.linalg.norm(u - exact, ord=2)

        assert err(4) < err(1) / 8  # quadratic would give /16; allow slack

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            trotter_circuit(op_from({"Z": 1.0}), suzuki_order=3)
