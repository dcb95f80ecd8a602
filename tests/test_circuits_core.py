"""Tests for gates, Circuit metrics, and the statevector simulator."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, Gate, gate_matrix
from repro.sim import Statevector


class TestGates:
    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            Gate("foo", (0,))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            Gate("cx", (0,))
        with pytest.raises(ValueError):
            Gate("h", (0, 1))

    def test_identical_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))

    def test_rotation_without_angle_rejected(self):
        with pytest.raises(ValueError, match="takes 1 parameter"):
            Gate("rz", (0,))

    def test_u3_with_one_angle_rejected(self):
        with pytest.raises(ValueError, match="takes 3 parameter"):
            Gate("u3", (0,), (1.0,))

    def test_fixed_gate_with_angle_rejected(self):
        with pytest.raises(ValueError, match="takes 0 parameter"):
            Gate("h", (0,), (1.0,))

    def test_float_qubit_rejected(self):
        with pytest.raises(ValueError, match="must be ints"):
            Gate("cx", (0, 1.5))

    def test_bool_qubit_rejected(self):
        with pytest.raises(ValueError, match="must be ints"):
            Gate("h", (True,))

    def test_add_with_float_qubit_rejected(self):
        with pytest.raises(ValueError, match="must be ints"):
            Circuit(2).add("x", 1.0)

    def test_add_rotation_without_angle_rejected(self):
        """Used to construct, then fail inside ``to_cx_u3`` with "not enough
        values to unpack"."""
        with pytest.raises(ValueError, match="takes 1 parameter"):
            Circuit(2).add("rz", 0)

    def test_all_matrices_unitary(self):
        for name in ["i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx", "cz", "swap"]:
            m = gate_matrix(name)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(len(m)), atol=1e-12)
        for name in ["rx", "ry", "rz"]:
            m = gate_matrix(name, (0.7,))
            np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
        m = gate_matrix("u3", (0.3, 1.1, -0.4))
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_inverse_gates(self):
        for gate in [
            Gate("h", (0,)),
            Gate("s", (0,)),
            Gate("rz", (0,), (0.37,)),
            Gate("u3", (0,), (0.3, 1.0, -0.2)),
            Gate("cx", (0, 1)),
        ]:
            dim = 2 if len(gate.qubits) == 1 else 4
            prod = gate.matrix() @ gate.inverse().matrix()
            np.testing.assert_allclose(prod, np.eye(dim), atol=1e-12)

    def test_hadamard_conjugation_property(self):
        h, x, z = gate_matrix("h"), gate_matrix("x"), gate_matrix("z")
        np.testing.assert_allclose(h @ x @ h, z, atol=1e-12)


class TestCircuit:
    def test_metrics(self):
        c = Circuit(3)
        c.add("h", 0).add("cx", 0, 1).add("cx", 1, 2).add("rz", 2, params=(0.5,))
        assert c.cx_count == 2
        assert c.depth() == 4
        assert len(c) == 4

    def test_depth_parallel_gates(self):
        c = Circuit(4)
        c.add("h", 0).add("h", 1).add("h", 2).add("h", 3)
        assert c.depth() == 1
        c.add("cx", 0, 1).add("cx", 2, 3)
        assert c.depth() == 2

    def test_swap_counts_as_three_cx(self):
        c = Circuit(2)
        c.add("swap", 0, 1)
        assert c.cx_count == 3

    def test_out_of_range_gate(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.add("h", 5)

    def test_inverse_circuit(self):
        c = Circuit(2)
        c.add("h", 0).add("s", 1).add("cx", 0, 1).add("rz", 1, params=(0.3,))
        prod = c.to_matrix() @ c.inverse().to_matrix()
        np.testing.assert_allclose(prod, np.eye(4), atol=1e-12)

    def test_compose(self):
        a = Circuit(2)
        a.add("h", 0)
        b = Circuit(2)
        b.add("cx", 0, 1)
        np.testing.assert_allclose(
            b.compose(a.inverse()).compose(a).to_matrix().shape, (4, 4)
        )


class TestStatevector:
    def test_initial_state(self):
        sv = Statevector(2)
        assert sv.probability(0) == 1.0

    def test_x_flips(self):
        sv = Statevector(2)
        sv.apply(Gate("x", (1,)))
        assert sv.probability(0b10) == pytest.approx(1.0)

    def test_bell_state(self):
        sv = Statevector(2)
        sv.apply(Gate("h", (0,)))
        sv.apply(Gate("cx", (0, 1)))
        assert sv.probability(0b00) == pytest.approx(0.5)
        assert sv.probability(0b11) == pytest.approx(0.5)

    def test_cx_control_orientation(self):
        # cx(control=1, target=0) must not fire on |01> (control qubit 1 is 0).
        sv = Statevector.basis(2, 0b01)
        sv.apply(Gate("cx", (1, 0)))
        assert sv.probability(0b01) == pytest.approx(1.0)
        sv = Statevector.basis(2, 0b10)
        sv.apply(Gate("cx", (1, 0)))
        assert sv.probability(0b11) == pytest.approx(1.0)

    def test_gate_application_matches_kron(self):
        """Random circuit vs explicit kron matrices on 3 qubits."""
        rng = np.random.default_rng(8)
        eye = np.eye(2)
        for _ in range(20):
            sv = Statevector(3)
            full = np.eye(8, dtype=complex)
            for _ in range(6):
                if rng.random() < 0.5:
                    q = int(rng.integers(3))
                    name = ["h", "s", "x", "t"][int(rng.integers(4))]
                    sv.apply(Gate(name, (q,)))
                    mats = [eye] * 3
                    mats[2 - q] = gate_matrix(name)
                    full = np.kron(np.kron(mats[0], mats[1]), mats[2]) @ full
                else:
                    q0, q1 = rng.permutation(3)[:2]
                    sv.apply(Gate("cx", (int(q0), int(q1))))
                    m = np.zeros((8, 8), dtype=complex)
                    for b in range(8):
                        if (b >> q0) & 1:
                            m[b ^ (1 << int(q1)), b] = 1
                        else:
                            m[b, b] = 1
                    full = m @ full
            expected = full[:, 0]
            np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-12)

    def test_apply_pauli_matches_matrix(self):
        from repro.paulis import PauliString

        rng = np.random.default_rng(3)
        for _ in range(10):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(3))
            p = PauliString.from_label(label, phase=int(rng.integers(4)))
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            sv = Statevector(3, amps.copy())
            sv.apply_pauli(p)
            np.testing.assert_allclose(sv.amplitudes, p.to_matrix() @ amps, atol=1e-12)

    def test_expectation(self):
        from repro.paulis import QubitOperator

        sv = Statevector(2)
        sv.apply(Gate("h", (0,)))
        op = QubitOperator.from_label_dict({"IX": 1.0, "IZ": 1.0, "ZI": 2.0})
        assert sv.expectation(op) == pytest.approx(1.0 + 0.0 + 2.0)
