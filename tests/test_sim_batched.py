"""Property and cross-engine tests for the dense simulation engines.

Covers the single-state :class:`Statevector` and the vectorized
:class:`BatchedStatevector` against an *independent* dense-unitary model
built directly from ``gate.matrix()`` entries (kron products for 1q gates,
explicit bit-indexed embedding for arbitrary 2q placements), the masked
Pauli-error kernel against per-trajectory ``apply_pauli``, the packed-table
expectation kernel against the per-string reference, and the batched noisy
trajectory engine against the scalar loop of ``tests/reference/noise.py`` —
including bit-identity of that loop with golden values recorded from the
original implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, Gate, trotter_circuit
from repro.paulis import PauliString, QubitOperator
from repro.sim import (
    BatchedStatevector,
    NoiseModel,
    Statevector,
    noisy_expectations,
)

from reference.noise import (
    scalar_noisy_energy_experiment,
    scalar_noisy_expectations,
    strings_expectation,
)

# ----------------------------------------------------------------------
# Independent dense-unitary model (kron products from gate.matrix())
# ----------------------------------------------------------------------


def embed_1q(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    """``I ⊗ … ⊗ mat ⊗ … ⊗ I`` with ``mat`` at qubit ``q`` (qubit 0 = LSB)."""
    return np.kron(np.eye(1 << (n - q - 1)), np.kron(mat, np.eye(1 << q)))


def embed_2q(mat: np.ndarray, q0: int, q1: int, n: int) -> np.ndarray:
    """Embed a two-qubit matrix indexed ``(q0, q1)``, q0 most significant of
    the pair, at an arbitrary (possibly non-adjacent, possibly reversed)
    qubit placement — built entry-by-entry from basis-state bit arithmetic,
    sharing no code with the simulators."""
    m4 = mat.reshape(2, 2, 2, 2)  # [q0', q1', q0, q1]
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    clear = ~((1 << q0) | (1 << q1))
    for col in range(dim):
        b0, b1 = (col >> q0) & 1, (col >> q1) & 1
        base = col & clear
        for o0 in (0, 1):
            for o1 in (0, 1):
                amp = m4[o0, o1, b0, b1]
                if amp != 0:
                    out[base | (o0 << q0) | (o1 << q1), col] += amp
    return out


def embed_gate(gate: Gate, n: int) -> np.ndarray:
    if len(gate.qubits) == 1:
        return embed_1q(gate.matrix(), gate.qubits[0], n)
    return embed_2q(gate.matrix(), gate.qubits[0], gate.qubits[1], n)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_ANGLES = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)
_PARAM_COUNT = {"rx": 1, "ry": 1, "rz": 1, "u3": 3}


@st.composite
def random_circuits(draw, max_qubits=6, max_gates=10):
    """Random circuits mixing 1q gates with adjacent and non-adjacent 2q
    placements (both qubit orders)."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    gates = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        if n >= 2 and draw(st.booleans()):
            name = draw(st.sampled_from(["cx", "cz", "swap"]))
            qubits = tuple(
                draw(
                    st.lists(
                        st.integers(0, n - 1), min_size=2, max_size=2, unique=True
                    )
                )
            )
            gates.append(Gate(name, qubits))
        else:
            name = draw(
                st.sampled_from(
                    ["x", "y", "z", "h", "s", "sdg", "t", "rx", "ry", "rz", "u3"]
                )
            )
            params = tuple(
                draw(_ANGLES) for _ in range(_PARAM_COUNT.get(name, 0))
            )
            gates.append(Gate(name, (draw(st.integers(0, n - 1)),), params))
    return Circuit(n, gates)


@st.composite
def random_states(draw, n):
    """A normalized random statevector with hypothesis-drawn entries."""
    dim = 1 << n
    res = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False), min_size=2 * dim, max_size=2 * dim
        )
    )
    amps = np.array(res[:dim]) + 1j * np.array(res[dim:])
    norm = np.linalg.norm(amps)
    if norm < 1e-6:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        norm = 1.0
    return amps / norm


@st.composite
def random_operators(draw, n):
    """Random Hermitian-coefficient operators on ``n`` qubits."""
    n_terms = draw(st.integers(min_value=1, max_value=6))
    labels = {}
    for _ in range(n_terms):
        label = "".join(
            draw(st.sampled_from("IXYZ")) for _ in range(n)
        )
        labels[label] = draw(st.floats(-2, 2, allow_nan=False))
    return QubitOperator.from_label_dict(labels)


# ----------------------------------------------------------------------
# Gate-by-gate unitary equivalence
# ----------------------------------------------------------------------


class TestGateApplication:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_both_engines_match_dense_unitary(self, data):
        circuit = data.draw(random_circuits())
        n = circuit.n_qubits
        init = data.draw(random_states(n))
        expected = init.copy()
        scalar = Statevector(n, init.copy())
        batch = BatchedStatevector(n, np.stack([init, init.conj()]))
        for gate in circuit.gates:
            expected = embed_gate(gate, n) @ expected
            scalar.apply(gate)
            batch.apply(gate)
        np.testing.assert_allclose(scalar.amplitudes, expected, atol=1e-10)
        np.testing.assert_allclose(batch.amplitudes[0], expected, atol=1e-10)

    @pytest.mark.parametrize("name", ["cx", "cz", "swap"])
    @pytest.mark.parametrize(
        "q0,q1", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 0), (3, 1)]
    )
    def test_two_qubit_placements(self, name, q0, q1):
        """Adjacent, non-adjacent and reversed 2q placements on 4 qubits."""
        n = 4
        rng = np.random.default_rng(hash((name, q0, q1)) % 2**32)
        init = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        init /= np.linalg.norm(init, axis=1, keepdims=True)
        gate = Gate(name, (q0, q1))
        u = embed_2q(gate.matrix(), q0, q1, n)
        batch = BatchedStatevector(n, init.copy())
        batch.apply(gate)
        for t in range(3):
            scalar = Statevector(n, init[t].copy())
            scalar.apply(gate)
            np.testing.assert_allclose(scalar.amplitudes, u @ init[t], atol=1e-12)
            np.testing.assert_allclose(batch.amplitudes[t], u @ init[t], atol=1e-12)

    def test_batch_rows_are_independent(self):
        batch = BatchedStatevector.zeros_state(2, 3)
        batch.apply_masked_paulis(
            np.array([1]), np.array([1], dtype=np.uint64), np.array([0], dtype=np.uint64)
        )
        assert batch.amplitudes[0, 0] == 1.0
        assert batch.amplitudes[1, 1] == 1.0
        assert batch.amplitudes[2, 0] == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchedStatevector(2, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            BatchedStatevector(2, np.zeros((3, 5), dtype=complex))

    def test_helpers(self):
        init = Statevector(2, np.array([0.6, 0.8j, 0.0, 0.0]))
        batch = BatchedStatevector.from_statevector(init, 3)
        assert batch.n_traj == 3
        assert "n_traj=3" in repr(batch)
        np.testing.assert_allclose(batch.norms(), 1.0)
        clone = batch.copy()
        clone.apply(Gate("x", (0,)))
        # Copies share no storage with the original.
        np.testing.assert_allclose(batch.row(0).amplitudes, init.amplitudes)
        assert not np.allclose(clone.amplitudes[0], batch.amplitudes[0])
        with pytest.raises(ValueError):
            BatchedStatevector.zeros_state(2, 1).expectations(
                QubitOperator.from_label_dict({"ZZ": 1.0}).to_table()[0]
            )


# ----------------------------------------------------------------------
# Masked Pauli errors vs per-trajectory gates
# ----------------------------------------------------------------------


class TestMaskedPaulis:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_apply_pauli(self, data):
        n = data.draw(st.integers(1, 5))
        n_traj = data.draw(st.integers(1, 4))
        init = np.stack([data.draw(random_states(n)) for _ in range(n_traj)])
        rows = data.draw(
            st.lists(st.integers(0, n_traj - 1), max_size=n_traj, unique=True)
        )
        masks = [
            (data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, (1 << n) - 1)))
            for _ in rows
        ]
        batch = BatchedStatevector(n, init.copy())
        batch.apply_masked_paulis(
            np.array(rows, dtype=np.intp),
            np.array([x for x, _ in masks], dtype=np.uint64),
            np.array([z for _, z in masks], dtype=np.uint64),
        )
        expected = init.copy()
        for t, (x, z) in zip(rows, masks):
            sv = Statevector(n, init[t].copy())
            sv.apply_pauli(PauliString(n, x, z))
            expected[t] = sv.amplitudes
        np.testing.assert_allclose(batch.amplitudes, expected, atol=1e-12)


# ----------------------------------------------------------------------
# Bulk expectation kernel
# ----------------------------------------------------------------------


class TestBulkExpectations:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_kernel_matches_strings(self, data):
        n = data.draw(st.integers(1, 5))
        op = data.draw(random_operators(n))
        n_traj = data.draw(st.integers(1, 3))
        amps = np.stack([data.draw(random_states(n)) for _ in range(n_traj)])
        batch_vals = BatchedStatevector(n, amps.copy()).expectations(op)
        for t in range(n_traj):
            sv = Statevector(n, amps[t].copy())
            ref = strings_expectation(sv, op)
            assert sv.expectation(op) == pytest.approx(ref, abs=1e-10)
            assert batch_vals[t] == pytest.approx(ref, abs=1e-10)

    def test_kernel_matches_dense_matrix(self):
        op = QubitOperator.from_label_dict(
            {"XYZ": 0.3, "ZZI": -0.7, "III": 0.2, "IYX": 1.1}
        )
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        dense = np.vdot(amps, op.to_matrix() @ amps).real
        assert Statevector(3, amps).expectation(op) == pytest.approx(dense, abs=1e-10)

    def test_rejects_unknown_backend(self):
        # One expectation engine; backend= is an unexpected keyword.
        op = QubitOperator.from_label_dict({"ZZ": 1.0})
        with pytest.raises(TypeError, match="backend"):
            Statevector(2).expectation(op, backend="sparse")

    def test_rejects_qubit_mismatch(self):
        op = QubitOperator.from_label_dict({"Z": 1.0})
        with pytest.raises(ValueError):
            Statevector(2).expectation(op)
        with pytest.raises(ValueError):
            BatchedStatevector.zeros_state(2, 1).expectations(op)


# ----------------------------------------------------------------------
# Cross-engine trajectory equivalence
# ----------------------------------------------------------------------


class TestCrossBackend:
    def setup_method(self):
        self.h = QubitOperator.from_label_dict({"ZI": 1.0, "IZ": 1.0, "XX": 0.3})
        self.circuit = trotter_circuit(self.h, time=0.4)

    def test_scalar_backend_bit_identical_to_original(self):
        """Golden values recorded from the pre-batching implementation
        (PR 1 HEAD).  Bit-identity (exact ==) was verified at recording time
        in the pinned environment; the asserts use a last-ulp-scale relative
        tolerance only so that a numpy/BLAS build with a different reduction
        order cannot break CI, while any implementation change still fails."""
        res = scalar_noisy_expectations(
            self.circuit,
            self.h,
            NoiseModel(p1=5e-3, p2=5e-2),
            shots=40,
            seed=123,
        )
        assert res.noiseless == pytest.approx(1.9938311777711542, rel=1e-12)
        assert float(res.energies.sum()) == pytest.approx(67.99488095648762, rel=1e-12)
        assert float(res.energies[5]) == pytest.approx(0.05115522806709565, rel=1e-12)

    def test_backends_agree_statistically(self):
        nm = NoiseModel(p1=5e-3, p2=5e-2)
        shots = 3000
        batched = noisy_expectations(self.circuit, self.h, nm, shots=shots, seed=1)
        scalar = scalar_noisy_expectations(self.circuit, self.h, nm, shots=shots, seed=1)
        assert batched.noiseless == pytest.approx(scalar.noiseless, abs=1e-10)
        stderr = np.sqrt(
            batched.variance / shots + scalar.variance / shots
        )
        assert abs(batched.mean - scalar.mean) < 5 * stderr + 1e-12

    def test_chunking_is_invariant(self):
        nm = NoiseModel(p1=1e-2, p2=5e-2)
        base = noisy_expectations(self.circuit, self.h, nm, shots=97, seed=3)
        for chunk in (1, 7, 32, 97, 1000):
            again = noisy_expectations(
                self.circuit, self.h, nm, shots=97, seed=3, chunk=chunk
            )
            np.testing.assert_array_equal(base.energies, again.energies)

    def test_zero_noise_is_exact(self):
        res = noisy_expectations(self.circuit, self.h, NoiseModel(), shots=10)
        assert res.bias == pytest.approx(0.0, abs=1e-12)
        assert res.variance == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        nm = NoiseModel(p1=1e-3, p2=1e-2)
        a = noisy_expectations(self.circuit, self.h, nm, shots=50, seed=7)
        b = noisy_expectations(self.circuit, self.h, nm, shots=50, seed=7)
        np.testing.assert_array_equal(a.energies, b.energies)

    def test_rejects_bad_arguments(self):
        nm = NoiseModel(p1=1e-3)
        with pytest.raises(ValueError):
            noisy_expectations(self.circuit, self.h, nm, shots=5, chunk=0)
        with pytest.raises(TypeError, match="backend"):
            noisy_expectations(self.circuit, self.h, nm, shots=5, backend="aer")


class TestCrossBackendH2:
    def test_fig10_cell_backends_agree(self):
        """Batched vs legacy engine on an H2 Fig.-10 cell, same seed: mean
        energies agree within statistical tolerance, and the scalar path
        reproduces the pre-batching golden numbers exactly."""
        from repro.analysis import noisy_energy_experiment
        from repro.mappings import jordan_wigner
        from repro.models.electronic import electronic_case

        case = electronic_case("H2_sto3g")
        mapping = jordan_wigner(4)
        nm = NoiseModel(p1=1e-4, p2=1e-3)
        scalar = scalar_noisy_energy_experiment(case, mapping, nm, shots=60, seed=5)
        # Golden values recorded from the pre-batching implementation (exact
        # == verified at recording time; see the tolerance note above).
        assert scalar.mean == pytest.approx(-1.0823764129957036, rel=1e-12)
        assert scalar.noiseless == pytest.approx(-1.1167734260601114, rel=1e-12)
        assert scalar.bias == pytest.approx(0.03439701306440779, rel=1e-9)
        assert scalar.variance == pytest.approx(0.0411045429293576, rel=1e-9)

        shots = 600
        batched = noisy_energy_experiment(case, mapping, nm, shots=shots, seed=5)
        scalar_big = scalar_noisy_energy_experiment(
            case, mapping, nm, shots=shots, seed=5
        )
        assert batched.noiseless == pytest.approx(scalar_big.noiseless, abs=1e-9)
        stderr = np.sqrt((batched.variance + scalar_big.variance) / shots)
        assert abs(batched.mean - scalar_big.mean) < 5 * stderr + 1e-12
