"""Exact density-matrix oracle with depolarizing channels (test-only).

The Monte-Carlo trajectory sampler in :mod:`repro.sim.noise` is the scalable
path (the paper's 1000-shot protocol); this module evolves the full density
matrix through the *exact* noise channels instead, for small systems.
``test_density.py`` uses it to verify that the trajectory sampler is an
unbiased estimator of the true noisy expectation values.

Channel semantics match the sampler: after every gate, each gate-class error
fires with probability ``p`` and applies a uniformly random non-identity
Pauli on the gate's qubits:

    E(ρ) = (1-p)·ρ + p/(4^k - 1) · Σ_{P≠I} P ρ P†      (k = gate arity)
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.circuits import Circuit, Gate
from repro.paulis import QubitOperator
from repro.sim import NoiseModel, Statevector


class DensityMatrix:
    """A ``2^n × 2^n`` density matrix with gate and channel application."""

    def __init__(self, n_qubits: int, rho: np.ndarray | None = None):
        self.n = n_qubits
        dim = 1 << n_qubits
        if rho is None:
            rho = np.zeros((dim, dim), dtype=complex)
            rho[0, 0] = 1.0
        self.rho = np.asarray(rho, dtype=complex)
        if self.rho.shape != (dim, dim):
            raise ValueError("density matrix has wrong shape")

    @classmethod
    def from_statevector(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        amplitudes = np.asarray(amplitudes, dtype=complex)
        n = int(np.log2(len(amplitudes)))
        return cls(n, np.outer(amplitudes, amplitudes.conj()))

    # ------------------------------------------------------------------
    # Unitary and channel application
    # ------------------------------------------------------------------
    def _full_unitary(self, gate: Gate) -> np.ndarray:
        """Embed a gate into the full Hilbert space (small n only)."""
        dim = 1 << self.n
        out = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            sv = Statevector.basis(self.n, col)
            sv.apply(gate)
            out[:, col] = sv.amplitudes
        return out

    def apply_gate(self, gate: Gate) -> None:
        u = self._full_unitary(gate)
        self.rho = u @ self.rho @ u.conj().T

    def apply_depolarizing(self, qubits: tuple[int, ...], p: float) -> None:
        """The uniform Pauli-error channel on ``qubits`` with probability ``p``."""
        if p <= 0.0:
            return
        letters = ["i", "x", "y", "z"]
        errors = [
            combo
            for combo in itertools.product(letters, repeat=len(qubits))
            if any(c != "i" for c in combo)
        ]
        acc = (1.0 - p) * self.rho
        share = p / len(errors)
        for combo in errors:
            u = np.eye(1 << self.n, dtype=complex)
            for letter, q in zip(combo, qubits):
                if letter != "i":
                    u = self._full_unitary(Gate(letter, (q,))) @ u
            acc = acc + share * (u @ self.rho @ u.conj().T)
        self.rho = acc

    def apply_noisy_circuit(self, circuit: Circuit, noise: NoiseModel) -> None:
        """Exact counterpart of the Monte-Carlo trajectory semantics."""
        noise.validate()
        for gate in circuit.gates:
            self.apply_gate(gate)
            if gate.is_two_qubit:
                self.apply_depolarizing(gate.qubits, noise.p2)
            else:
                self.apply_depolarizing(gate.qubits, noise.p1)

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    def expectation(self, op: QubitOperator) -> float:
        return float(np.real(np.trace(op.to_matrix() @ self.rho)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))
