"""Batched dense statevector engine for bulk trajectory simulation.

A :class:`BatchedStatevector` holds a ``(n_traj, 2^n)`` complex amplitude
matrix — one dense statevector per row — and applies every gate **once**
across all trajectories with reshaped einsum kernels, instead of looping a
scalar simulator per trajectory.  This is the engine behind
:func:`repro.sim.noise.noisy_expectations`:

* **Gates** — a single-qubit gate contracts against the ``(traj, high, 2,
  low)`` view of the batch; a two-qubit gate against the six-axis
  ``(traj, a, 2, b, 2, c)`` view, so the per-gate cost is one BLAS-free
  einsum over the whole batch regardless of trajectory count.
* **Pauli errors** — stochastic noise is injected with
  :meth:`apply_masked_paulis`: an arbitrary Pauli ``(x, z)`` error on an
  arbitrary subset of trajectories is one permuted gather (the X part
  re-indexes basis states by ``b ^ x``) times a ``±1`` sign vector (the Z
  part) and the exact ``i^{pc(x & z)}`` phase — no per-trajectory ``Gate``
  objects are ever constructed.
* **Observables** — expectation values are evaluated in bulk against packed
  :class:`repro.paulis.PauliTable` rows via
  :meth:`PauliTable.expectation_values`, one sign-weighted inner product per
  Hamiltonian term across all trajectories.

Amplitude ordering matches :class:`repro.sim.Statevector` (qubit 0 is the
least-significant basis bit), and the two engines are cross-checked
gate-by-gate by the Hypothesis suite in ``tests/test_sim_batched.py``.

Memory model: the batch owns ``n_traj × 2^n`` complex amplitudes (16 bytes
each).  Callers that need many more trajectories than fit in memory chunk
over trajectories — see ``noisy_expectations(chunk=...)``, which bounds the
resident batch while keeping results exactly chunk-size-invariant.
"""

from __future__ import annotations

import numpy as np

from ..circuits.gates import Gate
from ..paulis import QubitOperator
from .statevector import Statevector

__all__ = ["BatchedStatevector", "CHUNK_AMPLITUDE_BUDGET"]

#: Default resident amplitude budget for chunked batch workloads: 2^22
#: complex amplitudes = 64 MiB per chunk.
CHUNK_AMPLITUDE_BUDGET = 1 << 22


class BatchedStatevector:
    """``n_traj`` mutable dense statevectors on ``n_qubits`` qubits."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        self.n = n_qubits
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] != 1 << n_qubits:
            raise ValueError(
                f"expected a (n_traj, {1 << n_qubits}) amplitude matrix, "
                f"got shape {self.amplitudes.shape}"
            )

    @classmethod
    def from_statevector(cls, state: Statevector, n_traj: int) -> "BatchedStatevector":
        """``n_traj`` copies of one initial state (rows share no storage)."""
        return cls(state.n, np.tile(state.amplitudes, (n_traj, 1)))

    @classmethod
    def zeros_state(cls, n_qubits: int, n_traj: int) -> "BatchedStatevector":
        """``n_traj`` copies of ``|0…0⟩``."""
        amps = np.zeros((n_traj, 1 << n_qubits), dtype=complex)
        amps[:, 0] = 1.0
        return cls(n_qubits, amps)

    @property
    def n_traj(self) -> int:
        return self.amplitudes.shape[0]

    def copy(self) -> "BatchedStatevector":
        return BatchedStatevector(self.n, self.amplitudes.copy())

    def row(self, t: int) -> Statevector:
        """Trajectory ``t`` as a scalar :class:`Statevector` (copied)."""
        return Statevector(self.n, self.amplitudes[t].copy())

    # ------------------------------------------------------------------
    # Gate application (all trajectories at once)
    # ------------------------------------------------------------------
    def apply(self, gate: Gate) -> None:
        mat = gate.matrix()
        if len(gate.qubits) == 1:
            self._apply_1q(mat, gate.qubits[0])
        else:
            self._apply_2q(mat, gate.qubits[0], gate.qubits[1])

    def _apply_1q(self, mat: np.ndarray, q: int) -> None:
        t = self.n_traj
        a = self.amplitudes.reshape(t, 1 << (self.n - q - 1), 2, 1 << q)
        self.amplitudes = np.einsum("ij,thjl->thil", mat, a).reshape(t, -1)

    def _apply_2q(self, mat: np.ndarray, q0: int, q1: int) -> None:
        # Gate matrices index (q0, q1) with q0 the most significant bit of
        # the pair, exactly as in Statevector._apply_2q.
        t = self.n_traj
        hi, lo = (q0, q1) if q0 > q1 else (q1, q0)
        a = self.amplitudes.reshape(
            t, 1 << (self.n - 1 - hi), 2, 1 << (hi - 1 - lo), 2, 1 << lo
        )
        m = mat.reshape(2, 2, 2, 2)  # [q0', q1', q0, q1]
        if q0 == hi:
            out = np.einsum("ijkl,takblc->taibjc", m, a)
        else:
            out = np.einsum("ijkl,talbkc->tajbic", m, a)
        self.amplitudes = out.reshape(t, -1)

    def apply_circuit(self, circuit) -> "BatchedStatevector":
        for gate in circuit.gates:
            self.apply(gate)
        return self

    # ------------------------------------------------------------------
    # Masked Pauli errors
    # ------------------------------------------------------------------
    def apply_masked_paulis(
        self, rows: np.ndarray, x_masks: np.ndarray, z_masks: np.ndarray
    ) -> None:
        """Apply the Pauli ``(x_masks[i], z_masks[i])`` to trajectory
        ``rows[i]`` (canonical phase ``i^{pc(x & z)}``, i.e. Y where the
        masks overlap — exactly :meth:`Statevector.apply` of the same gates).

        ``rows`` must be unique within one call (fancy-index assignment keeps
        only the last write per repeated row); the noise sampler satisfies
        this by construction — at most one error per gate per trajectory.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return
        x_masks = np.asarray(x_masks, dtype=np.uint64)
        z_masks = np.asarray(z_masks, dtype=np.uint64)
        b = np.arange(self.amplitudes.shape[1], dtype=np.uint64)
        # P|b> = i^{pc(x&z)} (-1)^{pc(z & b)} |b ^ x>, hence
        # new[c] = (old * c(b))[c ^ x]  — one sign multiply + one gather.
        signs = 1.0 - 2.0 * (np.bitwise_count(z_masks[:, None] & b[None, :]) & 1)
        phases = 1j ** (np.bitwise_count(x_masks & z_masks) % 4)
        g = self.amplitudes[rows] * (phases[:, None] * signs)
        perm = (b[None, :] ^ x_masks[:, None]).astype(np.intp)
        self.amplitudes[rows] = np.take_along_axis(g, perm, axis=1)

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    def expectations(self, observable: QubitOperator) -> np.ndarray:
        """Per-trajectory ``⟨ψ_t|H|ψ_t⟩`` via the packed-table kernel, on the
        operator's own table (:meth:`QubitOperator.to_table` packs it once)."""
        table, coeffs = observable.to_table()
        if table.n != self.n:
            raise ValueError("qubit count mismatch")
        return table.expectation_values(self.amplitudes, coeffs).real

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=1)

    def __repr__(self) -> str:
        return f"BatchedStatevector(n={self.n}, n_traj={self.n_traj})"
