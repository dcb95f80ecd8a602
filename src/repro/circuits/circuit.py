"""Circuit container with scheduling-based metrics.

Metrics follow the paper's conventions: CNOT count, U3 (general 1q) count,
and depth = length of the longest gate-dependency chain (ASAP levels).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .gates import Gate

__all__ = ["Circuit"]


class Circuit:
    """An ordered gate list on ``n_qubits`` qubits."""

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self.gates: list[Gate] = []
        for g in gates:
            self.append(g)

    @classmethod
    def trusted(cls, n_qubits: int, gates: list[Gate]) -> "Circuit":
        """Wrap ``gates`` as-is, skipping the per-gate qubit-range check.

        For passes whose gates all act on qubits of an already-validated
        circuit of the same width; the list is adopted, not copied.
        """
        out = cls(n_qubits)
        out.gates = gates
        return out

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> None:
        if any(q < 0 or q >= self.n_qubits for q in gate.qubits):
            raise ValueError(f"gate {gate} outside qubit range 0..{self.n_qubits - 1}")
        self.gates.append(gate)

    def add(self, name: str, *qubits: int, params: tuple[float, ...] = ()) -> "Circuit":
        self.append(Gate(name, tuple(qubits), tuple(params)))
        return self

    def extend(self, gates: Iterable[Gate]) -> None:
        for g in gates:
            self.append(g)

    def compose(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        out = Circuit(self.n_qubits, self.gates)
        out.extend(other.gates)
        return out

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits, (g.inverse() for g in reversed(self.gates)))

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, self.gates)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def count(self, name: str) -> int:
        return sum(1 for g in self.gates if g.name == name)

    @property
    def cx_count(self) -> int:
        """CNOT count; cz and swap are counted at their cx-decomposition cost."""
        return self.count("cx") + self.count("cz") + 3 * self.count("swap")

    @property
    def u3_count(self) -> int:
        return self.count("u3")

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)

    def depth(self) -> int:
        """ASAP-scheduled depth (each gate occupies one level per qubit)."""
        level = [0] * self.n_qubits
        for g in self.gates:
            qubits = g.qubits
            if len(qubits) == 1:
                level[qubits[0]] += 1
            else:
                a, b = qubits
                top = level[a] if level[a] > level[b] else level[b]
                level[a] = level[b] = top + 1
        return max(level, default=0)

    # ------------------------------------------------------------------
    # Dense unitary (tests / tiny circuits)
    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Dense unitary; intended for n ≲ 10 (tests)."""
        from ..sim.statevector import Statevector  # runtime import, no cycle

        dim = 1 << self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            state = Statevector.basis(self.n_qubits, col)
            for gate in self.gates:
                state.apply(gate)
            out[:, col] = state.amplitudes
        return out

    def __repr__(self) -> str:
        return (
            f"Circuit(n={self.n_qubits}, gates={len(self.gates)}, "
            f"cx={self.cx_count}, depth={self.depth()})"
        )
