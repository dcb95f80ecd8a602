"""Circuit container with scheduling-based metrics.

Metrics follow the paper's conventions: CNOT count, U3 (general 1q) count,
and depth = length of the longest gate-dependency chain (ASAP levels).

A circuit holds its gates either as a :class:`Gate` list or as packed
arrays.  The packed form is the op code (``uint8``, the index into
:data:`~repro.circuits.gates.GATE_NAMES`), the qubits (``int32``, n×2, −1
in the second column of a one-qubit gate) and the parameters (``float64``,
n×3, unused entries 0).  Synthesis, the peephole passes, routing and the
metrics work on the arrays alone, so a compile builds no :class:`Gate`.
:attr:`Circuit.gates` turns a packed circuit into a list one and hands out
the circuit's own list, so changing it changes the circuit; a list circuit
therefore packs afresh on every :meth:`~Circuit.packed` call.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .gates import GATE_NAMES, N_PARAMS, ONE_QUBIT_GATES, OP_CODE, Gate

__all__ = ["Circuit"]

_N_PARAMS = [N_PARAMS[name] for name in GATE_NAMES]
Packed = tuple[np.ndarray, np.ndarray, np.ndarray]  # ops, qubits, params


class Circuit:
    """An ordered gate sequence on ``n_qubits`` qubits."""

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self._gates: list[Gate] | None = []
        self._packed: Packed | None = None
        for g in gates:
            self.append(g)

    @classmethod
    def from_packed(cls, n_qubits: int, *packed: np.ndarray) -> "Circuit":
        """Adopt ``ops, qubits, params`` as-is (made read-only), without the
        qubit-range check: for passes over an already-validated circuit."""
        out = cls(n_qubits)
        for array in packed:
            array.flags.writeable = False
        out._gates, out._packed = None, packed
        return out

    @property
    def gates(self) -> list[Gate]:
        """The gate list; the circuit's own, so changing it changes the circuit."""
        if self._gates is None:
            ops, qubits, params = self._packed
            self._gates = [
                Gate(GATE_NAMES[op], (a,) if b < 0 else (a, b), tuple(p[: _N_PARAMS[op]]))
                for op, (a, b), p in zip(ops.tolist(), qubits.tolist(), params.tolist())
            ]
            self._packed = None
        return self._gates

    def packed(self) -> Packed:
        """``(ops, qubits, params)`` as arrays (module docstring); read-only
        for a packed circuit, uncached copies for a list one."""
        gates = self._gates
        if gates is None:
            return self._packed
        return (
            np.array([OP_CODE[g.name] for g in gates], dtype=np.uint8),
            np.array([(*g.qubits, -1)[:2] for g in gates], dtype=np.int32).reshape(-1, 2),
            np.array([(*g.params, 0.0, 0.0, 0.0)[:3] for g in gates]).reshape(-1, 3),
        )

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
        return len(self._gates) if self._gates is not None else len(self._packed[0])

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def _op_counts(self) -> np.ndarray:
        return np.bincount(self.packed()[0], minlength=len(GATE_NAMES))

    def count(self, name: str) -> int:
        code = OP_CODE.get(name)
        return 0 if code is None else int(self._op_counts()[code])

    @property
    def cx_count(self) -> int:
        """CNOT count; cz and swap are counted at their cx-decomposition cost."""
        counts = self._op_counts()
        return int(counts[OP_CODE["cx"]] + counts[OP_CODE["cz"]] + 3 * counts[OP_CODE["swap"]])

    @property
    def u3_count(self) -> int:
        return self.count("u3")

    @property
    def two_qubit_count(self) -> int:
        return int(self._op_counts()[len(ONE_QUBIT_GATES) :].sum())

    def depth(self) -> int:
        """ASAP-scheduled depth (each gate occupies one level per qubit)."""
        qubits = self.packed()[1]
        level = [0] * self.n_qubits
        for a, b in zip(qubits[:, 0].tolist(), qubits[:, 1].tolist()):
            if b < 0:
                level[a] += 1
            else:
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
            out[:, col] = Statevector.basis(self.n_qubits, col).apply_circuit(self).amplitudes
        return out

    def __repr__(self) -> str:
        return (
            f"Circuit(n={self.n_qubits}, gates={len(self)}, "
            f"cx={self.cx_count}, depth={self.depth()})"
        )
