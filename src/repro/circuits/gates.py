"""Quantum gate IR.

A :class:`Gate` is a name, a qubit tuple, and a parameter tuple.  The native
set covers everything the synthesis/optimization passes emit; the noisy-
simulation basis is ``{cx, u3}`` as in the paper (§V-B3).  A
:class:`~repro.circuits.Circuit` stores each gate as its index in
:data:`GATE_NAMES` (the op code), so that order is part of the packed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Gate", "gate_matrix", "GATE_NAMES", "ONE_QUBIT_GATES", "TWO_QUBIT_GATES"]

#: Every gate name, in op-code order: one-qubit gates first, then two-qubit.
GATE_NAMES = (
    "i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u3",
    "cx", "cz", "swap",
)
OP_CODE = {name: code for code, name in enumerate(GATE_NAMES)}
ONE_QUBIT_GATES = frozenset(GATE_NAMES[:13])
TWO_QUBIT_GATES = frozenset(GATE_NAMES[13:])

#: Parameter count per gate name.
N_PARAMS = dict.fromkeys(GATE_NAMES, 0) | {"rx": 1, "ry": 1, "rz": 1, "u3": 3}

_SELF_INVERSE = frozenset({"i", "x", "y", "z", "h", "cx", "cz", "swap"})
_INVERSE_NAME = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


@dataclass(frozen=True)
class Gate:
    """One gate application: ``name`` on ``qubits`` with ``params``."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        n_params = N_PARAMS.get(self.name)
        if n_params is None:
            raise ValueError(f"unknown gate {self.name!r}")
        expected = 1 if self.name in ONE_QUBIT_GATES else 2
        if len(self.qubits) != expected:
            raise ValueError(
                f"gate {self.name} expects {expected} qubit(s), got {self.qubits}"
            )
        if any(not isinstance(q, int) or isinstance(q, bool) for q in self.qubits):
            raise ValueError(f"gate {self.name} qubits must be ints, got {self.qubits}")
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("two-qubit gate with identical qubits")
        if len(self.params) != n_params:
            raise ValueError(
                f"gate {self.name} takes {n_params} parameter(s), got {self.params}"
            )

    @property
    def is_two_qubit(self) -> bool:
        return self.name in TWO_QUBIT_GATES

    def inverse(self) -> "Gate":
        if self.name in _SELF_INVERSE:
            return self
        if self.name in _INVERSE_NAME:
            return Gate(_INVERSE_NAME[self.name], self.qubits)
        if self.name in ("rx", "ry", "rz"):
            return Gate(self.name, self.qubits, (-self.params[0],))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", self.qubits, (-theta, -lam, -phi))
        raise ValueError(f"no inverse rule for {self.name}")  # pragma: no cover

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.name, self.params)

    def __repr__(self) -> str:
        p = f"({', '.join(f'{v:.4g}' for v in self.params)})" if self.params else ""
        return f"{self.name}{p} q{list(self.qubits)}"


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


_FIXED = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1, -1]).astype(complex),
    "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
    # Two-qubit matrices use qubit order (q0=first listed = most significant
    # within the pair); see sim.statevector for the application convention.
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Unitary of a gate.  Two-qubit matrices are in (first-qubit-major) order."""
    if name in _FIXED:
        return _FIXED[name]
    if name == "rx":
        (t,) = params
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        (t,) = params
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        (t,) = params
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    if name == "u3":
        return _u3(*params)
    raise ValueError(f"unknown gate {name!r}")
