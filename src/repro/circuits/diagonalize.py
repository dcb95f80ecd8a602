"""Simultaneous-diagonalization synthesis (the paper's Rustiq comparator).

Rustiq [de Brugière & Martiel 2024] and the simultaneous-diagonalization
approach of [van den Berg & Temme 2020] synthesize Hamiltonian-simulation
circuits by conjugating *groups* of commuting Pauli strings into diagonal
form with one shared Clifford, evolving in the diagonal frame, and undoing
the Clifford.  This module implements that strategy:

1. :func:`group_commuting` — greedy partition of the terms into mutually
   commuting groups;
2. :func:`diagonalizing_circuit` — a Clifford circuit ``C`` (H/S/CX/CZ) with
   ``C P C†`` diagonal for every ``P`` in a commuting group;
3. :func:`grouped_evolution_circuit` — the full Trotter step.
"""

from __future__ import annotations

from ..paulis import PauliString, QubitOperator
from ..paulis.table import DUST_TOLERANCE
from .circuit import Circuit
from .gates import Gate
from .tableau import conjugate_pauli

__all__ = [
    "group_commuting",
    "diagonalizing_circuit",
    "grouped_evolution_circuit",
]


def group_commuting(
    terms: list[tuple[PauliString, float]],
) -> list[list[tuple[PauliString, float]]]:
    """Greedy first-fit partition into mutually commuting groups."""
    groups: list[list[tuple[PauliString, float]]] = []
    for string, coeff in terms:
        for group in groups:
            if all(string.commutes_with(other) for other, _ in group):
                group.append((string, coeff))
                break
        else:
            groups.append([(string, coeff)])
    return groups


def diagonalizing_circuit(strings: list[PauliString], n_qubits: int) -> Circuit:
    """Clifford ``C`` with ``C P C†`` ∈ {±Z-strings} for all commuting ``P``.

    Column-sweep procedure: repeatedly take a string with X/Y support, pick a
    pivot qubit, reduce the string to a single ``X_pivot`` using S (Y→X on
    its own support), CX (clear other X bits), and CZ (clear remaining Z
    bits — CZ is diagonal, so already-diagonalized strings stay diagonal),
    then H turns it into ``Z_pivot``.  Any string commuting with ``Z_pivot``
    has no X on the pivot, so later sweeps never disturb finished pivots.
    """
    for i, a in enumerate(strings):
        for b in strings[i + 1 :]:
            if not a.commutes_with(b):
                raise ValueError("strings must pairwise commute")
    work = list(strings)
    circuit = Circuit(n_qubits)

    def apply(name: str, *qubits: int) -> None:
        gate = Gate(name, qubits)
        circuit.append(gate)
        for k in range(len(work)):
            work[k] = conjugate_pauli(work[k], gate)

    for k in range(len(work)):
        p = work[k]
        if p.x == 0:
            continue  # already diagonal
        pivot = min(q for q in range(n_qubits) if (p.x >> q) & 1)
        # Make the pivot operator a pure X (Y -> X needs one S).
        if (p.z >> pivot) & 1:
            apply("s", pivot)
            p = work[k]
        # Clear every other X/Y bit onto the pivot.
        for q in range(n_qubits):
            if q == pivot or not (p.x >> q) & 1:
                continue
            if (p.z >> q) & 1:
                apply("s", q)
            apply("cx", pivot, q)
            p = work[k]
        # Clear remaining Z bits with the diagonal-preserving CZ.
        for q in range(n_qubits):
            if q != pivot and (work[k].z >> q) & 1:
                apply("cz", pivot, q)
        # Now ±X_pivot; rotate into ±Z_pivot.
        apply("h", pivot)
        final = work[k]
        assert final.x == 0 and final.z == (1 << pivot), "diagonalization failed"
    return circuit


def _diagonal_term_circuit(string: PauliString, angle: float, n: int) -> Circuit:
    """CNOT-ladder evolution of a ±Z-string (no basis changes needed)."""
    circuit = Circuit(n)
    support = list(string.support)
    if not support:
        return circuit
    sign = -1.0 if string.phase == 2 else 1.0
    target = support[0]
    for i in range(len(support) - 1, 0, -1):
        circuit.add("cx", support[i], support[i - 1])
    circuit.add("rz", target, params=(sign * angle,))
    for i in range(1, len(support)):
        circuit.add("cx", support[i], support[i - 1])
    return circuit


def grouped_evolution_circuit(
    hamiltonian: QubitOperator, time: float = 1.0, steps: int = 1
) -> Circuit:
    """One-or-more Trotter steps using commuting-group diagonalization."""
    if not hamiltonian.is_hermitian():
        raise ValueError("time evolution requires a Hermitian Hamiltonian")
    terms = [
        (s, c.real)
        for s, c in hamiltonian.terms()
        if not s.is_identity and abs(c) > DUST_TOLERANCE
    ]
    terms.sort(key=lambda item: item[0].label())
    groups = group_commuting(terms)
    n = hamiltonian.n
    circuit = Circuit(n)
    dt = time / steps
    for _ in range(steps):
        for group in groups:
            clifford = diagonalizing_circuit([s for s, _ in group], n)
            circuit = circuit.compose(clifford)
            # Sort diagonal terms for ladder sharing.
            diag_terms = []
            for string, coeff in group:
                d = string
                for gate in clifford.gates:
                    d = conjugate_pauli(d, gate)
                diag_terms.append((d, coeff))
            diag_terms.sort(key=lambda item: item[0].z)
            for d, coeff in diag_terms:
                if d.phase not in (0, 2):
                    raise AssertionError("diagonalized string has complex phase")
                circuit = circuit.compose(
                    _diagonal_term_circuit(d, 2.0 * coeff * dt, n)
                )
            circuit = circuit.compose(clifford.inverse())
    return circuit
