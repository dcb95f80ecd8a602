"""Scalar Majorana-to-Pauli mapping: one Python product loop per term.

The oracle for :func:`repro.mappings.apply.map_majorana_operator`, which
multiplies every monomial at once as rows of a packed ``PauliTable``.  The
loop here multiplies raw ``(x, z, k)`` integer triples term by term and
inserts terms in operator order, then drops terms with |c| ≤ 1e-12 (the
dust tolerance of the mapping); the results compare equal with the
term-order-insensitive ``QubitOperator ==``.
"""

from __future__ import annotations

from repro.fermion import MajoranaOperator
from repro.mappings.apply import _check_coverage, _validate_qubit_counts
from repro.paulis import PauliString, QubitOperator
from repro.paulis.algebra import mul_xzk

__all__ = ["scalar_map_majorana_operator"]

_PHASE = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def scalar_map_majorana_operator(
    op: MajoranaOperator, strings: list[PauliString], n_qubits: int
) -> QubitOperator:
    """:func:`~repro.mappings.apply.map_majorana_operator` through the loop,
    with the same qubit-count and coverage checks."""
    _validate_qubit_counts(strings, n_qubits)
    _check_coverage(op.n_majoranas, len(strings))
    return _map_majorana_scalar(op, strings, n_qubits)


def _map_majorana_scalar(
    op: MajoranaOperator, strings: list[PauliString], n_qubits: int
) -> QubitOperator:
    """Per-term products on raw integer triples."""
    raw = [(s.x, s.z, s.phase) for s in strings]
    out = QubitOperator(n_qubits)
    for indices, coeff in op.terms():
        x = z = k = 0
        for i in indices:
            sx, sz, sk = raw[i]
            x, z, k = mul_xzk(x, z, k, sx, sz, sk)
        out.add_raw(x, z, coeff * _PHASE[k])
    return out.simplify(1e-12)

