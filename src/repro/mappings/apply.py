"""Apply a fermion-to-qubit mapping to operators.

This is the bulk path used by every experiment: it converts a
:class:`~repro.fermion.MajoranaOperator` (tens of thousands of monomials for
the larger molecules) into a :class:`~repro.paulis.QubitOperator` by
multiplying the mapped Majorana Pauli strings with exact phase tracking.
A :class:`~repro.fermion.FermionOperator` is first expanded to Majorana form
once per operator (:func:`~repro.fermion.majorana.majorana_form`); HATT
construction reads the same memoized result, so one request converts once.

The operator's monomials are multiplied as batched rows of a packed
:class:`~repro.paulis.PauliTable`: padding with a virtual identity row makes
the whole batch cost ``max_len - 1`` vectorized multiplication steps no
matter how many thousands of terms it holds.  The index plan is built from
the operator's monomial bitmasks with NumPy
(:func:`repro.paulis.table.plan_from_masks`).  The per-term Python loop over
raw ``(x, z, k)`` integer triples is the test oracle
``tests/reference/mapping.py``, cross-checked against this path in the
property tests.

The mapping may be given either as a list of :class:`~repro.paulis.PauliString`
or as an already-packed :class:`~repro.paulis.PauliTable` (see
:attr:`~repro.mappings.FermionQubitMapping.packed_table`); the latter skips
per-call packing entirely.
"""

from __future__ import annotations

from ..fermion import FermionOperator, MajoranaOperator
from ..fermion.majorana import majorana_form
from ..paulis import PauliString, QubitOperator
from ..paulis.table import PauliTable

__all__ = ["map_majorana_operator", "map_fermion_operator"]


def _validate_qubit_counts(
    strings: "list[PauliString] | PauliTable", n_qubits: int
) -> None:
    """Check every Majorana string acts on ``n_qubits``."""
    if isinstance(strings, PauliTable):
        if strings.n != n_qubits:
            raise ValueError(
                f"Majorana table acts on {strings.n} qubits but the target "
                f"operator was requested on n_qubits={n_qubits}"
            )
        return
    if not strings:
        raise ValueError("no Majorana strings supplied")
    for i, s in enumerate(strings):
        if s.n != n_qubits:
            raise ValueError(
                f"Majorana string {i} acts on {s.n} qubits but the target "
                f"operator was requested on n_qubits={n_qubits}"
            )


def _check_coverage(n_majoranas: int, n_strings: int) -> None:
    """A full mapping supplies 2 strings per mode; require that coverage."""
    n_modes = (n_majoranas + 1) // 2
    needed = 2 * n_modes
    if needed > n_strings:
        raise ValueError(
            f"operator spans {n_modes} modes and needs {needed} Majorana "
            f"strings (2 per mode) but only {n_strings} were supplied"
        )


def _map_majorana_table(op: MajoranaOperator, table: PauliTable) -> QubitOperator:
    """Vectorized implementation: batch product-accumulate on a PauliTable.

    The operator's padded index plan (cached on the operator, see
    :meth:`MajoranaOperator.packed_terms`) is replayed against the packed
    string table, so re-mapping the same Hamiltonian under another candidate
    mapping pays no per-term Python cost at all.
    """
    idx, coeffs = op.packed_terms()
    # Plan indices are shifted by one (0 = identity pad), so the largest entry
    # equals the highest touched Majorana index + 1 == n_majoranas.
    _check_coverage(int(idx.max()) if idx.size else 0, table.n_terms)
    products = table.padded_row_products(idx)
    return products.to_qubit_operator(coeffs)


def map_majorana_operator(
    op: MajoranaOperator,
    strings: "list[PauliString] | PauliTable",
    n_qubits: int,
) -> QubitOperator:
    """Map ``Σ c_T Π_{i∈T} M_i`` to ``Σ c_T Π_{i∈T} S_i``, combining terms.

    ``strings[i]`` is the Pauli string assigned to Majorana ``M_i`` (a packed
    :class:`~repro.paulis.PauliTable` is also accepted); every string must act
    on exactly ``n_qubits`` qubits and the table must cover all
    ``2 · n_modes`` Majoranas the operator spans.  Terms that cancel exactly
    disappear; the result is simplified to drop numerical dust below 1e-10.
    Terms come out in canonical lexicographic ``(x, z)`` order.
    """
    _validate_qubit_counts(strings, n_qubits)
    table = (
        strings
        if isinstance(strings, PauliTable)
        else PauliTable.from_strings(strings, n=n_qubits)
    )
    return _map_majorana_table(op, table)


def map_fermion_operator(
    op: FermionOperator,
    strings: "list[PauliString] | PauliTable",
    n_qubits: int,
) -> QubitOperator:
    """Expand to Majoranas (paper Eq. 2), then map.

    The expansion is memoized on ``op`` (:func:`~repro.fermion.majorana.majorana_form`),
    so mapping a Hamiltonian that HATT was just built from — or mapping it
    under several mappings — converts it once.
    """
    return map_majorana_operator(majorana_form(op), strings, n_qubits)
