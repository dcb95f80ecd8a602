"""The fermion-to-qubit mapping abstraction shared by all methods.

A mapping for an N-mode system is fully specified by the 2N Pauli strings
assigned to the Majorana operators ``M_0 … M_{2N-1}`` (paper §II-C).  All
concrete mappings (JW, BK, parity, BTT, HATT, Fermihedral) reduce to this
representation, so every metric and experiment downstream is
mapping-agnostic.
"""

from __future__ import annotations

import numpy as np

from ..fermion import FermionOperator, MajoranaOperator
from ..paulis import PauliString, QubitOperator
from .apply import map_fermion_operator, map_majorana_operator

__all__ = ["FermionQubitMapping", "symplectic_rank"]


def symplectic_rank(strings: list[PauliString], n_qubits: int) -> int:
    """GF(2) rank of the strings' symplectic vectors ``(x | z << n)``.

    Algebraic independence of a set of Pauli strings (up to phase) is
    equivalent to full rank of this matrix.
    """
    rows = [s.x | (s.z << n_qubits) for s in strings]
    rank = 0
    for bit in range(2 * n_qubits):
        mask = 1 << bit
        pivot = next((r for r in rows if r & mask), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if (r & mask and r is not pivot) else r for r in rows]
        rows.remove(pivot)
    return rank


class FermionQubitMapping:
    """A concrete fermion-to-qubit mapping: 2N Majorana Pauli strings."""

    def __init__(
        self,
        majorana_strings: list[PauliString],
        name: str = "custom",
        discarded: PauliString | None = None,
    ):
        if len(majorana_strings) % 2 != 0:
            raise ValueError("need an even number of Majorana strings (2 per mode)")
        if not majorana_strings:
            raise ValueError("empty mapping")
        n = majorana_strings[0].n
        if any(s.n != n for s in majorana_strings):
            raise ValueError("all strings must act on the same qubit count")
        # Frozen: map() caches a packed table of these strings (packed_table),
        # so the sequence must not change after construction.
        self.strings = tuple(majorana_strings)
        self.n_qubits = n
        self.n_modes = len(majorana_strings) // 2
        self.name = name
        #: The unused (2N+1)-th ternary-tree string, when one exists.
        self.discarded = discarded
        self._table = None  # packed PauliTable of self.strings, built lazily

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def majorana(self, i: int) -> PauliString:
        """Pauli string for Majorana operator ``M_i``."""
        return self.strings[i]

    def occupation_pauli(self, mode: int) -> PauliString:
        """The Hermitian string ``P_j = i·S_2j·S_2j+1`` with ``n_j = (1 + P_j)/2``.

        Its ±1 eigenvalue encodes the occupation of ``mode`` (−1 ⇔ empty for
        vacuum-preserving mappings, since ``a†a = 1/2 + (i/2)·M_2j M_2j+1``).
        """
        prod = self.strings[2 * mode] * self.strings[2 * mode + 1]
        return prod.with_phase(prod.phase + 1)

    def mode_number_operator(self, mode: int) -> QubitOperator:
        """``n_mode`` as a qubit operator."""
        op = QubitOperator(self.n_qubits)
        op.add_string(PauliString.identity(self.n_qubits), 0.5)
        op.add_string(self.occupation_pauli(mode), 0.5)
        return op

    # ------------------------------------------------------------------
    # Operator mapping
    # ------------------------------------------------------------------
    @property
    def packed_table(self):
        """The Majorana strings packed as a :class:`~repro.paulis.PauliTable`.

        Built once and reused by every :meth:`map` call, so bulk mapping pays
        the string-packing cost a single time per mapping.
        """
        if self._table is None:
            from ..paulis import PauliTable

            self._table = PauliTable.from_strings(self.strings, n=self.n_qubits)
        return self._table

    def map(self, op: FermionOperator | MajoranaOperator) -> QubitOperator:
        """Map a fermionic or Majorana operator to a qubit operator."""
        if isinstance(op, FermionOperator):
            return map_fermion_operator(op, self.packed_table, self.n_qubits)
        if isinstance(op, MajoranaOperator):
            return map_majorana_operator(op, self.packed_table, self.n_qubits)
        raise TypeError(f"cannot map object of type {type(op).__name__}")

    # ------------------------------------------------------------------
    # Validity checks (the loops are the test oracles for check())
    # ------------------------------------------------------------------
    def anticommutation_ok(self) -> bool:
        """All distinct string pairs anticommute (Majorana CAR requirement)."""
        return all(
            self.strings[i].anticommutes_with(self.strings[j])
            for i in range(len(self.strings))
            for j in range(i + 1, len(self.strings))
        )

    def independent(self) -> bool:
        """Strings are algebraically independent (symplectic full rank)."""
        return symplectic_rank(self.strings, self.n_qubits) == len(self.strings)

    def is_valid(self) -> bool:
        return (
            all(not s.is_identity for s in self.strings)
            and self.anticommutation_ok()
            and self.independent()
        )

    def check(self, vacuum: bool = False) -> None:
        """Raise ``ValueError`` unless the strings form a valid Majorana set.

        The packed counterpart of :meth:`is_valid` (and, with ``vacuum``, of
        :meth:`preserves_vacuum`), cheap enough to run on every store and
        load: no identity string, and no commuting pair in one
        ``commutation_matrix`` pass over the packed x/z words.  2N pairwise
        anticommuting strings are independent, so that covers
        :meth:`independent` too.  With ``vacuum``, each mode's pair must
        send ``|0…0⟩`` to the same basis state with amplitudes
        ``i^k_even = i^(k_odd + 3)``, i.e. ``(S_2j + i·S_2j+1)|0…0⟩ = 0``.
        """
        table = self.packed_table
        identity = np.flatnonzero(table.is_identity())
        if identity.size:
            raise ValueError(f"Majorana string {identity[0]} is the identity")
        commute = table.commutation_matrix()
        np.fill_diagonal(commute, False)
        if commute.any():
            i, j = np.argwhere(commute)[0].tolist()
            raise ValueError(f"Majorana strings {i} and {j} commute")
        if vacuum:
            # S|0…0⟩ = i^(phase + #Y)·|x⟩ for a string with masks (x, z).
            k = table.phase.astype(np.int64) + np.bitwise_count(table.x & table.z).sum(
                axis=1, dtype=np.int64
            )
            ok = (table.x[0::2] == table.x[1::2]).all(axis=1) & (
                (k[0::2] - k[1::2] - 3) % 4 == 0
            )
            if not ok.all():
                mode = int(np.flatnonzero(~ok)[0])
                raise ValueError(f"mode {mode} does not annihilate the vacuum")

    def preserves_vacuum(self) -> bool:
        """Check ``a_j |0…0⟩ = 0`` for every mode, i.e. ``(S_2j + i·S_2j+1)|0…0⟩ = 0``."""
        for j in range(self.n_modes):
            even, odd = self.strings[2 * j], self.strings[2 * j + 1]
            bits_e, amp_e = even.apply_to_basis_state(0)
            bits_o, amp_o = odd.apply_to_basis_state(0)
            if bits_e != bits_o or abs(amp_e + 1j * amp_o) > 1e-12:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"FermionQubitMapping({self.name}, modes={self.n_modes}, "
            f"qubits={self.n_qubits})"
        )
