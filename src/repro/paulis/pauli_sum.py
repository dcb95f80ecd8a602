"""Weighted sums of Pauli strings (qubit Hamiltonians).

A :class:`QubitOperator` stores ``H = Σ c_j · P_j`` as a read-only
:class:`~repro.paulis.PauliTable` of unique phase-0 rows plus a coefficient
vector; any ``i**k`` phase carried by an added
:class:`~repro.paulis.PauliString` is folded into its coefficient.  This
keeps the paper's Pauli-weight metric (`pauli_weight`, §II-B3) a popcount
sum over the rows.

The table is the only term store.  An operator never changes once built:
the constructors, arithmetic and :meth:`~QubitOperator.simplify` return new
operators, combining equal rows with :meth:`PauliTable.simplify`.  A mapped
operator (:meth:`QubitOperator.from_table`) holds its rows in lexicographic
order; ``QubitOperator(n, {(x, z): c})`` holds them in the dict's order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .pauli import PauliString
from .table import (
    DEFAULT_TOLERANCE, DUST_TOLERANCE, PauliTable, _masks_to_words, _words_to_masks,
    complex_product,
)

__all__ = ["QubitOperator"]


class QubitOperator:
    """A weighted sum of Pauli strings on a fixed number of qubits."""

    __slots__ = ("n", "_table", "_coeffs")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        """Pack ``{(x, z): c}`` once, in the dict's order (keys are unique,
        so nothing combines)."""
        terms = terms or {}
        xs, zs = zip(*terms) if terms else ((), ())
        coeffs = np.fromiter(terms.values(), dtype=complex, count=len(terms))
        self._hold(PauliTable.from_masks(n, xs, zs), coeffs)

    @classmethod
    def _adopt(cls, table: PauliTable, coeffs: np.ndarray) -> "QubitOperator":
        """Wrap unique phase-0 rows and their coefficients."""
        out = object.__new__(cls)
        out._hold(table, coeffs)
        return out

    def _hold(self, table: PauliTable, coeffs: np.ndarray) -> None:
        for array in (table.x, table.z, table.phase, coeffs):
            array.flags.writeable = False
        self.n, self._table, self._coeffs = table.n, table, coeffs

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "QubitOperator":
        return cls(n)

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[PauliString, complex]], n: int | None = None
    ) -> "QubitOperator":
        """Build from ``(PauliString, coefficient)`` pairs, combining
        duplicates and dropping exact zeros."""
        terms = list(terms)
        if n is None:
            if not terms:
                raise ValueError("cannot infer qubit count from an empty term list")
            n = terms[0][0].n
        table = PauliTable.from_strings([s for s, _ in terms], n=n)
        return cls.from_table(table, [c for _, c in terms], tol=0.0)

    @classmethod
    def from_table(
        cls, table: PauliTable, coeffs, tol: float = DEFAULT_TOLERANCE
    ) -> "QubitOperator":
        """``Σ coeffs[i] · row_i``: rows combined with
        :meth:`PauliTable.simplify` (lexicographic order, |c| ≤ ``tol``
        dropped) and held as they come out."""
        return cls._adopt(*table.simplify(coeffs, tol=tol))

    def to_table(self) -> tuple[PauliTable, np.ndarray]:
        """The held ``(PauliTable, coefficient vector)``, read-only."""
        return self._table, self._coeffs

    @classmethod
    def from_label_dict(cls, labels: dict[str, complex]) -> "QubitOperator":
        """Build from dense labels, e.g. ``{"XYIZ": 0.5, "IIII": 1.0}``."""
        if not labels:
            raise ValueError("empty label dict")
        strings = [(PauliString.from_label(lbl), c) for lbl, c in labels.items()]
        return cls.from_terms(strings)

    def simplify(self, tol: float = DEFAULT_TOLERANCE) -> "QubitOperator":
        """A new operator without the terms with |coefficient| ≤ ``tol``, in
        this one's order."""
        keep = np.flatnonzero(np.abs(self._coeffs) > tol)
        return QubitOperator._adopt(self._table.take(keep), self._coeffs[keep])

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._coeffs)

    def terms(self) -> Iterator[tuple[PauliString, complex]]:
        """Yield ``(PauliString, coefficient)`` pairs (phase-0 strings)."""
        for x, z, coeff in self.raw_terms():
            yield PauliString(self.n, x, z), coeff

    def raw_terms(self) -> Iterator[tuple[int, int, complex]]:
        """Yield ``(x, z, coefficient)`` triples without object construction."""
        table = self._table
        return zip(_words_to_masks(table.x), _words_to_masks(table.z), self._coeffs.tolist())

    def coefficient(self, string: PauliString) -> complex:
        """Coefficient of ``string`` (phase folded), 0 if absent."""
        table = self._table
        x, z = (_masks_to_words([mask], table.n_words) for mask in (string.x, string.z))
        hit = np.flatnonzero((table.x == x).all(axis=1) & (table.z == z).all(axis=1))
        if not hit.size:
            return 0.0
        return complex(self._coeffs[hit[0]]) * string.phase_value.conjugate()

    def pauli_weight(self, tol: float = DUST_TOLERANCE) -> int:
        """Total Pauli weight ``Σ_j w(P_j)`` over terms with |c| > ``tol``
        (paper §II-B3); a mapped operator holds no such dust, so this is the
        sum of its table's row weights."""
        return int(self._table.weights()[np.abs(self._coeffs) > tol].sum())

    def max_weight(self) -> int:
        """Largest single-term Pauli weight."""
        return int(self._table.weights().max(initial=0))

    def is_hermitian(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """Hermitian iff every (phase-0 canonical) coefficient is real."""
        return bool((np.abs(self._coeffs.imag) <= tol).all())

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _check_n(self, other: "QubitOperator") -> None:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        """Concatenated rows, combined with tol 0 (exact cancellations drop)."""
        if not isinstance(other, QubitOperator):
            return NotImplemented
        self._check_n(other)
        a, b = self._table, other._table
        rows = PauliTable._unsafe(
            self.n,
            np.concatenate([a.x, b.x]),
            np.concatenate([a.z, b.z]),
            np.zeros(len(a) + len(b), dtype=np.uint8),
        )
        return QubitOperator.from_table(rows, np.concatenate([self._coeffs, other._coeffs]), tol=0.0)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "QubitOperator":
        if isinstance(other, (int, float, complex)):
            return QubitOperator._adopt(self._table, self._coeffs * other)
        if isinstance(other, QubitOperator):
            self._check_n(other)
            m1, m2 = len(self), len(other)
            left = np.repeat(np.arange(m1), m2)
            right = np.tile(np.arange(m2), m1)
            rows = self._table.take(left).mul_rows(other._table.take(right))
            coeffs = complex_product(self._coeffs[left], other._coeffs[right])
            return QubitOperator.from_table(rows, coeffs, tol=0.0)
        return NotImplemented

    def __rmul__(self, other) -> "QubitOperator":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        """Equal iff every combined coefficient of the difference is within
        ``DEFAULT_TOLERANCE`` of zero."""
        if not isinstance(other, QubitOperator):
            return NotImplemented
        if self.n != other.n:
            return False
        return bool((np.abs((self - other)._coeffs) <= DEFAULT_TOLERANCE).all())

    # ------------------------------------------------------------------
    # Dense matrix (tests / tiny systems only)
    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Dense matrix; intended for n ≲ 12."""
        dim = 1 << self.n
        out = np.zeros((dim, dim), dtype=complex)
        for string, coeff in self.terms():
            out += coeff * string.to_matrix()
        return out

    def ground_energy(self) -> float:
        """Smallest eigenvalue of the (Hermitian) dense matrix."""
        mat = self.to_matrix()
        return float(np.linalg.eigvalsh(mat)[0])

    def expectation_basis_state(self, bits: int) -> complex:
        """⟨bits|H|bits⟩ evaluated symbolically (no dense matrix)."""
        total = 0.0 + 0j
        for x, z, coeff in self.raw_terms():
            if x:  # any X/Y component moves the basis state off-diagonal
                continue
            total += coeff * (-1) ** ((z & bits).bit_count())
        return total

    def __repr__(self) -> str:
        if not len(self):
            return f"QubitOperator(n={self.n}, 0)"
        parts = []
        for string, coeff in sorted(self.terms(), key=lambda t: -abs(t[1]))[:6]:
            parts.append(f"({coeff:.4g})·{string.compact()}")
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"QubitOperator(n={self.n}, {' + '.join(parts)}{more})"
