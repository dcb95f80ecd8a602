"""Weighted sums of Pauli strings (qubit Hamiltonians).

A :class:`QubitOperator` stores ``H = Σ c_j · P_j`` as a dictionary keyed by
the phase-0 symplectic pair ``(x, z)``; any ``i**k`` phase carried by an added
:class:`~repro.paulis.PauliString` is folded into its coefficient.  This makes
term combination exact and keeps the paper's Pauli-weight metric
(`pauli_weight`, §II-B3) a pure popcount sum.

Dual form: the terms live as that dict, as a packed
:class:`~repro.paulis.PauliTable` of unique rows plus a coefficient vector,
or as both.  A mapped operator (:meth:`PauliTable.to_qubit_operator`) holds
the table alone; ``len``, the weights, :meth:`~QubitOperator.is_hermitian`
and :meth:`~QubitOperator.to_table` read the arrays (a dict operator packs
them once), and any other API builds the dict in row order.  A mutation goes
through the dict and drops the table.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .algebra import mul_xzk
from .pauli import PauliString, _PHASE_VALUE

__all__ = ["QubitOperator"]

#: Coefficients with magnitude below this are dropped by :meth:`QubitOperator.simplify`.
DEFAULT_TOLERANCE = 1e-10

#: Numerical dust: the Majorana form, mapping apply, the Pauli weight and
#: Trotter synthesis all drop coefficients with magnitude at or below this.
DUST_TOLERANCE = 1e-12


class QubitOperator:
    """A weighted sum of Pauli strings on a fixed number of qubits."""

    __slots__ = ("n", "_dict", "_table", "_coeffs")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n = n
        self._dict: dict[tuple[int, int], complex] | None = dict(terms) if terms else {}
        self._table = self._coeffs = None  # packed form, read-only once held

    @classmethod
    def _from_table(cls, table, coeffs: np.ndarray) -> "QubitOperator":
        """Adopt unique phase-0 rows and their coefficients."""
        out = cls(table.n)
        out._dict = None
        out._hold(table, coeffs)
        return out

    def _hold(self, table, coeffs: np.ndarray) -> None:
        for array in (table.x, table.z, table.phase, coeffs):
            array.flags.writeable = False
        self._table, self._coeffs = table, coeffs

    def _unpack(self) -> dict[tuple[int, int], complex]:
        """The term dict of the held table, in row order."""
        from .table import _words_to_masks

        keys = zip(_words_to_masks(self._table.x), _words_to_masks(self._table.z))
        return dict(zip(keys, self._coeffs.tolist()))

    @property
    def _terms(self) -> dict[tuple[int, int], complex]:
        if self._dict is None:
            self._dict = self._unpack()
        return self._dict

    def _mutated(self) -> dict[tuple[int, int], complex]:
        """The term dict, with the packed form dropped before a write."""
        terms = self._terms
        self._table = self._coeffs = None
        return terms

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "QubitOperator":
        return cls(n)

    #: Term count above which :meth:`from_terms` switches to the vectorized
    #: :class:`~repro.paulis.PauliTable` combination path.
    TABLE_THRESHOLD = 64

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[PauliString, complex]], n: int | None = None
    ) -> "QubitOperator":
        """Build from ``(PauliString, coefficient)`` pairs, combining duplicates.

        Large term lists are combined through the packed
        :class:`~repro.paulis.PauliTable` backend (lexsort + reduceat) instead
        of per-term dictionary updates; both paths are exact.
        """
        terms = list(terms)
        if n is None:
            if not terms:
                raise ValueError("cannot infer qubit count from an empty term list")
            n = terms[0][0].n
        if len(terms) >= cls.TABLE_THRESHOLD:
            from .table import PauliTable

            table = PauliTable.from_strings([s for s, _ in terms], n=n)
            return table.to_qubit_operator([c for _, c in terms], tol=0.0)
        op = cls(n)
        for string, coeff in terms:
            op.add_string(string, coeff)
        return op

    @classmethod
    def from_table(
        cls, table, coeffs, tol: float = DEFAULT_TOLERANCE
    ) -> "QubitOperator":
        """Build from a :class:`~repro.paulis.PauliTable` plus coefficients."""
        return table.to_qubit_operator(coeffs, tol=tol)

    def to_table(self):
        """``(PauliTable, coefficient vector)`` in term order, read-only: the
        held table, else the dict packed once."""
        if self._table is None:
            from .table import PauliTable

            xs, zs = zip(*self._dict) if self._dict else ((), ())
            coeffs = np.fromiter(self._dict.values(), dtype=complex, count=len(self._dict))
            self._hold(PauliTable.from_masks(self.n, xs, zs), coeffs)
        return self._table, self._coeffs

    @classmethod
    def from_label_dict(cls, labels: dict[str, complex]) -> "QubitOperator":
        """Build from dense labels, e.g. ``{"XYIZ": 0.5, "IIII": 1.0}``."""
        if not labels:
            raise ValueError("empty label dict")
        strings = [(PauliString.from_label(lbl), c) for lbl, c in labels.items()]
        return cls.from_terms(strings)

    # ------------------------------------------------------------------
    # Mutation (building-phase API)
    # ------------------------------------------------------------------
    def add_string(self, string: PauliString, coeff: complex = 1.0) -> None:
        """Add ``coeff · string``, folding the string's phase into the coefficient."""
        if string.n != self.n:
            raise ValueError("qubit count mismatch")
        self.add_raw(string.x, string.z, coeff * _PHASE_VALUE[string.phase])

    def add_raw(self, x: int, z: int, coeff: complex) -> None:
        """Add ``coeff`` times the phase-0 string with masks ``(x, z)``."""
        terms = self._mutated()
        key = (x, z)
        new = terms.get(key, 0.0) + coeff
        if new == 0:
            terms.pop(key, None)
        else:
            terms[key] = new

    def simplify(self, tol: float = DEFAULT_TOLERANCE) -> "QubitOperator":
        """Drop terms with |coefficient| ≤ ``tol`` (returns self for chaining)."""
        self._dict = {k: c for k, c in self._mutated().items() if abs(c) > tol}
        return self

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._coeffs) if self._dict is None else len(self._dict)

    def terms(self) -> Iterator[tuple[PauliString, complex]]:
        """Yield ``(PauliString, coefficient)`` pairs (phase-0 strings)."""
        for (x, z), coeff in self._terms.items():
            yield PauliString(self.n, x, z), coeff

    def raw_terms(self) -> Iterator[tuple[int, int, complex]]:
        """Yield ``(x, z, coefficient)`` triples without object construction."""
        for (x, z), coeff in self._terms.items():
            yield x, z, coeff

    def coefficient(self, string: PauliString) -> complex:
        """Coefficient of ``string`` (phase folded), 0 if absent."""
        c = self._terms.get((string.x, string.z), 0.0)
        return c * _PHASE_VALUE[string.phase].conjugate() if c else 0.0

    def pauli_weight(self, tol: float = DUST_TOLERANCE) -> int:
        """Total Pauli weight ``Σ_j w(P_j)`` over terms with |c| > ``tol``
        (paper §II-B3); a mapped operator holds no such dust, so this is the
        sum of its table's row weights."""
        table, coeffs = self.to_table()
        return int(table.weights()[np.abs(coeffs) > tol].sum())

    def max_weight(self) -> int:
        """Largest single-term Pauli weight."""
        return int(self.to_table()[0].weights().max(initial=0))

    def is_hermitian(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """Hermitian iff every (phase-0 canonical) coefficient is real."""
        return bool((np.abs(self.to_table()[1].imag) <= tol).all())

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def copy(self) -> "QubitOperator":
        if self._dict is None:
            return QubitOperator._from_table(self._table, self._coeffs)
        return QubitOperator(self.n, self._dict)

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        if not isinstance(other, QubitOperator):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        out = self.copy()
        for (x, z), c in other._terms.items():
            out.add_raw(x, z, c)
        return out

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "QubitOperator":
        if isinstance(other, (int, float, complex)):
            return QubitOperator(self.n, {k: c * other for k, c in self._terms.items()})
        if isinstance(other, QubitOperator):
            if self.n != other.n:
                raise ValueError("qubit count mismatch")
            out = QubitOperator(self.n)
            for (x1, z1), c1 in self._terms.items():
                for (x2, z2), c2 in other._terms.items():
                    x3, z3, k3 = mul_xzk(x1, z1, 0, x2, z2, 0)
                    out.add_raw(x3, z3, c1 * c2 * _PHASE_VALUE[k3])
            return out
        return NotImplemented

    def __rmul__(self, other) -> "QubitOperator":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitOperator):
            return NotImplemented
        if self.n != other.n:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= DEFAULT_TOLERANCE
            for k in keys
        )

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
        for (x, z), coeff in self._terms.items():
            if x:  # any X/Y component moves the basis state off-diagonal
                continue
            total += coeff * (-1) ** ((z & bits).bit_count())
        return total

    def __repr__(self) -> str:
        if not self._terms:
            return f"QubitOperator(n={self.n}, 0)"
        parts = []
        for string, coeff in sorted(self.terms(), key=lambda t: -abs(t[1]))[:6]:
            parts.append(f"({coeff:.4g})·{string.compact()}")
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"QubitOperator(n={self.n}, {' + '.join(parts)}{more})"
