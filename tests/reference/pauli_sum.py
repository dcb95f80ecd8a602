"""Dict accumulation of Pauli sums: the test oracle for ``QubitOperator``.

:class:`DictPauliSum` keeps ``{(x, z): c}`` of phase-0 masks in insertion
order, the term store :class:`repro.paulis.QubitOperator` used to hold.  An
add drops a term whose sum is exactly zero and re-inserts it on the next
add; :meth:`~DictPauliSum.simplify` decides with Python's ``abs``.  The
package combines rows of a packed ``PauliTable`` instead (lexsort +
``np.add.reduceat``), so with small-integer coefficients, where every sum
is exact, the two give the same keys and values; in general they agree up
to rounding.

:meth:`DictPauliSum.to_operator` wraps the dict once, in its own order.
"""

from __future__ import annotations

from typing import Iterable

from repro.paulis import PauliString, QubitOperator
from repro.paulis.algebra import mul_xzk

__all__ = ["DictPauliSum"]

_PHASE = {0: 1, 1: 1j, 2: -1, 3: -1j}

#: The tolerance of ``QubitOperator.simplify`` and ``==``.
_TOLERANCE = 1e-10


class DictPauliSum:
    """``Σ c · P`` as a dict keyed on the phase-0 pair ``(x, z)``."""

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, int], complex] = dict(terms) if terms else {}

    @classmethod
    def from_terms(
        cls, n: int, terms: Iterable[tuple[PauliString, complex]]
    ) -> "DictPauliSum":
        out = cls(n)
        for string, coeff in terms:
            out.add_string(string, coeff)
        return out

    def add_string(self, string: PauliString, coeff: complex = 1.0) -> None:
        """Add ``coeff · string``, folding the string's phase into the coefficient."""
        if string.n != self.n:
            raise ValueError("qubit count mismatch")
        self.add_raw(string.x, string.z, coeff * _PHASE[string.phase])

    def add_raw(self, x: int, z: int, coeff: complex) -> None:
        """Add ``coeff`` times the phase-0 string with masks ``(x, z)``."""
        key = (x, z)
        new = self.terms.get(key, 0.0) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def simplify(self, tol: float = _TOLERANCE) -> "DictPauliSum":
        """Drop terms with |coefficient| ≤ ``tol`` (returns self for chaining)."""
        self.terms = {k: c for k, c in self.terms.items() if abs(c) > tol}
        return self

    def to_operator(self) -> QubitOperator:
        return QubitOperator(self.n, self.terms)

    def __add__(self, other: "DictPauliSum") -> "DictPauliSum":
        out = DictPauliSum(self.n, self.terms)
        for (x, z), c in other.terms.items():
            out.add_raw(x, z, c)
        return out

    def __sub__(self, other: "DictPauliSum") -> "DictPauliSum":
        return self + (other * -1.0)

    def __mul__(self, other) -> "DictPauliSum":
        if isinstance(other, DictPauliSum):
            out = DictPauliSum(self.n)
            for (x1, z1), c1 in self.terms.items():
                for (x2, z2), c2 in other.terms.items():
                    x3, z3, k3 = mul_xzk(x1, z1, 0, x2, z2, 0)
                    out.add_raw(x3, z3, c1 * c2 * _PHASE[k3])
            return out
        return DictPauliSum(self.n, {k: c * other for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= _TOLERANCE for k in keys
        )
