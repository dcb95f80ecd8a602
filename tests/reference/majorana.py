"""Dict algebra of Majorana sums: the test oracle for ``MajoranaOperator``.

:class:`DictMajoranaSum` keeps ``{monomial tuple: c}`` in insertion order,
the term store :class:`repro.fermion.MajoranaOperator` used to hold, with
its arithmetic unchanged: an add drops a monomial whose running sum is
exactly zero and re-inserts it at the end on the next add, and a product
merge-sorts each pair of monomials with :func:`normal_order_majorana_product`.
The package combines packed bitmask rows with the same running sums and
forms complex products part by part as Python does, so ``+``, ``-`` and
``*`` match this dict bit for bit, order included, on the same operands.
A packed operator holds coefficients as an insertion stores them
(``0.0 + c``, exact zeros dropped), so compare against
:meth:`DictMajoranaSum.from_operator` of the packed operands.

:meth:`DictMajoranaSum.from_operator` and :meth:`~DictMajoranaSum.to_operator`
convert in term order.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.fermion import MajoranaOperator
from repro.paulis.table import DUST_TOLERANCE

__all__ = ["DictMajoranaSum", "normal_order_majorana_product"]


def normal_order_majorana_product(
    left: tuple[int, ...], right: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Multiply two canonical (sorted, duplicate-free) Majorana monomials.

    Returns ``(canonical_product, sign)`` where ``sign ∈ {+1, -1}`` accounts
    for the anticommutations needed to merge-sort the concatenation, and
    indices appearing in both factors cancel (``M² = 1``).
    """
    # Merge-count inversions between the two sorted sequences.
    sign = 1
    merged: list[int] = []
    i = j = 0
    # Number of elements of `left` not yet consumed; each right-element that
    # jumps past them contributes that many transpositions.
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] moves past the remaining left elements.
            if (len(left) - i) % 2 == 1:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    # Cancel adjacent equal pairs (M_i M_i = 1); merged is sorted.
    out: list[int] = []
    k = 0
    while k < len(merged):
        if k + 1 < len(merged) and merged[k] == merged[k + 1]:
            k += 2
        else:
            out.append(merged[k])
            k += 1
    return tuple(out), sign


class DictMajoranaSum:
    """``Σ c · M_{i1} M_{i2} …`` as a dict keyed on canonical monomials."""

    def __init__(self, terms: dict[tuple[int, ...], complex] | None = None):
        self.terms: dict[tuple[int, ...], complex] = dict(terms) if terms else {}

    @classmethod
    def from_operator(cls, op: MajoranaOperator) -> "DictMajoranaSum":
        return cls(dict(op.terms()))

    def to_operator(self) -> MajoranaOperator:
        return MajoranaOperator(self.terms)

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "DictMajoranaSum":
        return cls({(): coeff})

    @classmethod
    def single(cls, index: int, coeff: complex = 1.0) -> "DictMajoranaSum":
        return cls({(index,): coeff})

    @classmethod
    def from_term(cls, indices: Iterable[int], coeff: complex = 1.0) -> "DictMajoranaSum":
        """Build from an arbitrary (possibly unsorted/repeated) index product."""
        out = cls.identity(coeff)
        for idx in indices:
            out = out * cls.single(idx)
        return out

    def add_term(self, indices: tuple[int, ...], coeff: complex) -> None:
        new = self.terms.get(indices, 0.0) + coeff
        if new == 0:
            self.terms.pop(indices, None)
        else:
            self.terms[indices] = new

    def simplify(self, tol: float = DUST_TOLERANCE) -> "DictMajoranaSum":
        """Drop terms with |coefficient| ≤ ``tol`` by ``np.abs`` (returns self)."""
        mags = np.abs(np.fromiter(self.terms.values(), complex, count=len(self.terms)))
        self.terms = {
            t: c for (t, c), keep in zip(self.terms.items(), (mags > tol).tolist()) if keep
        }
        return self

    def copy(self) -> "DictMajoranaSum":
        return DictMajoranaSum(self.terms)

    def __add__(self, other: "DictMajoranaSum") -> "DictMajoranaSum":
        out = self.copy()
        for term, coeff in other.terms.items():
            out.add_term(term, coeff)
        return out

    def __sub__(self, other: "DictMajoranaSum") -> "DictMajoranaSum":
        return self + (other * -1.0)

    def __mul__(self, other) -> "DictMajoranaSum":
        if isinstance(other, DictMajoranaSum):
            out = DictMajoranaSum()
            for t1, c1 in self.terms.items():
                for t2, c2 in other.terms.items():
                    prod, sign = normal_order_majorana_product(t1, t2)
                    out.add_term(prod, sign * c1 * c2)
            return out
        return DictMajoranaSum({t: c * other for t, c in self.terms.items()})

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        """A monomial of k Majoranas conjugates to ``(-1)^{k(k-1)/2}`` itself."""
        for term, coeff in self.terms.items():
            k = len(term)
            sign = -1 if (k * (k - 1) // 2) % 2 else 1
            if abs(complex(coeff).conjugate() * sign - coeff) > tol:
                return False
        return True

    def __eq__(self, other) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= 1e-9 for k in keys
        )
