"""Majorana-operator algebra.

The 2N Majorana operators of an N-mode fermionic system satisfy

    {M_i, M_j} = 2 δ_ij,    M_i† = M_i,    M_i² = 1,

and relate to the ladder operators by the paper's Eq. (2):

    a†_j = (M_2j - i·M_2j+1) / 2,      a_j = (M_2j + i·M_2j+1) / 2.

A :class:`MajoranaOperator` stores a weighted sum of *Majorana monomials*;
each monomial is a strictly-increasing tuple of Majorana indices (the product
``M_{i1} M_{i2} …`` in ascending order).  Reordering an arbitrary product into
this canonical form contributes a sign from anticommutation and removes
squared factors.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .operators import FermionOperator

__all__ = ["MajoranaOperator", "normal_order_majorana_product"]

_COEFF_TOLERANCE = 1e-12


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


class MajoranaOperator:
    """Weighted sum of canonical Majorana monomials."""

    __slots__ = ("_terms", "_packed", "_fingerprint_cache")

    def __init__(self, terms: dict[tuple[int, ...], complex] | None = None):
        self._terms: dict[tuple[int, ...], complex] = dict(terms) if terms else {}
        #: Cached bulk-mapping plan (padded index matrix + coefficient vector);
        #: rebuilt lazily by :meth:`packed_terms`, cleared on mutation.
        self._packed = None
        #: Service-layer memo for the canonical fingerprint form — owned by
        #: repro.service.fingerprint, cleared on mutation like _packed.
        self._fingerprint_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "MajoranaOperator":
        return cls()

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "MajoranaOperator":
        return cls({(): coeff})

    @classmethod
    def single(cls, index: int, coeff: complex = 1.0) -> "MajoranaOperator":
        """``coeff · M_index``."""
        return cls({(index,): coeff})

    @classmethod
    def from_term(cls, indices: Iterable[int], coeff: complex = 1.0) -> "MajoranaOperator":
        """Build from an arbitrary (possibly unsorted/repeated) index product."""
        out = cls.identity(coeff)
        for idx in indices:
            out = out * cls.single(idx)
        return out

    @classmethod
    def from_fermion_operator(cls, op: FermionOperator) -> "MajoranaOperator":
        """Expand ladder monomials through the paper's Eq. (2).

        Each term's expansion is accumulated into one running operator in
        place (no per-term copy of the running sum).
        """
        total = cls.zero()
        for actions, coeff in op.terms():
            factor = cls.identity(coeff)
            for mode, dagger in actions:
                even = cls.single(2 * mode, 0.5)
                odd = cls.single(2 * mode + 1, -0.5j if dagger else 0.5j)
                factor = factor * (even + odd)
            for term, value in factor._terms.items():
                total.add_term(term, value)
        return total.simplify()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        yield from self._terms.items()

    @property
    def constant(self) -> complex:
        return self._terms.get((), 0.0)

    def coefficient(self, indices: tuple[int, ...]) -> complex:
        return self._terms.get(tuple(sorted(indices)), 0.0)

    @property
    def n_majoranas(self) -> int:
        """1 + highest Majorana index in any term."""
        # Monomials are canonical (strictly increasing), so the last entry of
        # each is its maximum.
        return max((term[-1] for term in self._terms if term), default=-1) + 1

    @property
    def n_modes(self) -> int:
        """Number of fermionic modes this operator acts on (ceil of index/2)."""
        return (self.n_majoranas + 1) // 2

    def support_terms(self, drop_identity: bool = True) -> list[tuple[int, ...]]:
        """The monomial index sets, optionally without the identity term."""
        return [t for t in self._terms if t or not drop_identity]

    def packed_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-mapping plan: ``(index matrix, coefficient vector)``, cached.

        The index matrix is ``(n_terms, max_len)`` with every monomial's
        Majorana indices **shifted up by one** and right-padded with ``0`` —
        the convention of :meth:`repro.paulis.PauliTable.padded_row_products`,
        whose virtual identity row sits at index 0.  Because the padding does
        not depend on any particular mapping, one plan serves every mapping
        this operator is evaluated under (the HATT workload maps one
        Hamiltonian with many candidate trees); mutation through
        :meth:`add_term` or :meth:`simplify` invalidates the cache.
        """
        if self._packed is None:
            from ..paulis.table import pack_monomials

            idx = pack_monomials(list(self._terms.keys()))
            coeffs = np.fromiter(
                self._terms.values(), dtype=complex, count=len(self._terms)
            )
            self._packed = (idx, coeffs)
        return self._packed

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        """A monomial of k Majoranas conjugates to ``(-1)^{k(k-1)/2}`` itself."""
        for term, coeff in self._terms.items():
            k = len(term)
            sign = -1 if (k * (k - 1) // 2) % 2 else 1
            if abs(complex(coeff).conjugate() * sign - coeff) > tol:
                return False
        return True

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add_term(self, indices: tuple[int, ...], coeff: complex) -> None:
        self._packed = None
        self._fingerprint_cache = None
        new = self._terms.get(indices, 0.0) + coeff
        if new == 0:
            self._terms.pop(indices, None)
        else:
            self._terms[indices] = new

    def simplify(self, tol: float = _COEFF_TOLERANCE) -> "MajoranaOperator":
        self._packed = None
        self._fingerprint_cache = None
        self._terms = {t: c for t, c in self._terms.items() if abs(c) > tol}
        return self

    def copy(self) -> "MajoranaOperator":
        return MajoranaOperator(self._terms)

    def __add__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        out = self.copy()
        for term, coeff in other._terms.items():
            out.add_term(term, coeff)
        return out

    def __sub__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            return MajoranaOperator({t: c * other for t, c in self._terms.items()})
        if isinstance(other, MajoranaOperator):
            out = MajoranaOperator()
            for t1, c1 in self._terms.items():
                for t2, c2 in other._terms.items():
                    prod, sign = normal_order_majorana_product(t1, t2)
                    out.add_term(prod, sign * c1 * c2)
            return out
        return NotImplemented

    def __rmul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= 1e-9 for k in keys
        )

    def __repr__(self) -> str:
        def fmt(term):
            return " ".join(f"M{i}" for i in term) or "1"

        parts = [f"({c:.4g})·{fmt(t)}" for t, c in list(self._terms.items())[:6]]
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"MajoranaOperator({' + '.join(parts) or '0'}{more})"
