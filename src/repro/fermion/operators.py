"""Second-quantized fermionic operators.

A :class:`FermionOperator` is a complex-weighted sum of *ladder monomials*.
Each monomial is an ordered product of creation/annihilation operators,
stored as a tuple of ``(mode, dagger)`` actions applied left-to-right, e.g.
``((0, True), (0, False))`` is ``a†_0 a_0``.

The canonical anticommutation relations (CAR) are

    {a_i, a†_j} = δ_ij,   {a_i, a_j} = {a†_i, a†_j} = 0.

The ladder form is not canonical (``a_0 a†_0`` and ``1 - a†_0 a_0`` are one
operator), so ``==`` and :meth:`FermionOperator.is_hermitian` decide on the
canonical Majorana form (:func:`repro.fermion.majorana.majorana_form`),
which realizes the CAR through Eq. (2).  CAR normal ordering is kept as a
test oracle in ``tests/reference/fermion.py``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..paulis.table import DUST_TOLERANCE

__all__ = ["FermionOperator", "Action"]

#: One ladder operator: ``(mode index, True for creation)``.
Action = tuple[int, bool]


class FermionOperator:
    """Weighted sum of products of fermionic creation/annihilation operators."""

    __slots__ = ("_terms", "_majorana_cache")

    def __init__(self, terms: dict[tuple[Action, ...], complex] | None = None):
        self._terms: dict[tuple[Action, ...], complex] = dict(terms) if terms else {}
        #: Memo of the (read-only) Majorana form, owned by
        #: :func:`repro.fermion.majorana.majorana_form` and cleared by
        #: :meth:`add_term`.  The service's fingerprint is memoized on that
        #: form, and ``is_hermitian`` reads it.
        self._majorana_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "FermionOperator":
        return cls()

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "FermionOperator":
        return cls({(): coeff})

    @classmethod
    def from_term(cls, actions: Iterable[Action], coeff: complex = 1.0) -> "FermionOperator":
        return cls({tuple(actions): coeff})

    @classmethod
    def creation(cls, mode: int, coeff: complex = 1.0) -> "FermionOperator":
        """``coeff · a†_mode``."""
        return cls({((mode, True),): coeff})

    @classmethod
    def annihilation(cls, mode: int, coeff: complex = 1.0) -> "FermionOperator":
        """``coeff · a_mode``."""
        return cls({((mode, False),): coeff})

    @classmethod
    def number(cls, mode: int, coeff: complex = 1.0) -> "FermionOperator":
        """``coeff · a†_mode a_mode`` (occupation-number operator)."""
        return cls({((mode, True), (mode, False)): coeff})

    @classmethod
    def hopping(cls, i: int, j: int, coeff: complex = 1.0) -> "FermionOperator":
        """``coeff · a†_i a_j + conj(coeff) · a†_j a_i`` (Hermitian hopping term)."""
        out = cls()
        out.add_term(((i, True), (j, False)), coeff)
        out.add_term(((j, True), (i, False)), complex(coeff).conjugate())
        return out

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[tuple[Action, ...], complex]]:
        yield from self._terms.items()

    @property
    def n_modes(self) -> int:
        """1 + highest mode index appearing in any term (0 for scalars)."""
        modes = [mode for term in self._terms for mode, _ in term]
        return max(modes) + 1 if modes else 0

    @property
    def constant(self) -> complex:
        return self._terms.get((), 0.0)

    def coefficient(self, actions: Iterable[Action]) -> complex:
        return self._terms.get(tuple(actions), 0.0)

    # ------------------------------------------------------------------
    # Building / arithmetic
    # ------------------------------------------------------------------
    def add_term(self, actions: tuple[Action, ...], coeff: complex) -> None:
        self._majorana_cache = None
        new = self._terms.get(actions, 0.0) + coeff
        if abs(new) <= DUST_TOLERANCE:
            self._terms.pop(actions, None)
        else:
            self._terms[actions] = new

    def copy(self) -> "FermionOperator":
        return FermionOperator(self._terms)

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            return NotImplemented
        out = self.copy()
        for term, coeff in other._terms.items():
            out.add_term(term, coeff)
        return out

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "FermionOperator":
        if isinstance(other, (int, float, complex)):
            return FermionOperator({t: c * other for t, c in self._terms.items()})
        if isinstance(other, FermionOperator):
            out = FermionOperator()
            for t1, c1 in self._terms.items():
                for t2, c2 in other._terms.items():
                    out.add_term(t1 + t2, c1 * c2)
            return out
        return NotImplemented

    def __rmul__(self, other) -> "FermionOperator":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def hermitian_conjugate(self) -> "FermionOperator":
        """Reverse each monomial, flip daggers, conjugate coefficients."""
        out = FermionOperator()
        for term, coeff in self._terms.items():
            conj_term = tuple((mode, not dagger) for mode, dagger in reversed(term))
            out.add_term(conj_term, complex(coeff).conjugate())
        return out

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        """Check ``H == H†`` on the memoized Majorana form, within ``tol``.

        ``tol`` bounds Majorana coefficients
        (:meth:`MajoranaOperator.is_hermitian`): a length-k ladder term
        contributes its coefficient over 2^k to each of its monomials, so a
        ladder-level asymmetry of order ``tol · 2^k`` can pass.
        """
        from .majorana import majorana_form

        return majorana_form(self).is_hermitian(tol)

    def __eq__(self, other) -> bool:
        """Equal iff every Majorana coefficient of ``self - other`` is within
        1e-9 of zero (a length-k ladder term's difference up to
        ``1e-9 · 2^k``; see :meth:`is_hermitian`)."""
        if not isinstance(other, FermionOperator):
            return NotImplemented
        from .majorana import majorana_form

        return not len(majorana_form(self - other).simplify(1e-9))

    def __repr__(self) -> str:
        def fmt(term):
            if not term:
                return "1"
            return " ".join(f"a†_{m}" if d else f"a_{m}" for m, d in term)

        parts = [f"({c:.4g})·{fmt(t)}" for t, c in list(self._terms.items())[:6]]
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"FermionOperator({' + '.join(parts) or '0'}{more})"
