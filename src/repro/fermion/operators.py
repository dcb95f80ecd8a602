"""Second-quantized fermionic operators.

A :class:`FermionOperator` is a complex-weighted sum of *ladder monomials*.
Each monomial is an ordered product of creation/annihilation operators,
stored as a tuple of ``(mode, dagger)`` actions applied left-to-right, e.g.
``((0, True), (0, False))`` is ``a†_0 a_0``.

The canonical anticommutation relations (CAR) are

    {a_i, a†_j} = δ_ij,   {a_i, a_j} = {a†_i, a†_j} = 0,

implemented exactly by :meth:`FermionOperator.normal_order`.
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
        #: Memo of the Majorana form, owned by
        #: :func:`repro.fermion.majorana.majorana_form`; cleared on mutation
        #: (the same contract as MajoranaOperator._packed).  The service's
        #: fingerprint is memoized on that form.
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
        """Check ``H == H†`` after normal ordering both sides."""
        diff = (self - self.hermitian_conjugate()).normal_order()
        return all(abs(c) <= tol for _, c in diff.terms())

    # ------------------------------------------------------------------
    # Normal ordering (exact CAR algebra)
    # ------------------------------------------------------------------
    def normal_order(self) -> "FermionOperator":
        """Rewrite as a sum of normal-ordered monomials.

        Normal order: all creations (descending mode) before all annihilations
        (ascending mode).  Repeated identical ladder operators annihilate the
        monomial (Pauli exclusion).  Exponential worst case — intended for
        tests and small model Hamiltonians.
        """
        out = FermionOperator()
        for term, coeff in self._terms.items():
            fast = _normal_order_fast(term)
            if fast is not None:
                # Creations-before-annihilations monomials with distinct
                # modes per block (every integral-built molecular term)
                # normal-order by pure anticommutation — a sign, no
                # contractions — so they skip the CAR rewrite machinery.
                ordered, sign = fast
                out.add_term(ordered, sign * coeff)
                continue
            for ordered, sign_coeff in _normal_order_term(term, coeff):
                out.add_term(ordered, sign_coeff)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FermionOperator):
            return NotImplemented
        a = self.normal_order()._terms
        b = other.normal_order()._terms
        keys = set(a) | set(b)
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= 1e-9 for k in keys)

    def __repr__(self) -> str:
        def fmt(term):
            if not term:
                return "1"
            return " ".join(f"a†_{m}" if d else f"a_{m}" for m, d in term)

        parts = [f"({c:.4g})·{fmt(t)}" for t, c in list(self._terms.items())[:6]]
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"FermionOperator({' + '.join(parts) or '0'}{more})"


def _sort_block(arr: list[int], descending: bool) -> int | None:
    """Insertion-sort a block of modes in place, counting adjacent swaps.

    Returns the swap count, or ``None`` on a repeated mode (the caller must
    fall back to the generic rewrite, where the monomial vanishes by Pauli
    exclusion).
    """
    swaps = 0
    for i in range(1, len(arr)):
        j = i
        while j > 0 and (arr[j - 1] < arr[j] if descending else arr[j - 1] > arr[j]):
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            swaps += 1
            j -= 1
        if j > 0 and arr[j - 1] == arr[j]:
            return None
    return swaps


def _normal_order_fast(
    term: tuple[Action, ...],
) -> tuple[tuple[Action, ...], int] | None:
    """Normal-order a contraction-free monomial by anticommutation alone.

    Applicable when every creation precedes every annihilation and modes are
    distinct within each block: swapping two such operators never produces a
    ``δ_ij`` contraction, so the normal form is the per-block sort with sign
    ``(-1)^swaps``.  Returns ``(ordered_term, sign)`` or ``None`` when the
    monomial needs the full CAR rewrite.
    """
    created: list[int] = []
    annihilated: list[int] = []
    for mode, dagger in term:
        if dagger:
            if annihilated:
                return None  # annihilation before a creation: contraction
            created.append(mode)
        else:
            annihilated.append(mode)
    swaps_c = _sort_block(created, descending=True)
    if swaps_c is None:
        return None
    swaps_a = _sort_block(annihilated, descending=False)
    if swaps_a is None:
        return None
    ordered = tuple(
        [(m, True) for m in created] + [(m, False) for m in annihilated]
    )
    return ordered, (-1 if (swaps_c + swaps_a) & 1 else 1)


def _normal_order_term(
    term: tuple[Action, ...], coeff: complex
) -> list[tuple[tuple[Action, ...], complex]]:
    """Normal-order one ladder monomial via repeated CAR swaps.

    Returns a list of ``(normal_ordered_term, coefficient)`` contributions.
    """
    # Work list of (term, coeff) pending normal ordering.
    pending = [(list(term), coeff)]
    done: list[tuple[tuple[Action, ...], complex]] = []
    while pending:
        ops, c = pending.pop()
        swapped = False
        for pos in range(len(ops) - 1):
            (m1, d1), (m2, d2) = ops[pos], ops[pos + 1]
            if not d1 and d2:
                # a_i a†_j = δ_ij - a†_j a_i
                if m1 == m2:
                    contracted = ops[:pos] + ops[pos + 2 :]
                    pending.append((contracted, c))
                new_ops = ops[:pos] + [ops[pos + 1], ops[pos]] + ops[pos + 2 :]
                pending.append((new_ops, -c))
                swapped = True
                break
            if d1 == d2:
                if m1 == m2:
                    # a†a† or aa with same mode: zero.
                    swapped = True
                    break
                # Within a dagger block sort descending; within an
                # annihilation block sort ascending.
                wrong = (d1 and m1 < m2) or (not d1 and m1 > m2)
                if wrong:
                    new_ops = ops[:pos] + [ops[pos + 1], ops[pos]] + ops[pos + 2 :]
                    pending.append((new_ops, -c))
                    swapped = True
                    break
        if not swapped:
            done.append((tuple(ops), c))
    return done
