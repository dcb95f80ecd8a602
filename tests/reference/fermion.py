"""CAR normal ordering: the test oracle for ``FermionOperator`` equality.

:func:`normal_order` rewrites a ladder operator as a sum of normal-ordered
monomials with the canonical anticommutation relations, the canonicalizer
``FermionOperator.normal_order`` used to be.  :func:`car_equal` and
:func:`car_is_hermitian` are the ``==`` and ``is_hermitian`` it served:
coefficient-wise within ``tol`` on the normal-ordered difference.  The
package decides both on the Majorana form instead, where ``tol`` bounds
Majorana coefficients (a length-k term's coefficient over 2^k), so the two
agree away from the tolerance edge.
"""

from __future__ import annotations

from repro.fermion import Action, FermionOperator

__all__ = ["normal_order", "car_equal", "car_is_hermitian"]


def normal_order(op: FermionOperator) -> FermionOperator:
    """Rewrite as a sum of normal-ordered monomials.

    Normal order: all creations (descending mode) before all annihilations
    (ascending mode).  Repeated identical ladder operators annihilate the
    monomial (Pauli exclusion).  Exponential worst case — intended for
    tests and small model Hamiltonians.
    """
    out = FermionOperator()
    for term, coeff in op.terms():
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


def car_equal(a: FermionOperator, b: FermionOperator, tol: float = 1e-9) -> bool:
    """Every normal-ordered coefficient of ``a`` and ``b`` agrees within ``tol``."""
    na = dict(normal_order(a).terms())
    nb = dict(normal_order(b).terms())
    return all(abs(na.get(k, 0.0) - nb.get(k, 0.0)) <= tol for k in set(na) | set(nb))


def car_is_hermitian(op: FermionOperator, tol: float = 1e-9) -> bool:
    """``op - op†`` normal-orders to coefficients within ``tol`` of zero."""
    diff = normal_order(op - op.hermitian_conjugate())
    return all(abs(c) <= tol for _, c in diff.terms())


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
