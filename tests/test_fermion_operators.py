"""Tests for FermionOperator: CAR algebra, normal ordering, hermiticity.

Normal ordering is the CAR oracle in ``tests/reference/fermion.py``; the
package decides ``==`` and ``is_hermitian`` on the Majorana form.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.fermion import (
    _normal_order_fast,
    _normal_order_term,
    car_equal,
    car_is_hermitian,
    normal_order,
)

from repro.fermion import FermionOperator


def a(mode):
    return FermionOperator.annihilation(mode)


def adag(mode):
    return FermionOperator.creation(mode)


class TestBasics:
    def test_constructors(self):
        assert len(FermionOperator.zero()) == 0
        assert FermionOperator.identity(2.0).constant == pytest.approx(2.0)
        assert adag(3).n_modes == 4
        assert FermionOperator.number(2).coefficient([(2, True), (2, False)]) == 1.0

    def test_hopping_is_hermitian(self):
        assert FermionOperator.hopping(0, 3, 1.5).is_hermitian()
        assert FermionOperator.hopping(0, 3, 1.0 + 0.5j).is_hermitian()

    def test_addition_combines(self):
        op = adag(0) + adag(0)
        assert op.coefficient([(0, True)]) == pytest.approx(2.0)

    def test_scalar_multiplication(self):
        op = 3.0 * adag(1) * 2.0
        assert op.coefficient([(1, True)]) == pytest.approx(6.0)

    def test_product_concatenates(self):
        op = adag(0) * a(1)
        assert op.coefficient([(0, True), (1, False)]) == pytest.approx(1.0)


class TestCAR:
    def test_anticommutator_same_mode(self):
        # {a_0, a†_0} = 1
        anti = normal_order(a(0) * adag(0) + adag(0) * a(0))
        assert anti == FermionOperator.identity(1.0)

    def test_anticommutator_different_modes(self):
        anti = normal_order(a(0) * adag(1) + adag(1) * a(0))
        assert anti == FermionOperator.zero()

    def test_annihilation_anticommute(self):
        anti = normal_order(a(0) * a(1) + a(1) * a(0))
        assert anti == FermionOperator.zero()

    def test_pauli_exclusion(self):
        assert normal_order(adag(0) * adag(0)) == FermionOperator.zero()
        assert normal_order(a(1) * a(1)) == FermionOperator.zero()

    def test_number_squared_is_number(self):
        n = FermionOperator.number(0)
        assert normal_order(n * n) == normal_order(n)

    def test_normal_order_idempotent(self):
        op = a(0) * adag(1) * a(2) * adag(0)
        once = normal_order(op)
        assert once == normal_order(once)

    def test_normal_order_preserves_operator(self):
        """Normal ordering must not change the operator; verified by a
        three-mode occupation-basis representation."""
        op = a(0) * adag(1) + 2.0 * adag(2) * a(0) * adag(0)
        no = normal_order(op)
        # Compare matrix elements in the 8-dim occupation basis via a
        # elementary simulation of ladder actions.
        for source in range(8):
            amps = {}
            for term, coeff in no.terms():
                res = _apply_term(term, source)
                if res is not None:
                    tgt, sgn = res
                    amps[tgt] = amps.get(tgt, 0) + sgn * coeff
            for term, coeff in op.terms():
                res = _apply_term(term, source)
                if res is not None:
                    tgt, sgn = res
                    amps[tgt] = amps.get(tgt, 0) - sgn * coeff
            assert all(abs(v) < 1e-9 for v in amps.values())


def _apply_term(term, bits):
    """Apply a ladder monomial to occupation state |bits> (JW sign convention).

    Returns (new_bits, sign) or None when annihilated.
    """
    sign = 1
    for mode, dagger in reversed(term):
        occupied = (bits >> mode) & 1
        if dagger == bool(occupied):
            return None
        # Fermionic sign: parity of occupied modes below `mode`.
        below = bits & ((1 << mode) - 1)
        sign *= (-1) ** below.bit_count()
        bits ^= 1 << mode
    return bits, sign


class TestNormalOrderFastPath:
    """The contraction-free fast path must agree with the generic CAR rewrite
    on every monomial shape (ordered, block-sortable, repeated, mixed)."""

    def test_exhaustive_small_monomials(self):
        from itertools import product

        actions = [(m, d) for m in range(3) for d in (True, False)]
        for length in range(5):
            for term in product(actions, repeat=length):
                generic = FermionOperator()
                for t, c in _normal_order_term(term, 1.0):
                    generic.add_term(t, c)
                assert car_equal(normal_order(FermionOperator({term: 1.0})), generic), term

    def test_block_sort_sign(self):
        # a†_0 a†_1 = -a†_1 a†_0: one anticommutation swap, no contraction.
        op = normal_order(adag(0) * adag(1))
        assert op.coefficient(((1, True), (0, True))) == -1.0

    def test_integral_style_term(self):
        # a†_p a†_q a_r a_s with p<q, r>s — the molecular-Hamiltonian shape.
        # One swap per block: (-1)·(-1) = +1.
        op = normal_order(adag(1) * adag(3) * a(2) * a(0))
        assert op.coefficient(((3, True), (1, True), (0, False), (2, False))) == 1.0
        assert len(op) == 1

    def test_fast_path_none_on_contraction_shapes(self):
        assert _normal_order_fast(((0, False), (0, True))) is None  # a a†
        assert _normal_order_fast(((0, True), (0, True))) is None  # repeated
        assert _normal_order_fast(((1, False), (2, True))) is None  # mixed
        ordered, sign = _normal_order_fast(((2, True), (0, False), (1, False)))
        assert ordered == ((2, True), (0, False), (1, False)) and sign == 1


class TestHermitian:
    def test_hermitian_conjugate_single(self):
        op = adag(2) * a(0)
        hc = op.hermitian_conjugate()
        assert hc.coefficient([(0, True), (2, False)]) == pytest.approx(1.0)

    def test_double_conjugate_is_identity(self):
        op = (1 + 2j) * adag(0) * a(1) * adag(2)
        assert op.hermitian_conjugate().hermitian_conjugate() == op

    def test_number_is_hermitian(self):
        assert FermionOperator.number(4).is_hermitian()

    def test_non_hermitian_detected(self):
        assert not adag(0).is_hermitian()
        assert not (1j * FermionOperator.number(0)).is_hermitian()

    def test_hubbard_style_term_hermitian(self):
        op = FermionOperator.number(0) * FermionOperator.number(1)
        assert op.is_hermitian()


# ----------------------------------------------------------------------
# ``==`` and ``is_hermitian`` on the Majorana form vs the CAR oracle
# ----------------------------------------------------------------------
_ACTIONS = st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=4).map(tuple)
#: Coefficients on a 1/8 grid: every sum and every Majorana coefficient is
#: exact, so an anti-Hermitian part is either 0 or far above the tolerance.
_GRID = st.builds(
    lambda re, im: complex(re / 8, im / 8), st.integers(-16, 16), st.integers(-16, 16)
)
_COEFFS = st.one_of(
    _GRID, st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
)


def _ladder(terms) -> FermionOperator:
    op = FermionOperator()
    for actions, coeff in terms:
        op.add_term(actions, coeff)
    return op


_OPS = st.lists(st.tuples(_ACTIONS, _COEFFS), max_size=6).map(_ladder)
_GRID_OPS = st.lists(st.tuples(_ACTIONS, _GRID), max_size=6).map(_ladder)


@given(_OPS, _ACTIONS, st.one_of(st.just(0.0), st.floats(1e-6, 2.0)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_equality_agrees_with_car_normal_ordering(op, term, delta, imaginary):
    """``(op, normal_order(op))`` and ``(op, op + δ·term)``, δ = 0 or at
    least 1e-6: far from the 1e-9 edge, both rules give one answer."""
    ordered = normal_order(op)
    assert op == ordered and car_equal(op, ordered)
    shifted = op + FermionOperator.from_term(term, 1j * delta if imaginary else delta)
    assert (op == shifted) is car_equal(op, shifted)


@given(_OPS, _GRID_OPS)
@settings(max_examples=100, deadline=None)
def test_is_hermitian_agrees_with_car_normal_ordering(any_op, op):
    hermitian = any_op + any_op.hermitian_conjugate()
    assert hermitian.is_hermitian() and car_is_hermitian(hermitian)
    assert op.is_hermitian() is car_is_hermitian(op)
    assert (1j * op).is_hermitian() is car_is_hermitian(1j * op)
