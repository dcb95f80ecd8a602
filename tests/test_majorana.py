"""Tests for MajoranaOperator: Clifford-algebra relations and Eq. (2)/(3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermion import (
    FermionOperator,
    MajoranaOperator,
    normal_order_majorana_product,
)


def M(i):
    return MajoranaOperator.single(i)


class TestMonomialProduct:
    def test_disjoint_sorted(self):
        assert normal_order_majorana_product((0, 2), (1, 3)) == ((0, 1, 2, 3), -1)

    def test_square_cancels(self):
        assert normal_order_majorana_product((0, 1), (0, 1)) == ((), -1)
        # M0M1·M0M1 = -M0M0M1M1 = -1.

    def test_identity_factors(self):
        assert normal_order_majorana_product((), (1, 2)) == ((1, 2), 1)
        assert normal_order_majorana_product((1, 2), ()) == ((1, 2), 1)

    def test_single_swap_sign(self):
        assert normal_order_majorana_product((1,), (0,)) == ((0, 1), -1)
        assert normal_order_majorana_product((0,), (1,)) == ((0, 1), 1)


@given(
    st.lists(st.integers(0, 6), min_size=0, max_size=6),
    st.lists(st.integers(0, 6), min_size=0, max_size=6),
)
@settings(max_examples=100)
def test_product_associativity_random(seq1, seq2):
    """from_term(seq1+seq2) == from_term(seq1)·from_term(seq2)."""
    joint = MajoranaOperator.from_term(seq1 + seq2)
    split = MajoranaOperator.from_term(seq1) * MajoranaOperator.from_term(seq2)
    assert joint == split


class TestCliffordRelations:
    def test_square_is_one(self):
        for i in range(4):
            assert M(i) * M(i) == MajoranaOperator.identity()

    def test_anticommute(self):
        for i in range(3):
            for j in range(3):
                anti = M(i) * M(j) + M(j) * M(i)
                expected = MajoranaOperator.identity(2.0 if i == j else 0.0).simplify()
                assert anti.simplify() == expected

    def test_hermitian_check(self):
        assert M(0).is_hermitian()
        assert (1j * M(0) * M(1)).is_hermitian()  # i·M0M1 is Hermitian
        assert not (M(0) * M(1)).is_hermitian()
        assert MajoranaOperator.from_term([0, 1, 2, 3], -1.0).is_hermitian()


class TestFermionConversion:
    def test_number_operator(self):
        # a†_0 a_0 = 1/2 + (i/2)·M0 M1  (paper §III-C example).
        n0 = MajoranaOperator.from_fermion_operator(FermionOperator.number(0))
        assert n0.constant == pytest.approx(0.5)
        assert n0.coefficient((0, 1)) == pytest.approx(0.5j)
        assert len(n0) == 2

    def test_paper_equation_3(self):
        """HF = a†0 a0 + 2 a†1 a†2 a1 a2 maps to the Majorana form in Eq. (3)."""
        hf = FermionOperator.number(0) + 2.0 * FermionOperator.from_term(
            [(1, True), (2, True), (1, False), (2, False)]
        )
        hm = MajoranaOperator.from_fermion_operator(hf)
        assert hm.coefficient((0, 1)) == pytest.approx(0.5j)
        assert hm.coefficient((2, 3)) == pytest.approx(-0.5j)
        assert hm.coefficient((4, 5)) == pytest.approx(-0.5j)
        assert hm.coefficient((2, 3, 4, 5)) == pytest.approx(0.5)
        # Non-identity support exactly matches the paper's four monomials.
        assert sorted(hm.support_terms()) == [(0, 1), (2, 3), (2, 3, 4, 5), (4, 5)]

    def test_creation_annihilation_inverse_relation(self):
        # a_j + a†_j = M_2j ; a_j - a†_j = i·M_2j+1.
        for j in (0, 2):
            plus = MajoranaOperator.from_fermion_operator(
                FermionOperator.annihilation(j) + FermionOperator.creation(j)
            )
            assert plus == MajoranaOperator.single(2 * j)
            minus = MajoranaOperator.from_fermion_operator(
                FermionOperator.annihilation(j) - FermionOperator.creation(j)
            )
            assert minus == MajoranaOperator.single(2 * j + 1, 1j)

    def test_hermitian_fermion_gives_hermitian_majorana(self):
        hop = FermionOperator.hopping(0, 1, 0.7) + FermionOperator.number(1, 2.0)
        hm = MajoranaOperator.from_fermion_operator(hop)
        assert hm.is_hermitian()

    def test_car_preserved_through_majoranas(self):
        """{a_0, a†_0} = 1 computed in the Majorana representation."""
        a0 = MajoranaOperator.from_fermion_operator(FermionOperator.annihilation(0))
        a0d = MajoranaOperator.from_fermion_operator(FermionOperator.creation(0))
        anti = a0 * a0d + a0d * a0
        assert anti.simplify() == MajoranaOperator.identity()

    def test_annihilation_squared_zero(self):
        a0 = MajoranaOperator.from_fermion_operator(FermionOperator.annihilation(0))
        assert (a0 * a0).simplify() == MajoranaOperator.zero()

    def test_modes_counting(self):
        hm = MajoranaOperator.from_fermion_operator(FermionOperator.number(2))
        assert hm.n_majoranas == 6
        assert hm.n_modes == 3


# ----------------------------------------------------------------------
# In-place expansion vs the original copy-per-term fold
# ----------------------------------------------------------------------
def _fold_reference(op: FermionOperator) -> MajoranaOperator:
    """The original expansion: ``total = total + factor`` per ladder term."""
    total = MajoranaOperator.zero()
    for actions, coeff in op.terms():
        factor = MajoranaOperator.identity(coeff)
        for mode, dagger in actions:
            even = MajoranaOperator.single(2 * mode, 0.5)
            odd = MajoranaOperator.single(2 * mode + 1, -0.5j if dagger else 0.5j)
            factor = factor * (even + odd)
        total = total + factor
    return total.simplify()


_LADDER_TERMS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=4).map(tuple),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=10,
)


def _same_terms_in_order(got: MajoranaOperator, want: MajoranaOperator) -> bool:
    return list(got.terms()) == list(want.terms())


@given(_LADDER_TERMS)
@settings(max_examples=80, deadline=None)
def test_in_place_expansion_matches_fold(terms):
    op = FermionOperator()
    for actions, coeff in terms:
        op.add_term(actions, coeff)
    assert _same_terms_in_order(
        MajoranaOperator.from_fermion_operator(op), _fold_reference(op)
    )


def test_in_place_expansion_matches_fold_on_syk():
    from repro.sources import build_case

    op = build_case("random:syk:n=8,seed=3")
    assert _same_terms_in_order(
        MajoranaOperator.from_fermion_operator(op), _fold_reference(op)
    )
