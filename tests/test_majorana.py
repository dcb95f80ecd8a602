"""Tests for MajoranaOperator: Clifford-algebra relations and Eq. (2)/(3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermion import (
    FermionOperator,
    MajoranaOperator,
    normal_order_majorana_product,
)
from repro.fermion.majorana import majorana_form


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


class TestSimplify:
    def test_dust_rule_matches_the_expansion_kernel(self):
        """``simplify`` keeps what the kernel keeps at the 1e-12 tolerance.

        Python's ``abs`` rounds this coefficient to exactly 1e-12 (dropped),
        NumPy's to 1.0000000000000002e-12 (kept by ``_expand``).
        """
        import numpy as np

        c = complex(2.2071720335460267e-14, -9.99756389907778e-13)
        assert abs(c) == 1e-12 < np.abs(c)
        op = MajoranaOperator({(0, 1): c, (2,): 1e-13}).simplify()
        assert dict(op.terms()) == {(0, 1): c}


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


# ----------------------------------------------------------------------
# Packed-bitmask kernel vs the dict expansion it replaced
# ----------------------------------------------------------------------
def dict_expansion(op: FermionOperator) -> MajoranaOperator:
    """The tuple-by-tuple expansion ``from_fermion_operator`` ran before the
    bitmask kernel: multiply each ladder term out factor by factor with the
    dict algebra, then accumulate into one running operator in place."""
    total = MajoranaOperator.zero()
    for actions, coeff in op.terms():
        factor = MajoranaOperator.identity(coeff)
        for mode, dagger in actions:
            even = MajoranaOperator.single(2 * mode, 0.5)
            odd = MajoranaOperator.single(2 * mode + 1, -0.5j if dagger else 0.5j)
            factor = factor * (even + odd)
        for term, value in factor.terms():
            total.add_term(term, value)
    return total.simplify()


def _exactly_equal(got: MajoranaOperator, want: MajoranaOperator) -> bool:
    """Same monomials in the same order with bit-identical coefficients."""

    def bits(op):
        return [(t, complex(c).real.hex(), complex(c).imag.hex()) for t, c in op.terms()]

    return bits(got) == bits(want)


_COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 1j, -0.25j, 1 + 1j, 1.0 + 5e-324j]),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _ladder_operators(draw):
    """Ladder operators with repeated modes, non-normal-ordered products,
    identity terms, k up to 6, and (with wide modes) > 64 Majoranas.  A term
    may be followed by a swapped copy that cancels it exactly, and then by
    its product with a number operator, which re-inserts the cancelled
    monomials among new ones."""
    n_modes = draw(st.sampled_from([2, 3, 40]))
    action = st.tuples(st.integers(0, n_modes - 1), st.booleans())
    op = FermionOperator()
    for _ in range(draw(st.integers(0, 8))):
        actions = tuple(draw(st.lists(action, max_size=6)))
        coeff = draw(_COEFFS)
        op.add_term(actions, coeff)
        if len(actions) >= 2 and actions[0][0] != actions[1][0] and draw(st.booleans()):
            # a_p a_q = -a_q a_p for p != q: the swapped term with the same
            # coefficient sums every Majorana contribution to exact zero.
            swapped = (actions[1], actions[0]) + actions[2:]
            op.add_term(swapped, coeff)
            if len(actions) <= 4 and draw(st.booleans()):
                mode = draw(st.integers(0, n_modes - 1))
                op.add_term(actions + ((mode, True), (mode, False)), draw(_COEFFS))
    return op


@given(_ladder_operators())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_dict_expansion(op):
    assert _exactly_equal(MajoranaOperator.from_fermion_operator(op), dict_expansion(op))


@pytest.mark.parametrize(
    "case", ["H2_sto3g", "hubbard:4x4", "neutrino:2x2F", "random:syk:n=6,seed=2"]
)
def test_kernel_matches_dict_expansion_on_cases(case):
    from repro.sources import build_case

    op = build_case(case)
    assert _exactly_equal(MajoranaOperator.from_fermion_operator(op), dict_expansion(op))


def test_cancelled_monomial_reinserts_at_the_end():
    """A monomial whose running sum hits exact zero leaves the operator; a
    later contribution re-inserts it after every surviving monomial."""
    op = FermionOperator()
    op.add_term(((0, True), (1, False)), 1.0)
    op.add_term(((1, False), (0, True)), 1.0)  # cancels the first term
    op.add_term(((2, True),), 1.0)
    op.add_term(((0, True), (1, False), (3, True), (3, False)), 2.0)
    got = MajoranaOperator.from_fermion_operator(op)
    assert _exactly_equal(got, dict_expansion(op))
    order = [t for t, _ in got.terms()]
    assert order[:2] == [(4,), (5,)]
    assert order.index((0, 2)) > 1 and got.coefficient((0, 2)) == 0.25


def test_kernel_uses_several_words_past_64_majoranas():
    op = FermionOperator.hopping(3, 40, 0.5) + FermionOperator.number(39)
    got = MajoranaOperator.from_fermion_operator(op)
    masks, _ = got.bitmasks()
    assert masks.shape == (len(got), 2) and got.n_majoranas == 82
    assert _exactly_equal(got, dict_expansion(op))


def test_bitmasks_of_a_dict_built_operator():
    op = MajoranaOperator({(0, 65): 1.0, (): 0.5, (3,): 2j})
    masks, coeffs = op.bitmasks()
    assert masks.tolist() == [[1, 2], [0, 0], [8, 0]]
    assert coeffs.tolist() == [1.0, 0.5, 2j]
    assert not masks.flags.writeable
    op.add_term((3,), 1.0)
    assert op.bitmasks()[1].tolist() == [1.0, 0.5, 1 + 2j]


def test_copy_of_a_converted_operator_is_independent():
    original = MajoranaOperator.from_fermion_operator(FermionOperator.number(40))
    before = list(original.terms())
    clone = original.copy()
    clone.add_term((0,), 1.0)
    assert list(original.terms()) == before
    assert len(clone) == len(before) + 1


# ----------------------------------------------------------------------
# Convert once: the Majorana memo on FermionOperator
# ----------------------------------------------------------------------
def test_majorana_form_memoized_until_add_term():
    h = FermionOperator.hopping(0, 1, 0.7)
    first = majorana_form(h)
    assert majorana_form(h) is first
    h.add_term(((1, True), (1, False)), 2.0)
    second = majorana_form(h)
    assert second is not first
    assert second == MajoranaOperator.from_fermion_operator(h)
    assert second.coefficient((2, 3)) == pytest.approx(1.0j)


def test_public_conversion_returns_a_fresh_operator():
    h = FermionOperator.number(0) + FermionOperator.hopping(0, 1, 0.3)
    shared = majorana_form(h)
    out = MajoranaOperator.from_fermion_operator(h)
    assert out is not shared
    before = list(out.terms())
    out.add_term((0, 1), 5.0)
    out.add_term((7,), 1.0)
    again = MajoranaOperator.from_fermion_operator(h)
    assert list(again.terms()) == before
    assert list(majorana_form(h).terms()) == before
