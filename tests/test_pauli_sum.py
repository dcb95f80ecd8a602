"""Unit tests for QubitOperator (weighted Pauli sums)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paulis import PauliString, PauliTable, QubitOperator, commutes

from reference.pauli_sum import DictPauliSum


def op_from(labels):
    return QubitOperator.from_label_dict(labels)


class TestBuilding:
    def test_combines_duplicates(self):
        xz = PauliString.from_label("XZ")
        h = QubitOperator.from_terms([(xz, 1.0), (xz, 2.0)])
        assert len(h) == 1
        assert h.coefficient(xz) == pytest.approx(3.0)

    def test_phase_folding(self):
        h = QubitOperator.from_terms([(PauliString.from_label("X", phase=1), 1.0)])  # i·X
        assert h.coefficient(PauliString.from_label("X")) == pytest.approx(1j)

    def test_exact_cancellation_removes_term(self):
        z = PauliString.from_label("Z")
        assert len(QubitOperator.from_terms([(z, 1.0), (z, -1.0)])) == 0
        h = op_from({"Z": 1.0})
        assert len(h - h) == 0

    def test_simplify_tolerance(self):
        h = op_from({"XZ": 1e-14, "ZZ": 1.0})
        assert len(h.simplify()) == 1
        assert len(h) == 2  # simplify returns a new operator

    def test_dict_constructor_keeps_the_dict_order(self):
        terms = {(3, 0): 0.5, (0, 1): -1.0, (0, 0): 2.0, (1, 2): 0.0}
        h = QubitOperator(2, terms)
        assert [((x, z), c) for x, z, c in h.raw_terms()] == list(terms.items())
        assert [(x, z) for x, z, _ in h.simplify().raw_terms()] == [(3, 0), (0, 1), (0, 0)]

    @pytest.mark.parametrize(
        "n, key",
        [(2, (8, 0)), (2, (0, 1 << 64)), (2, (-1, 0)), (70, (1 << 70, 0)), (70, (0, 1 << 200))],
    )
    def test_masks_outside_the_qubit_range_raise(self, n, key):
        with pytest.raises(ValueError, match="outside the qubit range"):
            QubitOperator(n, {key: 1.0})

    def test_holds_one_read_only_table(self):
        assert QubitOperator.__slots__ == ("n", "_table", "_coeffs")
        table = PauliTable.from_masks(3, [1, 2, 1], [0, 2, 0])
        op = QubitOperator.from_table(table, np.array([0.5, 1.0, 0.25]))
        held, coeffs = op.to_table()
        assert op.to_table()[0] is held
        assert len(op) == 2 and op.pauli_weight() == 2
        assert not coeffs.flags.writeable and not held.x.flags.writeable
        assert table.x.flags.writeable  # the caller's table is not adopted

    def test_from_terms_infers_n(self):
        h = QubitOperator.from_terms([(PauliString.from_label("XYZ"), 1.0)])
        assert h.n == 3

    def test_from_terms_empty_requires_n(self):
        with pytest.raises(ValueError):
            QubitOperator.from_terms([])
        assert len(QubitOperator.from_terms([], n=3)) == 0


class TestMetrics:
    def test_pauli_weight(self):
        h = op_from({"XYIZ": 0.5, "IIII": 3.0, "ZIII": 1.0})
        assert h.pauli_weight() == 4  # 3 + 0 + 1

    def test_pauli_weight_skips_negligible(self):
        h = op_from({"XYIZ": 1e-13, "ZIII": 1.0})
        assert h.pauli_weight() == 1

    def test_max_weight(self):
        h = op_from({"XYIZ": 0.5, "ZIII": 1.0})
        assert h.max_weight() == 3

    def test_hermiticity(self):
        assert op_from({"XX": 1.0, "ZI": -2.0}).is_hermitian()
        assert not op_from({"XX": 1j}).is_hermitian()


class TestArithmetic:
    def test_add_sub(self):
        a = op_from({"XX": 1.0})
        b = op_from({"XX": 2.0, "ZZ": 1.0})
        s = a + b
        assert s.coefficient(PauliString.from_label("XX")) == pytest.approx(3.0)
        d = b - a
        assert d.coefficient(PauliString.from_label("XX")) == pytest.approx(1.0)

    def test_scalar_mul(self):
        a = op_from({"XX": 1.0}) * 2.5
        assert a.coefficient(PauliString.from_label("XX")) == pytest.approx(2.5)
        b = 2.5 * op_from({"XX": 1.0})
        assert b == a

    def test_operator_product_dense(self):
        a = op_from({"XI": 1.0, "ZZ": 0.5})
        b = op_from({"YI": 2.0, "IZ": -1.0})
        np.testing.assert_allclose(
            (a * b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12
        )

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            op_from({"XX": 1.0}) + op_from({"X": 1.0})


class TestDense:
    def test_ground_energy_single_z(self):
        h = op_from({"Z": 1.0})
        assert h.ground_energy() == pytest.approx(-1.0)

    def test_expectation_basis_state(self):
        h = op_from({"ZI": 1.0, "IZ": 2.0, "XX": 5.0, "II": 0.25})
        # |10>: Z on qubit 1 -> -1, Z on qubit 0 -> +1, XX off-diagonal.
        assert h.expectation_basis_state(0b10) == pytest.approx(-1.0 + 2.0 + 0.25)

    def test_expectation_matches_dense(self):
        h = op_from({"ZZ": 0.3, "ZI": -1.2, "II": 0.7, "YY": 0.9})
        for bits in range(4):
            vec = np.zeros(4)
            vec[bits] = 1.0
            dense = vec @ h.to_matrix() @ vec
            assert h.expectation_basis_state(bits) == pytest.approx(dense)


@st.composite
def operator_pairs(draw):
    """Two term lists on one qubit count, over a shared pool of strings, with
    small-integer coefficients: duplicates, exact cancellations and zeros,
    and every sum exact."""
    n = draw(st.integers(1, 70))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=5))
    string = st.builds(
        lambda xz, k: PauliString(n, xz[0], xz[1], k), st.sampled_from(pool), st.integers(0, 3)
    )
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    terms = st.lists(st.tuples(string, coeff), max_size=12)
    return n, draw(terms), draw(terms)


def _as_dict(op: QubitOperator) -> dict:
    return {(x, z): c for x, z, c in op.raw_terms()}


class TestAgainstTheDictOracle:
    """Table arithmetic against the dict accumulation
    (``reference/pauli_sum.py``): with exact sums, the same keys and values."""

    @given(operator_pairs(), st.sampled_from([-2, 0, 1, 3j]), st.sampled_from([0.0, 1.5, 4.5]))
    @settings(max_examples=120, deadline=None)
    def test_arithmetic_matches(self, pair, scalar, tol):
        n, left, right = pair
        a, b = QubitOperator.from_terms(left, n=n), QubitOperator.from_terms(right, n=n)
        ra, rb = DictPauliSum.from_terms(n, left), DictPauliSum.from_terms(n, right)
        assert _as_dict(a) == ra.terms and _as_dict(b) == rb.terms
        assert _as_dict(a + b) == (ra + rb).terms
        assert _as_dict(a - b) == (ra - rb).terms
        assert _as_dict(a * scalar) == (ra * scalar).terms
        assert _as_dict(scalar * b) == (rb * scalar).terms
        assert _as_dict(a * b) == (ra * rb).terms
        assert (a == b) == (ra == rb)
        assert a == a + b - b
        assert _as_dict(a.simplify(tol)) == DictPauliSum(n, ra.terms).simplify(tol).terms
        assert len(a) == len(ra.terms)
        weights = [(x | z).bit_count() for x, z in ra.terms]
        assert a.pauli_weight() == sum(weights)  # no dust: every |c| ≥ 1
        assert a.max_weight() == max(weights, default=0)
        assert a.is_hermitian() == all(c.imag == 0 for c in ra.terms.values())

    @given(operator_pairs())
    @settings(max_examples=40, deadline=None)
    def test_dict_constructor_round_trips(self, pair):
        n, left, _ = pair
        ra = DictPauliSum.from_terms(n, left)
        op = QubitOperator(n, ra.terms)
        assert list(op.raw_terms()) == [(x, z, c) for (x, z), c in ra.terms.items()]
        assert op == QubitOperator.from_terms(left, n=n)
        for (x, z), c in ra.terms.items():
            assert op.coefficient(PauliString(n, x, z, 1)) == c * -1j


@st.composite
def lone_and_many(draw):
    """A one-term operator and an operator of distinct strings, both with
    arbitrary float coefficients (|c| > 1e-3, so no tolerance drops one):
    each product string is distinct, so nothing combines and every product
    coefficient is one rounded complex product."""
    n = draw(st.integers(1, 70))
    mask = st.integers(0, (1 << n) - 1)
    part = st.floats(-8.0, 8.0, allow_nan=False)
    coeff = st.builds(complex, part, part).filter(lambda c: abs(c) > 1e-3)

    def term(x, z):
        return PauliString(n, x, z, draw(st.integers(0, 3))), draw(coeff)

    lone = [term(draw(mask), draw(mask))]
    keys = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=8, unique=True))
    return n, lone, [term(x, z) for x, z in keys]


class TestProductRounding:
    """Operator products multiply coefficients with Python's complex product,
    which is commutative to the last bit (NumPy's complex ``*`` is not)."""

    def test_commuting_terms_leave_no_dust(self):
        x = QubitOperator.from_label_dict({"I": 0.4335004675872959 - 1j})
        y = QubitOperator.from_label_dict({"Z": 1 + 1.5j})
        assert len(x * y - y * x) == 0
        assert _as_dict(x * y) == _as_dict(y * x)

    @given(lone_and_many())
    @settings(max_examples=120, deadline=None)
    def test_products_match_the_dict_oracle_bit_for_bit(self, case):
        n, lone, many = case
        a, b = QubitOperator.from_terms(lone, n=n), QubitOperator.from_terms(many, n=n)
        ra, rb = DictPauliSum.from_terms(n, lone), DictPauliSum.from_terms(n, many)
        assert _as_dict(a * b) == (ra * rb).terms
        assert _as_dict(b * a) == (rb * ra).terms
        (x, z), = ra.terms
        anticommuting = {
            (x ^ x2, z ^ z2) for x2, z2 in rb.terms if not commutes(x, z, x2, z2)
        }
        assert set(_as_dict(a * b - b * a)) == anticommuting
