"""Unit tests for QubitOperator (weighted Pauli sums)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paulis import PauliString, PauliTable, QubitOperator
from repro.paulis.table import _words_to_masks


def op_from(labels):
    return QubitOperator.from_label_dict(labels)


class TestBuilding:
    def test_combines_duplicates(self):
        h = QubitOperator(2)
        h.add_string(PauliString.from_label("XZ"), 1.0)
        h.add_string(PauliString.from_label("XZ"), 2.0)
        assert len(h) == 1
        assert h.coefficient(PauliString.from_label("XZ")) == pytest.approx(3.0)

    def test_phase_folding(self):
        h = QubitOperator(1)
        h.add_string(PauliString.from_label("X", phase=1), 1.0)  # i·X
        assert h.coefficient(PauliString.from_label("X")) == pytest.approx(1j)

    def test_exact_cancellation_removes_term(self):
        h = QubitOperator(1)
        h.add_string(PauliString.from_label("Z"), 1.0)
        h.add_string(PauliString.from_label("Z"), -1.0)
        assert len(h) == 0

    def test_simplify_tolerance(self):
        h = op_from({"XZ": 1e-14, "ZZ": 1.0})
        h.simplify()
        assert len(h) == 1

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
def dual_pairs(draw):
    """The same unique terms as a table-backed and a dict-built operator."""
    n = draw(st.integers(1, 70))
    mask = st.integers(0, (1 << n) - 1)
    coeff = st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False).filter(bool),
        st.complex_numbers(max_magnitude=2.0).filter(bool),
        st.sampled_from([1e-11, 2e-12, 1e-12 * (1 + 1e-9)]),
    )
    terms = draw(st.dictionaries(st.tuples(mask, mask), coeff, min_size=0, max_size=12))
    xs = [x for x, _ in terms]
    zs = [z for _, z in terms]
    table = PauliTable.from_masks(n, xs, zs)
    packed = table.to_qubit_operator(np.array(list(terms.values()), dtype=complex), tol=0.0)
    built = QubitOperator(n)
    for (x, z), c in terms.items():
        built.add_raw(x, z, c)
    return packed, built


def _as_dict(table, coeffs):
    keys = zip(_words_to_masks(table.x), _words_to_masks(table.z))
    return dict(zip(keys, coeffs.tolist()))


class TestDualForm:
    """A table-backed operator (``PauliTable.to_qubit_operator``) behaves
    like the dict-built one on every read; a write drops its table."""

    @given(dual_pairs())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dict_form(self, pair):
        packed, built = pair
        assert len(packed) == len(built)
        assert packed.pauli_weight() == built.pauli_weight()
        assert packed.pauli_weight(1e-10) == built.pauli_weight(1e-10)
        assert packed.max_weight() == built.max_weight()
        assert packed.is_hermitian() == built.is_hermitian()
        assert _as_dict(*packed.to_table()) == _as_dict(*built.to_table())
        assert packed._dict is None  # none of the above built the term dict
        copy = packed.copy()
        assert copy._dict is None and copy == built
        assert {(x, z): c for x, z, c in packed.raw_terms()} == built._terms
        assert packed == built and built == packed

    def test_to_table_returns_the_held_table(self):
        table = PauliTable.from_masks(3, [1, 2, 1], [0, 2, 0])
        op = table.to_qubit_operator(np.array([0.5, 1.0, 0.25]))
        held, coeffs = op.to_table()
        assert op.to_table()[0] is held
        assert len(op) == 2 and op.pauli_weight() == 2
        assert not coeffs.flags.writeable and not held.x.flags.writeable

    @pytest.mark.parametrize(
        "write",
        [
            lambda op: op.add_raw(4, 0, 1.0),
            lambda op: op.add_string(PauliString.from_label("ZII"), 1.0),
            lambda op: op.simplify(0.3),
        ],
        ids=["add_raw", "add_string", "simplify"],
    )
    def test_a_write_drops_the_table(self, write):
        table = PauliTable.from_masks(3, [1, 2], [0, 2])
        op = table.to_qubit_operator(np.array([0.5, 0.25]))
        held, _ = op.to_table()
        write(op)
        assert op._table is None
        repacked, coeffs = op.to_table()
        assert repacked is not held
        assert _as_dict(repacked, coeffs) == op._terms
        assert len(op) == len(op._terms)

    def test_copy_of_a_table_is_independent(self):
        table = PauliTable.from_masks(2, [1], [0])
        op = table.to_qubit_operator(np.array([0.5]))
        copy = op.copy()
        copy.add_raw(2, 0, 1.0)
        assert len(op) == 1 and len(copy) == 2


@pytest.fixture
def dict_builds(monkeypatch):
    """Count the table-to-dict unpackings of every ``QubitOperator``."""
    built = []
    original = QubitOperator._unpack

    def counting(self):
        built.append(len(self))
        return original(self)

    monkeypatch.setattr(QubitOperator, "_unpack", counting)
    return built


class TestNoTermDictOnTheHotPaths:
    def test_cold_compile_builds_no_dict(self, dict_builds):
        from repro.compile import CompilationPipeline
        from repro.sources import build_case

        m = CompilationPipeline(service=None).compile_one(
            build_case("hubbard:2x2"), "hatt", "sycamore"
        )
        assert m.routed_cx > 0 and m.pauli_weight > 0
        assert dict_builds == []

    def test_cold_served_map_builds_no_dict(self, dict_builds):
        from repro.serve.queue import execute_request

        doc = execute_request(
            {"case": "random:syk:n=6,seed=5", "job": "map", "kind": "hatt"}, None, False
        )
        assert doc["source"] == "compiled" and doc["pauli_weight"] > 0
        assert dict_builds == []
        # The counter itself works.
        list(PauliTable.from_masks(1, [1], [0]).to_qubit_operator(np.array([1.0])).raw_terms())
        assert dict_builds == [1]
