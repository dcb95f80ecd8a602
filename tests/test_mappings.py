"""Tests for the stock fermion-to-qubit mappings and mapping application.

The heavy hitters here are the dense-matrix CAR checks and the
spectrum-invariance test: every valid mapping of the same fermionic
Hamiltonian must produce a qubit Hamiltonian with the identical spectrum.
"""

import numpy as np
import pytest

from repro.fermion import FermionOperator, MajoranaOperator
from repro.mappings import (
    FermionQubitMapping,
    balanced_ternary_tree,
    bravyi_kitaev,
    fenwick_sets,
    jordan_wigner,
    parity_mapping,
    symplectic_rank,
)
from repro.paulis import PauliString

ALL_MAPPINGS = [jordan_wigner, bravyi_kitaev, parity_mapping, balanced_ternary_tree]
MAPPING_IDS = ["JW", "BK", "Parity", "BTT"]


@pytest.mark.parametrize("factory", ALL_MAPPINGS, ids=MAPPING_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
class TestUniversalProperties:
    def test_valid(self, factory, n):
        m = factory(n)
        assert m.n_modes == n
        assert m.n_qubits == n
        assert m.is_valid()

    def test_vacuum_preservation(self, factory, n):
        assert factory(n).preserves_vacuum()

    def test_occupation_paulis_commute_and_hermitian(self, factory, n):
        m = factory(n)
        occs = [m.occupation_pauli(j) for j in range(n)]
        for p in occs:
            assert p.is_hermitian
        for i in range(n):
            for j in range(i + 1, n):
                assert occs[i].commutes_with(occs[j])


class TestJordanWigner:
    def test_strings_match_formula(self):
        m = jordan_wigner(4)
        for j in range(4):
            even = {q: "Z" for q in range(j)}
            even[j] = "X"
            odd = {q: "Z" for q in range(j)}
            odd[j] = "Y"
            assert m.majorana(2 * j) == PauliString.from_ops(even, 4)
            assert m.majorana(2 * j + 1) == PauliString.from_ops(odd, 4)

    def test_paper_section2c_majoranas(self):
        # Paper §II-C: M0=IX, M1=IY, M2=XZ, M3=YZ on two modes.
        m = jordan_wigner(2)
        assert m.majorana(0) == PauliString.from_label("IX")
        assert m.majorana(1) == PauliString.from_label("IY")
        assert m.majorana(2) == PauliString.from_label("XZ")
        assert m.majorana(3) == PauliString.from_label("YZ")

    def test_paper_equation1_mapping(self):
        """Map HF = c0 n0 + c1 n1 + c2 a†0a†1a0a1 and compare with §II-C."""
        c0, c1, c2 = 0.3, -0.7, 1.1
        hf = (
            FermionOperator.number(0, c0)
            + FermionOperator.number(1, c1)
            + FermionOperator.from_term(
                [(0, True), (1, True), (0, False), (1, False)], c2
            )
        )
        hq = jordan_wigner(2).map(hf)
        II = PauliString.from_label("II")
        IZ = PauliString.from_label("IZ")
        ZI = PauliString.from_label("ZI")
        ZZ = PauliString.from_label("ZZ")
        assert hq.coefficient(II) == pytest.approx((2 * c0 + 2 * c1 - c2) / 4)
        assert hq.coefficient(IZ) == pytest.approx((c2 - 2 * c0) / 4)
        assert hq.coefficient(ZI) == pytest.approx((c2 - 2 * c1) / 4)
        assert hq.coefficient(ZZ) == pytest.approx(-c2 / 4)
        assert hq.pauli_weight() == 1 + 1 + 2

    def test_number_operator(self):
        m = jordan_wigner(3)
        n1 = m.map(FermionOperator.number(1))
        assert n1.coefficient(PauliString.identity(3)) == pytest.approx(0.5)
        assert n1.coefficient(PauliString.single(3, 1, "Z")) == pytest.approx(-0.5)


class TestBravyiKitaev:
    def test_fenwick_sets_n4(self):
        sets = fenwick_sets(4)
        assert sets[0] == ({1, 3}, set(), set())
        assert sets[1] == ({3}, {0}, set())
        assert sets[2] == ({3}, {1}, {1})
        assert sets[3] == (set(), {1, 2}, set())

    def test_known_strings_n4(self):
        m = bravyi_kitaev(4)
        assert m.majorana(6) == PauliString.from_ops({3: "X", 2: "Z", 1: "Z"}, 4)
        assert m.majorana(7) == PauliString.from_ops({3: "Y"}, 4)

    def test_logarithmic_weight_growth(self):
        """BK string weight is O(log N); check a generous bound."""
        import math

        for n in [4, 8, 16, 32]:
            m = bravyi_kitaev(n)
            max_w = max(s.weight for s in m.strings)
            assert max_w <= 2 * math.ceil(math.log2(n)) + 2

    def test_bk_equals_parity_n2(self):
        # Classic coincidence at two modes.
        bk, par = bravyi_kitaev(2), parity_mapping(2)
        assert [s for s in bk.strings] == [s for s in par.strings]


class TestSymplecticRank:
    def test_full_rank_for_jw(self):
        m = jordan_wigner(5)
        assert symplectic_rank(m.strings, 5) == 10

    def test_dependent_set_detected(self):
        x = PauliString.from_label("XI")
        z = PauliString.from_label("ZI")
        y = x * z  # dependent on the first two
        assert symplectic_rank([x, z, y.with_phase(0)], 2) == 2

    def test_rejects_identity_string(self):
        strings = [PauliString.from_label("II"), PauliString.from_label("XX")]
        assert symplectic_rank(strings, 2) == 1


def dense_ladder_operators(mapping: FermionQubitMapping):
    """Build dense a†_j matrices from the mapping's Majorana strings."""
    out = []
    for j in range(mapping.n_modes):
        even = mapping.majorana(2 * j).to_matrix()
        odd = mapping.majorana(2 * j + 1).to_matrix()
        out.append((even - 1j * odd) / 2)
    return out


@pytest.mark.parametrize("factory", ALL_MAPPINGS, ids=MAPPING_IDS)
def test_car_relations_dense(factory):
    """Mapped ladder operators satisfy the CAR algebra exactly (3 modes)."""
    mapping = factory(3)
    adags = dense_ladder_operators(mapping)
    eye = np.eye(8)
    for i in range(3):
        ai = adags[i].conj().T
        for j in range(3):
            aj_dag = adags[j]
            anti = ai @ aj_dag + aj_dag @ ai
            np.testing.assert_allclose(anti, eye if i == j else 0 * eye, atol=1e-12)
            anti2 = adags[i] @ adags[j] + adags[j] @ adags[i]
            np.testing.assert_allclose(anti2, 0 * eye, atol=1e-12)


@pytest.mark.parametrize("factory", ALL_MAPPINGS, ids=MAPPING_IDS)
def test_vacuum_annihilated_dense(factory):
    mapping = factory(3)
    vac = np.zeros(8)
    vac[0] = 1.0
    for adag in dense_ladder_operators(mapping):
        a = adag.conj().T
        np.testing.assert_allclose(a @ vac, 0, atol=1e-12)


def random_hermitian_fermion_op(n_modes, rng):
    op = FermionOperator()
    for _ in range(6):
        i, j = rng.integers(0, n_modes, 2)
        op = op + FermionOperator.hopping(int(i), int(j), float(rng.normal()))
    for _ in range(3):
        i, j = rng.integers(0, n_modes, 2)
        op = op + FermionOperator.number(int(i)) * FermionOperator.number(int(j)) * float(
            rng.normal()
        )
    return op


def test_spectrum_invariance_across_mappings():
    """All valid mappings produce isospectral qubit Hamiltonians."""
    rng = np.random.default_rng(42)
    hf = random_hermitian_fermion_op(3, rng)
    spectra = []
    for factory in ALL_MAPPINGS:
        hq = factory(3).map(hf)
        assert hq.is_hermitian()
        spectra.append(np.linalg.eigvalsh(hq.to_matrix()))
    for other in spectra[1:]:
        np.testing.assert_allclose(spectra[0], other, atol=1e-9)


def test_map_majorana_rejects_out_of_range():
    m = jordan_wigner(2)
    op = MajoranaOperator.single(7)
    with pytest.raises(ValueError):
        m.map(op)


def test_mode_number_operator_expectation():
    m = balanced_ternary_tree(3)
    for j in range(3):
        nj = m.mode_number_operator(j)
        # Vacuum expectation must be 0 for a vacuum-preserving mapping.
        assert abs(nj.expectation_basis_state(0)) < 1e-12


# ----------------------------------------------------------------------
# FermionQubitMapping.check: the packed algebra check against the loops
# ----------------------------------------------------------------------
def _oracle_ok(mapping: FermionQubitMapping, vacuum: bool) -> bool:
    """The loop checks ``check`` packs: non-identity, pairwise
    anticommuting and, with ``vacuum``, vacuum-preserving strings."""
    return (
        all(not s.is_identity for s in mapping.strings)
        and mapping.anticommutation_ok()
        and (not vacuum or mapping.preserves_vacuum())
    )


def _check_ok(mapping: FermionQubitMapping, vacuum: bool) -> bool:
    try:
        mapping.check(vacuum=vacuum)
    except ValueError:
        return False
    return True


def _hatt(n: int, vacuum: bool) -> FermionQubitMapping:
    from repro.hatt import hatt_mapping
    from repro.sources import build_case

    return hatt_mapping(build_case(f"random:syk:n={n},seed=1"), vacuum=vacuum)


@pytest.mark.parametrize("factory", ALL_MAPPINGS, ids=MAPPING_IDS)
@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_check_accepts_stock_mappings(factory, n):
    factory(n).check(vacuum=True)


def test_check_vacuum_matches_loop_on_hatt():
    """HATT's Algorithm 3 pairing preserves the vacuum; the unpaired
    construction generally does not, and ``check`` must say so exactly when
    the loop does."""
    for n in (4, 6, 7):
        for vacuum in (True, False):
            mapping = _hatt(n, vacuum)
            assert _check_ok(mapping, vacuum=False)
            assert _check_ok(mapping, vacuum=True) == mapping.preserves_vacuum()
    assert not _check_ok(_hatt(6, vacuum=False), vacuum=True)


@pytest.mark.parametrize("seed", range(40))
def test_check_matches_loops_on_corrupted_strings(seed):
    """Flip one Pauli, or one phase, of one string of a valid mapping: the
    packed check rejects exactly what the loop checks reject."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    base = [jordan_wigner, bravyi_kitaev, balanced_ternary_tree][seed % 3](n)
    if seed % 4 == 3:
        base = _hatt(max(n, 4), vacuum=True)
        n = base.n_qubits
    strings = list(base.strings)
    i, q = int(rng.integers(len(strings))), int(rng.integers(n))
    s = strings[i]
    flip = int(rng.integers(4))  # x bit, z bit, both bits, or phase only
    x = s.x ^ ((flip in (0, 2)) << q)
    z = s.z ^ ((flip in (1, 2)) << q)
    phase = (s.phase + int(rng.integers(1, 4))) % 4 if flip == 3 else s.phase
    strings[i] = PauliString(n, x, z, phase)
    mapping = FermionQubitMapping(strings)
    for vacuum in (False, True):
        assert _check_ok(mapping, vacuum) == _oracle_ok(mapping, vacuum)


def test_check_reports_the_failure():
    strings = list(jordan_wigner(3).strings)
    with pytest.raises(ValueError, match="commute"):
        FermionQubitMapping([strings[0], strings[0]] + strings[2:]).check()
    with pytest.raises(ValueError, match="identity"):
        FermionQubitMapping([PauliString(3)] + strings[1:]).check()
    swapped = [strings[1], strings[0]] + strings[2:]
    FermionQubitMapping(swapped).check()
    with pytest.raises(ValueError, match="vacuum"):
        FermionQubitMapping(swapped).check(vacuum=True)
