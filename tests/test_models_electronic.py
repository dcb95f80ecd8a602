"""Tests for the electronic-structure benchmark cases.

Includes the paper-exact regression values: our pipeline reproduces several
Table I Pauli weights to the digit (H2 JW=32, LiH-frz JW=192/BK=221/HATT=188,
H2O JW=6332/BK=6567/HATT=5545).
"""

import numpy as np
import pytest

from repro.fermion import MajoranaOperator
from repro.hatt import hatt_mapping
from repro.mappings import balanced_ternary_tree, bravyi_kitaev, jordan_wigner
from repro.models.electronic import (
    ELECTRONIC_CASES,
    electronic_case,
    electronic_case_names,
    fermion_hamiltonian_from_integrals,
)


class TestSecondQuantization:
    def test_one_body_only(self):
        h = np.array([[1.0, 0.5], [0.5, -2.0]])
        eri = np.zeros((2, 2, 2, 2))
        op = fermion_hamiltonian_from_integrals(h, eri, constant=3.0)
        # 4 diagonal-ish entries × 2 spins + constant.
        assert op.constant == pytest.approx(3.0)
        assert op.coefficient([(0, True), (0, False)]) == pytest.approx(1.0)
        assert op.coefficient([(2, True), (3, False)]) == pytest.approx(0.5)

    def test_hermitian(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(2, 2))
        h = h + h.T
        eri = rng.normal(size=(2, 2, 2, 2))
        # Impose the 8-fold real-orbital symmetry.
        eri = eri + eri.transpose(1, 0, 2, 3)
        eri = eri + eri.transpose(0, 1, 3, 2)
        eri = eri + eri.transpose(2, 3, 0, 1)
        op = fermion_hamiltonian_from_integrals(h, eri)
        hq = jordan_wigner(4).map(op)
        assert hq.is_hermitian()

    def test_same_spin_same_orbital_terms_skipped(self):
        h = np.zeros((1, 1))
        eri = np.ones((1, 1, 1, 1))
        op = fermion_hamiltonian_from_integrals(h, eri)
        # Only the αβ/βα cross terms survive for a single orbital.
        assert all(len(t) == 4 for t, _ in op.terms())
        assert len(op) == 2


class TestPaperRegression:
    """Pauli weights that match the paper's Table I exactly."""

    def test_h2_jw_weight_32(self):
        case = electronic_case("H2_sto3g")
        assert case.n_modes == 4
        hq = jordan_wigner(4).map(case.hamiltonian)
        assert hq.pauli_weight() == 32  # paper Table I
        assert len(hq) == 15

    def test_lih_frz_weights(self):
        case = electronic_case("LiH_sto3g_frz")
        assert case.n_modes == 6
        h = case.hamiltonian
        assert jordan_wigner(6).map(h).pauli_weight() == 192  # paper: 192
        assert bravyi_kitaev(6).map(h).pauli_weight() == 221  # paper: 221
        assert hatt_mapping(h, n_modes=6).map(h).pauli_weight() == 188  # paper: 188

    def test_h2_all_mappings_beat_nothing(self):
        """HATT ≤ all constructive baselines on H2 (paper: all tie at 32-36)."""
        case = electronic_case("H2_sto3g")
        h = case.hamiltonian
        hatt_w = hatt_mapping(h, n_modes=4).map(h).pauli_weight()
        jw_w = jordan_wigner(4).map(h).pauli_weight()
        assert hatt_w <= jw_w


class TestCaseMetadata:
    def test_case_names(self):
        names = electronic_case_names()
        assert "H2_sto3g" in names and "CO2_sto3g" in names
        assert len(names) == len(ELECTRONIC_CASES)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            electronic_case("C60_sto3g")

    def test_h2_metadata(self):
        case = electronic_case("H2_sto3g")
        assert case.n_electrons == 2
        assert case.scf_converged
        assert case.scf_energy == pytest.approx(-1.117, abs=3e-3)
        assert case.hf_occupation == [0, 2]

    def test_disk_cache_roundtrip(self):
        a = electronic_case("H2_sto3g")
        b = electronic_case("H2_sto3g")  # served from .cache
        assert a.core_energy == b.core_energy
        assert len(a.hamiltonian) == len(b.hamiltonian)


class TestPhysics:
    def test_h2_fci_energy(self):
        """Exact diagonalization of the mapped H2 Hamiltonian: published
        STO-3G FCI ≈ -1.1373 Ha near equilibrium."""
        case = electronic_case("H2_sto3g")
        hq = jordan_wigner(4).map(case.hamiltonian)
        assert hq.ground_energy() == pytest.approx(-1.1373, abs=3e-3)

    def test_hf_determinant_expectation_equals_scf(self):
        """⟨HF|H_Q|HF⟩ must equal the SCF energy for any mapping."""
        case = electronic_case("H2_sto3g")
        bits = 0
        for mode in case.hf_occupation:
            bits |= 1 << mode
        hq = jordan_wigner(4).map(case.hamiltonian)
        assert hq.expectation_basis_state(bits).real == pytest.approx(
            case.scf_energy, abs=1e-8
        )

    def test_spectrum_invariance_h2(self):
        case = electronic_case("H2_sto3g")
        h = case.hamiltonian
        ref = np.linalg.eigvalsh(jordan_wigner(4).map(h).to_matrix())
        for factory in (bravyi_kitaev, balanced_ternary_tree):
            ev = np.linalg.eigvalsh(factory(4).map(h).to_matrix())
            np.testing.assert_allclose(ev, ref, atol=1e-8)
        hatt = hatt_mapping(h, n_modes=4)
        ev = np.linalg.eigvalsh(hatt.map(h).to_matrix())
        np.testing.assert_allclose(ev, ref, atol=1e-8)

    def test_majorana_form_matches_fermionic(self):
        """Mapping the pre-expanded Majorana operator gives the same result."""
        case = electronic_case("H2_sto3g")
        m = jordan_wigner(4)
        direct = m.map(case.hamiltonian)
        via_majorana = m.map(
            MajoranaOperator.from_fermion_operator(case.hamiltonian)
        )
        assert direct == via_majorana


class TestIntegralCache:
    """The on-disk ``<case>.npz`` integral cache survives a bad file."""

    @staticmethod
    def _bits(case):
        return sorted(
            (term, complex(c).real.hex(), complex(c).imag.hex())
            for term, c in case.hamiltonian.terms()
        )

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "bare npy"])
    def test_unreadable_file_is_rebuilt(self, tmp_path, monkeypatch, damage):
        from repro.models import electronic

        monkeypatch.setattr(electronic, "_CACHE_DIR", tmp_path)
        fresh = electronic_case("H2_sto3g")
        path = tmp_path / "H2_sto3g.npz"
        good = path.read_bytes()
        if damage == "garbage":
            path.write_bytes(b"not an npz archive")
        elif damage == "truncated":
            path.write_bytes(good[: len(good) // 2])
        else:
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))

        rebuilt = electronic_case("H2_sto3g")

        assert self._bits(rebuilt) == self._bits(fresh)
        assert rebuilt.scf_energy == fresh.scf_energy
        with np.load(path) as data:
            h, eri, _, _ = electronic.case_integrals("H2_sto3g")
            assert np.array_equal(data["h"], h) and np.array_equal(data["eri"], eri)
        # The file was rewritten whole, through a temp file that is gone.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["H2_sto3g.npz"]
        assert self._bits(electronic_case("H2_sto3g")) == self._bits(fresh)
