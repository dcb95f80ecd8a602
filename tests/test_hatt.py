"""Tests for the HATT construction (paper Algorithms 1-3)."""

import numpy as np
import pytest

from repro.fermion import FermionOperator, MajoranaOperator
from repro.fermion.majorana import majorana_form
from repro.hatt import HattConstruction, hatt_mapping
from repro.mappings import balanced_ternary_tree, jordan_wigner
from repro.sources.registry import build_case

from reference.hatt import ScalarHattConstruction, scalar_hatt_mapping

#: The kernel and its scalar oracle (ids kept from the old engine names).
ENGINES = pytest.mark.parametrize(
    "engine", [HattConstruction, ScalarHattConstruction], ids=["vector", "scalar"]
)


def paper_eq3_hamiltonian() -> FermionOperator:
    """HF = a†0 a0 + 2 a†1 a†2 a1 a2 (paper Eq. 3)."""
    return FermionOperator.number(0) + 2.0 * FermionOperator.from_term(
        [(1, True), (2, True), (1, False), (2, False)]
    )


def paper_motivation_hamiltonian() -> MajoranaOperator:
    """HF = c1·M0 M5 + c2·M1 M3 (paper §III-B motivating example)."""
    return MajoranaOperator.from_term([0, 5], 1.0) + MajoranaOperator.from_term(
        [1, 3], 2.0
    )


class TestPaperExamples:
    @ENGINES
    def test_eq3_first_step_matches_paper(self, engine):
        """The paper's first step picks O0, O1, O6 with qubit-0 weight 1."""
        hm = MajoranaOperator.from_fermion_operator(paper_eq3_hamiltonian())
        c = engine(hm, 3, vacuum=True)
        c.run()
        qubit, children, w = c.trace[0]
        assert qubit == 0
        assert sorted(children) == [0, 1, 6]
        assert w == 1

    @ENGINES
    def test_eq3_second_step_weight(self, engine):
        hm = MajoranaOperator.from_fermion_operator(paper_eq3_hamiltonian())
        c = engine(hm, 3, vacuum=True)
        c.run()
        assert c.trace[1][2] == 2  # paper: total Pauli weight 2 on qubit 1

    def test_eq3_total_weight_equals_step_sum(self):
        mapping = hatt_mapping(paper_eq3_hamiltonian())
        hq = mapping.map(paper_eq3_hamiltonian())
        assert hq.pauli_weight() == sum(mapping.construction.step_weights)

    def test_motivation_example_beats_balanced_tree(self):
        """§III-B: adaptive tree reaches weight 3 where the balanced tree has 6."""
        hm = paper_motivation_hamiltonian()
        hatt = hatt_mapping(hm, n_modes=3, vacuum=False)
        hatt_w = hatt.map(hm).pauli_weight()
        btt_w = balanced_ternary_tree(3).map(hm).pauli_weight()
        assert hatt_w <= 3
        assert btt_w >= 6
        # The vacuum-preserving variant must still do no worse than balanced.
        hatt_vac = hatt_mapping(hm, n_modes=3, vacuum=True)
        assert hatt_vac.map(hm).pauli_weight() <= btt_w


class TestValidity:
    @pytest.mark.parametrize("vacuum", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_valid_mapping_quadratic_hamiltonian(self, vacuum, n):
        hf = FermionOperator()
        for j in range(n):
            hf = hf + FermionOperator.number(j, 1.0 + j)
        for j in range(n - 1):
            hf = hf + FermionOperator.hopping(j, j + 1, 0.5)
        mapping = hatt_mapping(hf, n_modes=n, vacuum=vacuum)
        assert mapping.n_modes == n
        assert mapping.is_valid()
        if vacuum:
            assert mapping.preserves_vacuum()

    def test_vacuum_default_preserves_vacuum(self):
        mapping = hatt_mapping(paper_eq3_hamiltonian())
        assert mapping.preserves_vacuum()

    def test_empty_hamiltonian_still_builds(self):
        mapping = hatt_mapping(MajoranaOperator.zero(), n_modes=4)
        assert mapping.is_valid()
        assert mapping.preserves_vacuum()

    def test_single_majorana_sum(self):
        """The Fig. 12 workload HF = Σ M_i."""
        n = 6
        hm = MajoranaOperator.zero()
        for i in range(2 * n):
            hm = hm + MajoranaOperator.single(i)
        mapping = hatt_mapping(hm, n_modes=n)
        assert mapping.is_valid()
        assert mapping.preserves_vacuum()

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            hatt_mapping(MajoranaOperator.single(9), n_modes=2)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            HattConstruction(MajoranaOperator.zero(), 0)

    def test_run_twice_rejected(self):
        c = HattConstruction(MajoranaOperator.zero(), 2)
        c.run()
        with pytest.raises(RuntimeError):
            c.run()


class TestCacheEquivalence:
    """Algorithm 3's O(1) maps must reproduce Algorithm 2's traversals exactly."""

    @pytest.mark.parametrize(
        "mapper", [hatt_mapping, scalar_hatt_mapping], ids=["vector", "scalar"]
    )
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_identical_trees(self, n, mapper):
        hf = FermionOperator()
        for j in range(n):
            hf = hf + FermionOperator.number(j)
        for j in range(n - 1):
            hf = hf + FermionOperator.hopping(j, j + 1, 0.3 * (j + 1))
        cached = mapper(hf, n_modes=n, cached=True)
        uncached = mapper(hf, n_modes=n, cached=False)
        assert cached.strings == uncached.strings
        assert cached.construction.trace == uncached.construction.trace


class TestQuality:
    def test_beats_or_ties_baselines_on_hubbard_like(self):
        """HATT should not lose to JW/BTT on a small coupled Hamiltonian."""
        hf = FermionOperator()
        for j in range(4):
            hf = hf + FermionOperator.number(j, 2.0)
        hf = hf + FermionOperator.hopping(0, 1) + FermionOperator.hopping(2, 3)
        hf = hf + FermionOperator.number(0) * FermionOperator.number(2) * 4.0
        hf = hf + FermionOperator.number(1) * FermionOperator.number(3) * 4.0
        hatt_w = hatt_mapping(hf).map(hf).pauli_weight()
        jw_w = jordan_wigner(4).map(hf).pauli_weight()
        btt_w = balanced_ternary_tree(4).map(hf).pauli_weight()
        assert hatt_w <= min(jw_w, btt_w)

    def test_unopt_close_to_opt(self):
        """Table VI shape: vacuum pairing costs ≲ a few % in Pauli weight."""
        hf = paper_eq3_hamiltonian()
        w_opt = hatt_mapping(hf, vacuum=True).map(hf).pauli_weight()
        w_unopt = hatt_mapping(hf, vacuum=False).map(hf).pauli_weight()
        assert abs(w_opt - w_unopt) <= max(2, int(0.2 * w_unopt))

    def test_mapped_weight_never_exceeds_step_sum(self):
        hf = FermionOperator()
        for j in range(5):
            hf = hf + FermionOperator.number(j)
            hf = hf + FermionOperator.hopping(j, (j + 2) % 5, 0.7)
        mapping = hatt_mapping(hf)
        assert mapping.map(hf).pauli_weight() <= sum(mapping.construction.step_weights)


class TestDeterminism:
    def test_same_input_same_output(self):
        hf = paper_eq3_hamiltonian()
        a = hatt_mapping(hf)
        b = hatt_mapping(hf)
        assert a.strings == b.strings

    def test_trace_lengths(self):
        mapping = hatt_mapping(paper_eq3_hamiltonian())
        assert len(mapping.construction.trace) == 3
        assert len(mapping.construction.step_weights) == 3


class TestSykDustTerms:
    """Pinned: the mapping keeps every term the Majorana form keeps.

    Seeds 1055, 1056 and 1057 build the same HATT trace, and each has 5036
    Majorana monomials.  Seed 1056 has two at |c| ≈ 1.25e-12: above the
    1e-12 Majorana-form tolerance.  Mapping apply and the Pauli weight use
    that same 1e-12 dust tolerance, so the two monomials map to two terms
    and all three seeds give one weight per SYK family and size.
    """

    MAPPED = {1055: (5036, 27772), 1056: (5036, 27772), 1057: (5036, 27772)}

    def test_seed_1056_keeps_two_dust_monomials(self):
        traces = set()
        for seed, (n_terms, weight) in self.MAPPED.items():
            h = build_case(f"random:syk:n=10,seed={seed}")
            mapping = hatt_mapping(h)
            traces.add(tuple(mapping.construction.trace))
            majorana = majorana_form(h)
            assert len(majorana) == 5036
            mapped = mapping.map(h)
            assert (len(mapped), mapped.pauli_weight()) == (n_terms, weight)
            dust = np.abs(majorana.bitmasks()[1])
            dust = dust[dust <= 1e-10]
            assert len(dust) == (2 if seed == 1056 else 0)
            assert (dust > 1e-12).all()
        assert len(traces) == 1
