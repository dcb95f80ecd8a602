"""Architecture-adaptive HATT construction (``hatt-arch``) equivalence.

The distance-biased candidate selection must be bit-identical between the
packed-uint64 kernels and the scalar reference in ``tests/reference/hatt.py``
on every coupling graph, must reduce *exactly* to plain HATT when ``arch_weight=0`` (the
blended score becomes a monotone rescaling of the weight, preserving every
tie-break), and must survive multiword (> 64 term) Hamiltonians under a
memory budget that forces candidate chunking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.architectures import ARCHITECTURE_NAMES, architecture
from repro.fermion import MajoranaOperator
from repro.hatt import DEFAULT_ARCH_WEIGHT, HattConstruction, hatt_mapping

from reference.hatt import ScalarHattConstruction
from test_hatt_backends import block_budgets, multiword_hamiltonians

ARCHS = ("montreal", "sycamore", "ionq_forte")


@st.composite
def majorana_hamiltonians(draw):
    """Random Hermitian-support Hamiltonians on 1..6 modes."""
    n = draw(st.integers(min_value=1, max_value=6))
    n_terms = draw(st.integers(min_value=0, max_value=10))
    op = MajoranaOperator.zero()
    for _ in range(n_terms):
        size = draw(st.sampled_from([s for s in (1, 2, 4) if s <= 2 * n]))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=2 * n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        coeff = 1j if (size * (size - 1) // 2) % 2 else 1.0
        op = op + MajoranaOperator.from_term(sorted(indices), coeff)
    return n, op


def _run_both(op, n, **kwargs):
    scalar = ScalarHattConstruction(op, n, **kwargs)
    tree_s = scalar.run()
    vector = HattConstruction(op, n, **kwargs)
    tree_v = vector.run()
    return scalar, tree_s, vector, tree_v


def _dense_hamiltonian(n=6, n_terms=150, seed=11):
    rng = np.random.default_rng(seed)
    op = MajoranaOperator.zero()
    for _ in range(n_terms):
        size = int(rng.choice([2, 4]))
        idx = sorted(rng.choice(2 * n, size=size, replace=False).tolist())
        coeff = 1j if (size * (size - 1) // 2) % 2 else 1.0
        op = op + MajoranaOperator.from_term(idx, coeff)
    return n, op


class TestBitIdenticalAcrossArchitectures:
    @given(majorana_hamiltonians(), st.sampled_from(ARCHS))
    @settings(max_examples=30, deadline=None)
    def test_vacuum_trace(self, data, arch):
        n, op = data
        graph = architecture(arch)
        s, ts, v, tv = _run_both(op, n, vacuum=True, graph=graph)
        assert v.trace == s.trace
        assert v.step_weights == s.step_weights
        assert tv.strings_by_leaf_index() == ts.strings_by_leaf_index()

    @given(majorana_hamiltonians(), st.sampled_from(ARCHS))
    @settings(max_examples=20, deadline=None)
    def test_free_selection_trace(self, data, arch):
        n, op = data
        graph = architecture(arch)
        s, ts, v, tv = _run_both(op, n, vacuum=False, graph=graph)
        assert v.trace == s.trace
        assert tv.strings_by_leaf_index() == ts.strings_by_leaf_index()

    @given(
        majorana_hamiltonians(),
        st.sampled_from(ARCHS),
        st.sampled_from([0.25, 1.0, 2.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_nondefault_weights(self, data, arch, weight):
        n, op = data
        graph = architecture(arch)
        s, _, v, _ = _run_both(op, n, graph=graph, arch_weight=weight)
        assert v.trace == s.trace


class TestPlainHattEquivalence:
    @given(majorana_hamiltonians(), st.sampled_from(ARCHS))
    @settings(max_examples=25, deadline=None)
    def test_zero_weight_is_plain_hatt(self, data, arch):
        """``arch_weight=0`` rescales every score by the same constant, so
        selection order — including tie-breaks — matches plain HATT."""
        n, op = data
        graph = architecture(arch)
        for vacuum in (True, False):
            plain = HattConstruction(op, n, vacuum=vacuum)
            plain.run()
            biased = HattConstruction(
                op, n, vacuum=vacuum, graph=graph, arch_weight=0.0
            )
            biased.run()
            assert biased.trace == plain.trace
            assert biased.step_weights == plain.step_weights

    @given(majorana_hamiltonians())
    @settings(max_examples=25, deadline=None)
    def test_all_to_all_is_plain_hatt(self, data):
        """All physical distances are 1 on ionq_forte, so the penalty term
        vanishes at any weight and plain HATT falls out."""
        n, op = data
        biased = HattConstruction(
            op, n, graph=architecture("ionq_forte"), arch_weight=1.0
        )
        biased.run()
        plain = HattConstruction(op, n)
        plain.run()
        assert biased.trace == plain.trace


class TestMultiwordAndChunking:
    def test_multiword_masks_bit_identical(self):
        """> 64 terms spills into multiple uint64 words per node."""
        n, op = _dense_hamiltonian()
        assert len(op.support_terms()) > 64
        for arch in ("montreal", "sycamore"):
            graph = architecture(arch)
            for vacuum in (True, False):
                s, ts, v, tv = _run_both(op, n, vacuum=vacuum, graph=graph)
                assert v.trace == s.trace
                assert tv.strings_by_leaf_index() == ts.strings_by_leaf_index()

    @given(majorana_hamiltonians(), st.sampled_from(ARCHS))
    @settings(max_examples=15, deadline=None)
    def test_tiny_memory_budget(self, data, arch):
        """A budget far below one candidate grid must not change results."""
        n, op = data
        graph = architecture(arch)
        for vacuum in (True, False):
            scalar = ScalarHattConstruction(op, n, vacuum=vacuum, graph=graph)
            scalar.run()
            vector = HattConstruction(
                op, n, vacuum=vacuum, graph=graph, memory_budget=512
            )
            vector.run()
            assert vector.trace == scalar.trace

    def test_multiword_under_budget(self):
        n, op = _dense_hamiltonian(seed=7)
        graph = architecture("sycamore")
        scalar = ScalarHattConstruction(op, n, graph=graph)
        scalar.run()
        vector = HattConstruction(op, n, graph=graph, memory_budget=512)
        vector.run()
        assert vector.trace == scalar.trace


class TestMultiwordBlocks:
    @given(multiword_hamiltonians(), st.sampled_from(ARCHS))
    @settings(max_examples=10, deadline=None)
    def test_blocked_kernel_matches_scalar(self, data, arch):
        """Multi-word masks under every block shape, in both selection
        rules, score the distance penalty exactly as the scalar scan."""
        n, op = data
        graph = architecture(arch)
        for vacuum in (True, False):
            scalar = ScalarHattConstruction(op, n, vacuum=vacuum, graph=graph)
            tree_s = scalar.run()
            for budget in block_budgets(n):
                vector = HattConstruction(
                    op, n, vacuum=vacuum, graph=graph, memory_budget=budget
                )
                tree_v = vector.run()
                assert vector.trace == scalar.trace, (vacuum, budget)
                assert (
                    tree_v.strings_by_leaf_index() == tree_s.strings_by_leaf_index()
                ), (vacuum, budget)


class TestArchApi:
    def test_mapping_name(self):
        op = MajoranaOperator.from_term([0, 3], 1.0)
        m = hatt_mapping(op, n_modes=2, graph=architecture("montreal"))
        assert m.name == "HATT-arch"
        assert m.is_valid()
        assert m.preserves_vacuum()
        m_unopt = hatt_mapping(
            op, n_modes=2, vacuum=False, graph=architecture("montreal")
        )
        assert m_unopt.name == "HATT-arch-unopt"

    def test_weight_without_graph_rejected(self):
        with pytest.raises(ValueError):
            HattConstruction(MajoranaOperator.zero(), 2, arch_weight=0.5)

    def test_bad_weights_rejected(self):
        g = architecture("montreal")
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                HattConstruction(MajoranaOperator.zero(), 2, graph=g, arch_weight=bad)

    def test_too_many_modes_rejected(self):
        g = architecture("montreal")  # 27 qubits < 30 modes
        with pytest.raises(ValueError):
            HattConstruction(MajoranaOperator.zero(), 30, graph=g)

    def test_default_weight_exported(self):
        assert DEFAULT_ARCH_WEIGHT > 0
        assert "montreal" in ARCHITECTURE_NAMES
