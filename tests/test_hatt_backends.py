"""Kernel-versus-reference equivalence for the HATT construction engine.

The packed-bitmask kernels of :class:`HattConstruction` must be
bit-identical to the scalar scan in ``tests/reference/hatt.py``: same
selection trace (children uids and step weights) and same tree, across
random Majorana Hamiltonians, both ``vacuum`` modes and both ``cached``
settings — including when the memory budget forces the candidate kernels
to chunk.  Golden-value tests pin the H2/LiH construction traces so a
silent behavior change in either engine fails loudly.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermion import MajoranaOperator
from repro.hatt import HattConstruction, hatt_mapping
from repro.paulis.table import incidence_from_masks, plan_from_masks

from reference.hatt import ScalarHattConstruction, scalar_hatt_mapping

#: The kernel and its scalar oracle, for tests that must hold on both.
MAPPERS = pytest.mark.parametrize(
    "mapper", [hatt_mapping, scalar_hatt_mapping], ids=["vector", "scalar"]
)


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


@st.composite
def multiword_hamiltonians(draw):
    """65–400 distinct monomials on 4..8 modes: 2–7 words per mask row."""
    n = draw(st.integers(min_value=4, max_value=8))
    pool = [t for size in (1, 2, 4) for t in combinations(range(2 * n), size)]
    n_terms = draw(st.integers(min_value=65, max_value=min(400, len(pool))))
    op = MajoranaOperator.zero()
    for term in draw(st.randoms(use_true_random=False)).sample(pool, n_terms):
        coeff = 1j if (len(term) * (len(term) - 1) // 2) % 2 else 1.0
        op = op + MajoranaOperator.from_term(list(term), coeff)
    return n, op


def block_budgets(n):
    """The default budget, 512 bytes (a few grid rows and words per block),
    and two budgets whose popcount blocks split the word axis: one word
    per block, and about four."""
    m = 2 * n + 1
    return (None, 512, 9 * m * m, 36 * m * m)


def _run_both(op, n, **kwargs):
    scalar = ScalarHattConstruction(op, n, **kwargs)
    tree_s = scalar.run()
    vector = HattConstruction(op, n, **kwargs)
    tree_v = vector.run()
    return scalar, tree_s, vector, tree_v


class TestBitIdenticalTraces:
    @given(majorana_hamiltonians())
    @settings(max_examples=40, deadline=None)
    def test_vacuum_cached(self, data):
        n, op = data
        s, ts, v, tv = _run_both(op, n, vacuum=True, cached=True)
        assert v.trace == s.trace
        assert v.step_weights == s.step_weights
        assert tv.strings_by_leaf_index() == ts.strings_by_leaf_index()

    @given(majorana_hamiltonians())
    @settings(max_examples=25, deadline=None)
    def test_vacuum_uncached(self, data):
        n, op = data
        s, ts, v, tv = _run_both(op, n, vacuum=True, cached=False)
        assert v.trace == s.trace
        assert tv.strings_by_leaf_index() == ts.strings_by_leaf_index()

    @given(majorana_hamiltonians())
    @settings(max_examples=25, deadline=None)
    def test_free_selection(self, data):
        n, op = data
        s, ts, v, tv = _run_both(op, n, vacuum=False)
        assert v.trace == s.trace
        assert tv.strings_by_leaf_index() == ts.strings_by_leaf_index()

    @given(majorana_hamiltonians())
    @settings(max_examples=15, deadline=None)
    def test_tiny_memory_budget_forces_chunking(self, data):
        """A budget far below one candidate grid must not change results."""
        n, op = data
        for vacuum in (True, False):
            scalar = ScalarHattConstruction(op, n, vacuum=vacuum)
            scalar.run()
            vector = HattConstruction(op, n, vacuum=vacuum, memory_budget=512)
            vector.run()
            assert vector.trace == scalar.trace

    def test_multiword_masks(self):
        """> 64 terms spills into multiple uint64 words per node."""
        rng = np.random.default_rng(11)
        n = 6
        op = MajoranaOperator.zero()
        for _ in range(150):
            size = int(rng.choice([2, 4]))
            idx = sorted(rng.choice(2 * n, size=size, replace=False).tolist())
            coeff = 1j if (size * (size - 1) // 2) % 2 else 1.0
            op = op + MajoranaOperator.from_term(idx, coeff)
        assert len(op.support_terms()) > 64
        for vacuum in (True, False):
            s, ts, v, tv = _run_both(op, n, vacuum=vacuum)
            assert v.trace == s.trace
            assert tv.strings_by_leaf_index() == ts.strings_by_leaf_index()


class TestMultiwordBlocks:
    """Multi-word masks under every block shape of the word-blocked kernel."""

    @given(multiword_hamiltonians())
    @settings(max_examples=15, deadline=None)
    def test_blocked_kernel_matches_scalar(self, data):
        n, op = data
        assert len(op.support_terms()) > 64
        for kwargs in ({}, {"cached": False}, {"vacuum": False}):
            scalar = ScalarHattConstruction(op, n, **kwargs)
            tree_s = scalar.run()
            for budget in block_budgets(n):
                vector = HattConstruction(op, n, memory_budget=budget, **kwargs)
                tree_v = vector.run()
                assert vector.trace == scalar.trace, (kwargs, budget)
                assert (
                    tree_v.strings_by_leaf_index() == tree_s.strings_by_leaf_index()
                ), (kwargs, budget)


class TestGoldenTraces:
    """Pinned construction traces for the paper molecules (both engines)."""

    H2_TRACE = [
        (0, (0, 1, 8), 8),
        (1, (2, 3, 9), 8),
        (2, (4, 5, 10), 8),
        (3, (6, 7, 11), 8),
    ]
    LIH_FRZ_TRACE = [
        (0, (2, 3, 12), 26),
        (1, (8, 9, 13), 26),
        (2, (0, 1, 14), 30),
        (3, (4, 5, 15), 38),
        (4, (6, 7, 16), 38),
        (5, (10, 11, 17), 30),
    ]

    @MAPPERS
    def test_h2_trace(self, mapper):
        from repro.models.electronic import electronic_case

        case = electronic_case("H2_sto3g")
        mapping = mapper(case.hamiltonian, n_modes=case.n_modes)
        assert mapping.construction.trace == self.H2_TRACE
        # Paper Table I: HATT reaches total Pauli weight 32 on H2/STO-3G.
        assert mapping.map(case.hamiltonian).pauli_weight() == 32

    @MAPPERS
    def test_lih_frozen_trace(self, mapper):
        from repro.models.electronic import electronic_case

        case = electronic_case("LiH_sto3g_frz")
        mapping = mapper(case.hamiltonian, n_modes=case.n_modes)
        assert mapping.construction.trace == self.LIH_FRZ_TRACE


class TestBackendApi:
    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            HattConstruction(MajoranaOperator.zero(), 2, memory_budget=0)

    def test_unknown_backend_rejected(self):
        # The engine selector is gone: any backend= is an unexpected keyword.
        with pytest.raises(TypeError, match="backend"):
            HattConstruction(MajoranaOperator.zero(), 2, backend="gpu")

    def test_default_backend_is_vector(self):
        # The one engine is the packed-bitmask kernel; the scalar scan is
        # reachable only as the test oracle subclass.
        c = HattConstruction(MajoranaOperator.zero(), 2)
        assert not hasattr(c, "backend")
        assert isinstance(c._rows, np.ndarray) and c._rows.dtype == np.uint64
        assert not isinstance(c, ScalarHattConstruction)

    def test_children_uids_round_trip(self):
        from repro.mappings import tree_from_uid_arrays

        op = MajoranaOperator.from_term([0, 3], 1.0) + MajoranaOperator.from_term(
            [1, 2], 1.0
        )
        c = HattConstruction(op, 2)
        tree = c.run()
        rebuilt = tree_from_uid_arrays(c.children_uids, 2)
        rebuilt.validate()
        assert rebuilt.strings_by_leaf_index() == tree.strings_by_leaf_index()

    def test_empty_hamiltonian_both_backends(self):
        for mapper in (hatt_mapping, scalar_hatt_mapping):
            mapping = mapper(MajoranaOperator.zero(), n_modes=3)
            assert mapping.is_valid()
            assert mapping.preserves_vacuum()
            assert mapping.construction.step_weights == [0, 0, 0]


class TestPackIncidence:
    """The incidence packer HATT builds its rows with (the transpose of the
    monomial bitmasks) must agree with Python-int masks, across word
    boundaries on both axes."""

    @given(
        st.integers(min_value=1, max_value=140),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=139), max_size=6),
            max_size=130,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_int_reference(self, n_rows, sets):
        sets = [[i for i in s if i < n_rows] for s in sets]
        set_masks = [sum(1 << i for i in set(members)) for members in sets]
        n_words = max(1, -(-n_rows // 64))
        masks = np.array(
            [[(m >> (64 * w)) & (2**64 - 1) for w in range(n_words)] for m in set_masks],
            dtype=np.uint64,
        ).reshape(len(sets), n_words)
        packed = incidence_from_masks(masks, n_rows)
        assert packed.shape == (n_rows, max(1, -(-len(sets) // 64)))
        ref = [0] * n_rows
        for j, members in enumerate(sets):
            for i in set(members):
                ref[i] |= 1 << j
        for i in range(n_rows):
            got = 0
            for w in range(packed.shape[1] - 1, -1, -1):
                got = (got << 64) | int(packed[i, w])
            assert got == ref[i]
        plan = plan_from_masks(masks)
        assert [[int(i) - 1 for i in row if i] for row in plan] == [
            sorted(set(members)) for members in sets
        ]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            incidence_from_masks(np.array([[8]], dtype=np.uint64), 3)
