"""Cross-backend equivalence for the HATT construction engine.

The packed-bitmask ``vector`` backend must be bit-identical to the
``scalar`` reference: same selection trace (children uids and step weights)
and same tree, across random Majorana Hamiltonians, both ``vacuum`` modes
and both ``cached`` settings — including when the memory budget forces the
candidate kernels to chunk.  Golden-value tests pin the H2/LiH construction
traces so a silent behavior change in either backend fails loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermion import MajoranaOperator
from repro.hatt import BACKENDS, HattConstruction, hatt_mapping
from repro.paulis.table import incidence_from_masks, plan_from_masks


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
    scalar = HattConstruction(op, n, backend="scalar", **kwargs)
    tree_s = scalar.run()
    vector = HattConstruction(op, n, backend="vector", **kwargs)
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
            scalar = HattConstruction(op, n, vacuum=vacuum, backend="scalar")
            scalar.run()
            vector = HattConstruction(
                op, n, vacuum=vacuum, backend="vector", memory_budget=512
            )
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


class TestGoldenTraces:
    """Pinned construction traces for the paper molecules (both backends)."""

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_h2_trace(self, backend):
        from repro.models.electronic import electronic_case

        case = electronic_case("H2_sto3g")
        mapping = hatt_mapping(case.hamiltonian, n_modes=case.n_modes, backend=backend)
        assert mapping.construction.trace == self.H2_TRACE
        # Paper Table I: HATT reaches total Pauli weight 32 on H2/STO-3G.
        assert mapping.map(case.hamiltonian).pauli_weight() == 32

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lih_frozen_trace(self, backend):
        from repro.models.electronic import electronic_case

        case = electronic_case("LiH_sto3g_frz")
        mapping = hatt_mapping(case.hamiltonian, n_modes=case.n_modes, backend=backend)
        assert mapping.construction.trace == self.LIH_FRZ_TRACE


class TestBackendApi:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            HattConstruction(MajoranaOperator.zero(), 2, backend="gpu")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            HattConstruction(MajoranaOperator.zero(), 2, memory_budget=0)

    def test_default_backend_is_vector(self):
        c = HattConstruction(MajoranaOperator.zero(), 2)
        assert c.backend == "vector"

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
        for backend in BACKENDS:
            mapping = hatt_mapping(
                MajoranaOperator.zero(), n_modes=3, backend=backend
            )
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
