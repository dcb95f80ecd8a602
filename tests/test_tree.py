"""Tests for ternary-tree machinery: structure, extraction, vacuum pairing."""

import random

import pytest

from repro.mappings import TernaryTree, TreeNode, balanced_tree, jw_tree, parity_tree
from repro.paulis import PauliString


def build_random_tree(n_modes: int, rng: random.Random) -> TernaryTree:
    """Bottom-up random complete ternary tree (the HATT skeleton with random
    selections): start from 2N+1 leaves, repeatedly parent three random nodes."""
    pool = [TreeNode(leaf_index=i) for i in range(2 * n_modes + 1)]
    for qubit in range(n_modes):
        children = [pool.pop(rng.randrange(len(pool))) for _ in range(3)]
        parent = TreeNode(qubit=qubit)
        for branch, child in zip("XYZ", children):
            parent.attach(branch, child)
        pool.append(parent)
    return TernaryTree(pool[0], n_modes)


class TestStructure:
    def test_balanced_tree_counts(self):
        for n in [1, 2, 3, 5, 8, 13]:
            tree = balanced_tree(n)
            assert tree.n_internal == n
            assert tree.n_leaves == 2 * n + 1

    def test_jw_tree_counts(self):
        tree = jw_tree(4)
        tree.validate()
        assert tree.n_internal == 4
        assert tree.n_leaves == 9

    def test_validate_rejects_incomplete(self):
        root = TreeNode(qubit=0)
        root.attach("X", TreeNode(leaf_index=0))
        root.attach("Y", TreeNode(leaf_index=1))
        # Missing Z child.
        tree = TernaryTree(root, 1)
        with pytest.raises(ValueError):
            tree.validate()

    def test_duplicate_leaf_index_rejected(self):
        root = TreeNode(qubit=0)
        root.attach("X", TreeNode(leaf_index=0))
        root.attach("Y", TreeNode(leaf_index=0))
        root.attach("Z", TreeNode(leaf_index=2))
        with pytest.raises(ValueError):
            TernaryTree(root, 1)

    def test_attach_rejects_duplicate_branch(self):
        node = TreeNode(qubit=0)
        node.attach("X", TreeNode(leaf_index=0))
        with pytest.raises(ValueError):
            node.attach("X", TreeNode(leaf_index=1))

    def test_desc_z(self):
        tree = jw_tree(3)
        # descZ of root walks the whole Z chain to leaf 2N.
        assert tree.root.desc_z().leaf_index == 6


class TestExtraction:
    def test_single_mode_strings(self):
        tree = jw_tree(1)
        strings = tree.strings_by_leaf_index()
        assert [s.label() for s in strings] == ["X", "Y", "Z"]

    def test_paper_figure3_path(self):
        """Reproduce the paper's Fig. 3(c): path In2 -Y-> In0 -Z-> In1 -X-> leaf
        yields the string I3 Y2 X1 Z0."""
        q2, q0, q1 = TreeNode(qubit=2), TreeNode(qubit=0), TreeNode(qubit=1)
        leaf = TreeNode(leaf_index=0)
        q2.attach("Y", q0)
        q0.attach("Z", q1)
        q1.attach("X", leaf)
        partial = TernaryTree.__new__(TernaryTree)
        partial.n_qubits = 4
        s = partial.string_for_leaf(leaf)
        assert s == PauliString.from_compact("Y2X1Z0", n=4)
        assert s.compact() == "Y2X1Z0"

    def test_jw_strings_equal_textbook(self):
        tree = jw_tree(3)
        strings = tree.strings_by_leaf_index()
        assert strings[0] == PauliString.from_label("IIX")
        assert strings[1] == PauliString.from_label("IIY")
        assert strings[2] == PauliString.from_label("IXZ")
        assert strings[3] == PauliString.from_label("IYZ")
        assert strings[4] == PauliString.from_label("XZZ")
        assert strings[5] == PauliString.from_label("YZZ")
        assert strings[6] == PauliString.from_label("ZZZ")

    def test_balanced_tree_weight_bound(self):
        import math

        for n in [2, 4, 7, 12, 20]:
            tree = balanced_tree(n)
            bound = math.ceil(math.log(2 * n + 1, 3)) + 1
            for s in tree.strings_by_leaf_index():
                assert s.weight <= bound


class TestVacuumPairing:
    @pytest.mark.parametrize("builder", [jw_tree, parity_tree, balanced_tree])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_pairs_share_xy(self, builder, n):
        strings, discarded = builder(n).vacuum_pairing()
        assert len(strings) == 2 * n
        for j in range(n):
            even, odd = strings[2 * j], strings[2 * j + 1]
            shared = [
                q
                for q in range(n)
                if even.op_at(q) == "X" and odd.op_at(q) == "Y"
            ]
            assert len(shared) == 1
            q = shared[0]
            for other in range(n):
                if other == q:
                    continue
                pair = (even.op_at(other), odd.op_at(other))
                # Must act identically on |0>: equal, or a Z/I combination.
                assert pair[0] == pair[1] or set(pair) <= {"Z", "I"}

    def test_random_trees_pair_correctly(self):
        rng = random.Random(1234)
        for _ in range(20):
            n = rng.randint(1, 10)
            tree = build_random_tree(n, rng)
            tree.validate()
            strings, discarded = tree.vacuum_pairing()
            all_strings = strings + [discarded]
            # All 2N+1 extracted strings pairwise anticommute.
            for i in range(len(all_strings)):
                for j in range(i + 1, len(all_strings)):
                    assert all_strings[i].anticommutes_with(all_strings[j])


class TestTreeFromUidArrays:
    """Bulk export from uid arrays must match node-by-node construction."""

    def test_matches_incremental_build(self):
        from reference.hatt import ScalarHattConstruction
        from repro.fermion import FermionOperator, MajoranaOperator
        from repro.mappings import tree_from_uid_arrays

        hf = FermionOperator.number(0) + FermionOperator.hopping(0, 1)
        hm = MajoranaOperator.from_fermion_operator(hf)
        for vacuum in (True, False):
            # The scalar reference grows its tree node by node.
            c = ScalarHattConstruction(hm, 3, vacuum=vacuum)
            incremental = c.run()
            bulk = tree_from_uid_arrays(c.children_uids, 3)
            bulk.validate()
            assert (
                bulk.strings_by_leaf_index() == incremental.strings_by_leaf_index()
            )

    def test_caterpillar_from_uids(self):
        from repro.mappings import tree_from_uid_arrays

        # Bottom-up caterpillar on 2 modes: qubit 0 (uid 5) parents leaves
        # (0, 1, 2); qubit 1 (uid 6, the root) parents leaves 3, 4 and
        # qubit 0's node on its Z branch.
        tree = tree_from_uid_arrays([(0, 1, 2), (3, 4, 5)], 2)
        tree.validate()
        assert tree.n_internal == 2
        assert tree.root.qubit == 1
        assert tree.root.children["Z"].qubit == 0

    def test_wrong_length_rejected(self):
        from repro.mappings import tree_from_uid_arrays

        with pytest.raises(ValueError):
            tree_from_uid_arrays([(0, 1, 2)], 2)

    def test_unknown_uid_rejected(self):
        from repro.mappings import tree_from_uid_arrays

        with pytest.raises(ValueError):
            tree_from_uid_arrays([(0, 1, 99)], 1)

    def test_multiple_roots_rejected(self):
        from repro.mappings import tree_from_uid_arrays

        # Two internal nodes that each parent only leaves: disconnected.
        with pytest.raises(ValueError):
            tree_from_uid_arrays([(0, 1, 2), (3, 4, 0)], 2)
