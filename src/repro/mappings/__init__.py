"""Fermion-to-qubit mappings: tree machinery, stock baselines, application."""

from .apply import map_fermion_operator, map_majorana_operator
from .io import load_mapping, mapping_from_dict, mapping_to_dict, save_mapping
from .base import FermionQubitMapping, symplectic_rank
from .standard import (
    balanced_ternary_tree,
    bravyi_kitaev,
    fenwick_sets,
    jordan_wigner,
    mapping_from_tree,
    parity_mapping,
)
from .tree import (
    TernaryTree,
    TreeNode,
    balanced_tree,
    jw_tree,
    parity_tree,
    tree_from_uid_arrays,
)

__all__ = [
    "FermionQubitMapping",
    "symplectic_rank",
    "map_fermion_operator",
    "map_majorana_operator",
    "load_mapping",
    "save_mapping",
    "mapping_to_dict",
    "mapping_from_dict",
    "jordan_wigner",
    "bravyi_kitaev",
    "parity_mapping",
    "balanced_ternary_tree",
    "mapping_from_tree",
    "fenwick_sets",
    "TernaryTree",
    "TreeNode",
    "balanced_tree",
    "jw_tree",
    "parity_tree",
    "tree_from_uid_arrays",
]
