"""HATT: Hamiltonian-Adaptive Ternary Tree fermion-to-qubit mapping.

Full reproduction of "HATT: Hamiltonian Adaptive Ternary Tree for Optimizing
Fermion-to-Qubit Mapping" (HPCA 2025), including every substrate the paper's
evaluation depends on.  See DESIGN.md for the system inventory.

Quickstart::

    from repro import hatt_mapping, jordan_wigner
    from repro.models import fermi_hubbard

    h = fermi_hubbard(2, 2)                  # 8-mode Fermi-Hubbard lattice
    mapping = hatt_mapping(h)                # Hamiltonian-adaptive mapping
    print(mapping.map(h).pauli_weight())     # < JW's weight
    print(jordan_wigner(8).map(h).pauli_weight())
"""

from .fermion import FermionOperator, MajoranaOperator
from .hatt import HattConstruction, hatt_mapping
from .mappings import (
    FermionQubitMapping,
    balanced_ternary_tree,
    bravyi_kitaev,
    jordan_wigner,
    parity_mapping,
)
from .paulis import PauliString, QubitOperator

__version__ = "1.17.0"

__all__ = [
    "PauliString",
    "QubitOperator",
    "FermionOperator",
    "MajoranaOperator",
    "FermionQubitMapping",
    "hatt_mapping",
    "HattConstruction",
    "jordan_wigner",
    "bravyi_kitaev",
    "parity_mapping",
    "balanced_ternary_tree",
    "__version__",
]
