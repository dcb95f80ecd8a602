"""Circuit substrate: IR, synthesis, optimization, diagonalization, routing."""

from .architectures import (
    architecture,
    heavy_hex,
    ionq_forte,
    manhattan,
    montreal,
    sycamore,
)
from .circuit import Circuit
from .diagonalize import (
    diagonalizing_circuit,
    group_commuting,
    grouped_evolution_circuit,
)
from .evolution import (
    TERM_ORDERS,
    evolution_term_circuit,
    mutual_support_chain,
    order_terms_lexicographic,
    trotter_circuit,
)
from .gates import Gate, gate_matrix
from .optimize import cancel_adjacent, fuse_single_qubit, optimize, to_cx_u3, zyz_angles
from .routing import (
    DEFAULT_LOOKAHEAD,
    RoutedCircuit,
    distance_matrix,
    initial_layout,
    route_circuit,
)
from .tableau import conjugate_pauli, conjugate_through_circuit

__all__ = [
    "Circuit",
    "Gate",
    "gate_matrix",
    "evolution_term_circuit",
    "trotter_circuit",
    "order_terms_lexicographic",
    "cancel_adjacent",
    "fuse_single_qubit",
    "optimize",
    "to_cx_u3",
    "zyz_angles",
    "conjugate_pauli",
    "conjugate_through_circuit",
    "group_commuting",
    "diagonalizing_circuit",
    "grouped_evolution_circuit",
    "architecture",
    "heavy_hex",
    "manhattan",
    "montreal",
    "sycamore",
    "ionq_forte",
    "route_circuit",
    "RoutedCircuit",
    "initial_layout",
    "distance_matrix",
    "DEFAULT_LOOKAHEAD",
    "TERM_ORDERS",
    "mutual_support_chain",
]
