"""Scalar SWAP router: per-candidate Python dict scans over the window.

The oracle for :func:`repro.circuits.route_circuit`.  It scores each
candidate SWAP by the float sum ``d_front + Σ_k w_k/32 · d_k`` over every
window position.  The engine scores, in integer-valued arithmetic, only the
change a swap makes to the window pairs on the two swapped logicals; its
score is exactly 32x this one minus a per-decision constant.  Both keep the
first minimum in the same candidate order, so they emit bit-identical gate
sequences (``test_routing.py`` and the Table IV bench assert it).  The
oracle emits one :class:`Gate` per routed gate through ``_relabel``, the
emission the engine used before it relabelled packed qubit arrays.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.circuits import Circuit, Gate
from repro.circuits.routing import (
    _FRONT_WEIGHT,
    DEFAULT_LOOKAHEAD,
    RoutedCircuit,
    _offset_weight,
    _sorted_adjacency,
    distance_matrix,
    initial_layout,
)

__all__ = ["scalar_route_circuit"]

_GATE_NEW = Gate.__new__
_SET = object.__setattr__


def _relabel(gate: Gate, qubits: tuple[int, ...]) -> Gate:
    """Trusted Gate construction for the emission hot path.

    Bypasses dataclass validation: the name/params come from an already
    validated gate and the qubits are in-range physical indices by
    construction.
    """
    g = _GATE_NEW(Gate)
    _SET(g, "name", gate.name)
    _SET(g, "qubits", qubits)
    _SET(g, "params", gate.params)
    return g


def _swap_gate(p1: int, p2: int) -> Gate:
    g = _GATE_NEW(Gate)
    _SET(g, "name", "swap")
    _SET(g, "qubits", (p1, p2))
    _SET(g, "params", ())
    return g


def scalar_route_circuit(
    circuit: Circuit, graph: nx.Graph, lookahead: int = DEFAULT_LOOKAHEAD
) -> RoutedCircuit:
    """:func:`repro.circuits.route_circuit` through the scalar engine."""
    if lookahead < 0:
        raise ValueError(f"lookahead must be non-negative, got {lookahead}")
    if circuit.n_qubits > graph.number_of_nodes():
        raise ValueError(
            f"{circuit.n_qubits} logical qubits exceed the architecture's "
            f"{graph.number_of_nodes()}"
        )
    dist = distance_matrix(graph)
    layout = initial_layout(circuit, graph)
    return _route_scalar(circuit, graph, dist, layout, lookahead)


def _route_scalar(
    circuit: Circuit,
    graph: nx.Graph,
    dist: np.ndarray,
    layout: dict[int, int],
    lookahead: int,
) -> RoutedCircuit:
    """Per-candidate Python dict scans over the window."""
    d: dict[int, dict[int, int]] = {
        v: {u: int(x) for u, x in enumerate(row)} for v, row in enumerate(dist)
    }
    adj = _sorted_adjacency(graph)
    weights = [_offset_weight(k) / _FRONT_WEIGHT for k in range(lookahead)]
    phys_of = dict(layout)
    logical_of = {p: q for q, p in phys_of.items()}
    out_gates: list[Gate] = []
    pairs = [g.qubits for g in circuit.gates if len(g.qubits) == 2]

    def do_swap(p1: int, p2: int) -> None:
        out_gates.append(_swap_gate(p1, p2))
        l1, l2 = logical_of.get(p1), logical_of.get(p2)
        if l1 is not None:
            phys_of[l1] = p2
        if l2 is not None:
            phys_of[l2] = p1
        logical_of[p1], logical_of[p2] = l2, l1

    t = 0  # index of the current gate within the two-qubit sequence
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            out_gates.append(_relabel(gate, (phys_of[gate.qubits[0]],)))
            continue
        window = pairs[t + 1 : t + 1 + lookahead]
        t += 1
        a, b = gate.qubits
        while d[phys_of[a]][phys_of[b]] > 1:
            pa, pb = phys_of[a], phys_of[b]
            best, best_score = None, None
            for anchor, other in ((pa, pb), (pb, pa)):
                threshold = d[anchor][other]
                for nb in adj[anchor]:
                    base = d[nb][other]
                    if base >= threshold:
                        continue
                    score = float(base)
                    for k, (la, lb) in enumerate(window):
                        qa, qb = phys_of[la], phys_of[lb]
                        # Effect of the candidate swap on this future pair.
                        if qa == anchor:
                            qa = nb
                        elif qa == nb:
                            qa = anchor
                        if qb == anchor:
                            qb = nb
                        elif qb == nb:
                            qb = anchor
                        score += weights[k] * d[qa][qb]
                    if best_score is None or score < best_score:
                        best_score, best = score, (anchor, nb)
            assert best is not None, "no distance-reducing swap found"
            do_swap(*best)
        out_gates.append(_relabel(gate, (phys_of[a], phys_of[b])))
    # Adopted unchecked: every index is a valid physical qubit.
    out = Circuit(graph.number_of_nodes())
    out.gates.extend(out_gates)
    return RoutedCircuit(out, layout, dict(phys_of))
