"""SWAP-insertion routing onto constrained architectures (Tetris stand-in).

SABRE-style lightweight router: logical qubits get an initial placement that
puts heavily-interacting logicals on high-degree physicals; every CX whose
endpoints are not adjacent triggers SWAPs along a shortest path, choosing at
each step the move that also helps upcoming gates.

Lookahead model: the window is the next ``lookahead`` two-qubit gates with
*decaying* integer weights — offsets ``[0, 4)`` weigh 8, ``[4, 16)`` weigh 4,
``[16, 64)`` weigh 2 and the rest weigh 1, with the front gate itself at 32.
Near-term gates dominate (routing quality matches a short uniform window)
while the long tail still breaks ties toward globally useful SWAPs.

Engine: each distinct logical pair gets a slot id once per route, and the
two-qubit gates become one slot-id array.  A gate whose endpoints are
already adjacent does no window work at all.  At a SWAP decision with two
or more candidates, one ``np.bincount`` of the horizon slice of that array,
weighted by the tiers, gives every slot its window weight ``w_s``; each
candidate ``(anchor, nb)`` then scores
``32·d_front + Σ w_s·(d_after − d_before)``, the sum running only over the
weighted slots that touch the logicals on ``anchor`` and ``nb``.  A swap
moves only those two logicals, so no other slot changes distance — and
neither does the slot joining the two, which is skipped.  The score is the
full window sum minus one per-decision constant, so it ranks candidates
exactly as the full sum does, at a cost set by the slots touching two
logicals rather than by the horizon.

The test oracle ``tests/reference/routing.py`` makes the same decisions by
per-candidate Python dict scans over every window position, accumulating
the float score ``d_front + Σ_k w_k/32 · d_k``.  All weights are exact
binary fractions and all partial sums stay far below 2^53, so that float
arithmetic is exact and order-independent; the engine's integer-valued
score is exactly 32x the oracle's minus a per-decision constant, so both
rank every candidate identically and emit bit-identical gate sequences.

Determinism: candidate swap edges are enumerated in sorted order (front-gate
endpoints in gate order, neighbours ascending) and ties always break toward
the first candidate, so routing the same circuit twice yields the same gate
sequence.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter as _perf_counter

import networkx as nx
import numpy as np

from .circuit import Circuit
from .gates import Gate

__all__ = [
    "route_circuit",
    "RoutedCircuit",
    "initial_layout",
    "distance_matrix",
    "DEFAULT_LOOKAHEAD",
]

#: Default lookahead horizon (number of upcoming two-qubit gates scored per
#: candidate SWAP).  Deep horizons are nearly free — a decision costs one
#: ``bincount`` of the horizon slice plus a scan of the slots touching the
#: two swapped logicals.
DEFAULT_LOOKAHEAD = 256

#: Decay schedule: window offsets below ``_TIER_BOUNDS[i]`` get weight
#: ``_TIER_WEIGHTS[i]``; offsets past the last bound get the final weight.
#: The front gate weighs ``_FRONT_WEIGHT``.  The scalar reference uses the
#: same weights divided by 32 (exact binary fractions).
_TIER_BOUNDS = (4, 16, 64)
_TIER_WEIGHTS = (8, 4, 2, 1)
_FRONT_WEIGHT = 32

#: Graph-attribute slots caching per-architecture routing tables.
_DIST_KEY = "_repro_distance_matrix"
_ADJ_KEY = "_repro_sorted_adjacency"


def _offset_weight(k: int) -> int:
    """Integer lookahead weight of the window gate at offset ``k``."""
    for bound, weight in zip(_TIER_BOUNDS, _TIER_WEIGHTS):
        if k < bound:
            return weight
    return _TIER_WEIGHTS[-1]


class RoutedCircuit:
    """Routing result: hardware circuit + layout bookkeeping."""

    def __init__(self, circuit: Circuit, initial: dict[int, int], final: dict[int, int]):
        self.circuit = circuit
        self.initial_layout = initial  # logical -> physical
        self.final_layout = final

    @property
    def cx_count(self) -> int:
        return self.circuit.cx_count

    @property
    def swap_count(self) -> int:
        return self.circuit.count("swap")

    def depth(self) -> int:
        return self.circuit.depth()


def _graph_signature(graph: nx.Graph) -> tuple[int, int]:
    """Cheap structural fingerprint: node count + hashed sorted edge set.

    O(E log E) per call — negligible against the BFS sweep it guards — and
    it changes whenever the graph gains/loses nodes or edges, so tables
    cached before a mutation are recomputed instead of silently reused.
    """
    edges = tuple(sorted((u, v) if u <= v else (v, u) for u, v in graph.edges))
    return (graph.number_of_nodes(), hash(edges))


def _cached_table(graph: nx.Graph, key: str, build):
    """Signature-validated memo slot on ``graph.graph[key]``."""
    sig = _graph_signature(graph)
    cached = graph.graph.get(key)
    if cached is not None and cached[0] == sig:
        return cached[1]
    value = build()
    graph.graph[key] = (sig, value)
    return value


def distance_matrix(graph: nx.Graph) -> np.ndarray:
    """All-pairs shortest-path distances as an ``(n, n)`` int32 matrix.

    Cached on ``graph.graph`` keyed by the graph's structural signature, so
    every route onto one architecture instance pays the BFS sweep once — the
    compilation pipeline reuses one graph per architecture across its whole
    mapping sweep — while mutating the graph afterwards invalidates the
    entry instead of serving stale distances.  Nodes must be the integers
    ``0..n-1`` (all :mod:`.architectures` graphs are).
    """

    def build() -> np.ndarray:
        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            raise ValueError("coupling-graph nodes must be the integers 0..n-1")
        dist = np.full((n, n), -1, dtype=np.int32)
        for src, lengths in nx.all_pairs_shortest_path_length(graph):
            for dst, d in lengths.items():
                dist[src, dst] = d
        if (dist < 0).any():
            raise ValueError("coupling graph must be connected")
        return dist

    return _cached_table(graph, _DIST_KEY, build)


def _sorted_adjacency(graph: nx.Graph) -> list[list[int]]:
    """Per-node neighbour lists in ascending order (cached on the graph)."""
    return _cached_table(
        graph,
        _ADJ_KEY,
        lambda: [sorted(graph.neighbors(v)) for v in range(graph.number_of_nodes())],
    )


def initial_layout(circuit: Circuit, graph: nx.Graph) -> dict[int, int]:
    """Greedy placement: most-interacting logical pairs onto adjacent,
    high-degree physical qubits.  Fully deterministic: nodes are ranked by
    ``(-degree, node)``, hot pairs by ``(-count, pair)``, and neighbourhoods
    scanned in ascending order."""
    return _layout_from_pairs(_two_qubit_pairs(circuit), circuit.n_qubits, graph)


def _layout_from_pairs(
    pairs: list[tuple[int, ...]], n_qubits: int, graph: nx.Graph
) -> dict[int, int]:
    """:func:`initial_layout` from the circuit's two-qubit pair list."""
    pair_usage: Counter = Counter()
    for (a, b), count in Counter(pairs).items():
        pair_usage[(a, b) if a < b else (b, a)] += count
    nodes_by_degree = sorted(graph.nodes, key=lambda v: (-graph.degree[v], v))
    layout: dict[int, int] = {}
    used: set[int] = set()
    hot_pairs = sorted(pair_usage.items(), key=lambda item: (-item[1], item[0]))
    for (a, b), _ in hot_pairs:
        if a in layout and b in layout:
            continue
        if a not in layout and b not in layout:
            # Find an adjacent free pair, preferring high degree.
            placed = False
            for u in nodes_by_degree:
                if u in used:
                    continue
                for v in sorted(graph.neighbors(u)):
                    if v not in used:
                        layout[a], layout[b] = u, v
                        used.update((u, v))
                        placed = True
                        break
                if placed:
                    break
        else:
            anchor, free = (a, b) if a in layout else (b, a)
            for v in sorted(graph.neighbors(layout[anchor])):
                if v not in used:
                    layout[free] = v
                    used.add(v)
                    break
    # Any remaining logicals (including idle ones) go to leftover physicals.
    for q in range(n_qubits):
        if q not in layout:
            spot = next(v for v in nodes_by_degree if v not in used)
            layout[q] = spot
            used.add(spot)
    return layout


def route_circuit(
    circuit: Circuit,
    graph: nx.Graph,
    lookahead: int = DEFAULT_LOOKAHEAD,
) -> RoutedCircuit:
    """Map ``circuit`` onto ``graph``; inserted SWAPs count as 3 CX.

    Output gates act on *physical* qubit indices.  The final layout records
    where each logical ended up (routing permutes qubits; semantics are
    preserved modulo that output permutation).
    """
    if lookahead < 0:
        raise ValueError(f"lookahead must be non-negative, got {lookahead}")
    if circuit.n_qubits > graph.number_of_nodes():
        raise ValueError(
            f"{circuit.n_qubits} logical qubits exceed the architecture's "
            f"{graph.number_of_nodes()}"
        )
    dist = distance_matrix(graph)  # also validates node labels + connectivity
    pairs = _two_qubit_pairs(circuit)
    layout = _layout_from_pairs(pairs, circuit.n_qubits, graph)
    started = _perf_counter()
    routed = _route(circuit, graph, dist, layout, pairs, lookahead)
    from ..obs.metrics import get_registry

    get_registry().histogram(
        "repro_routing_seconds",
        help="Wall time of SWAP-insertion routing runs.",
    ).observe(_perf_counter() - started)
    return routed


def _two_qubit_pairs(circuit: Circuit) -> list[tuple[int, ...]]:
    return [g.qubits for g in circuit.gates if len(g.qubits) == 2]


_GATE_NEW = Gate.__new__
_SET = object.__setattr__


def _relabel(gate: Gate, qubits: tuple[int, ...]) -> Gate:
    """Trusted Gate construction for the emission hot path.

    Bypasses dataclass validation: the name/params come from an already
    validated gate and the qubits are in-range physical indices by
    construction.  The scalar reference emits through this too, so the
    benchmarked gap between them is the scoring work, not object-construction
    overhead.
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


def _route(
    circuit: Circuit,
    graph: nx.Graph,
    dist: np.ndarray,
    layout: dict[int, int],
    pairs: list[tuple[int, ...]],
    lookahead: int,
) -> RoutedCircuit:
    """Delta-scored engine (see the module docstring).

    Layout bookkeeping is two plain Python lists (logical -> physical and
    physical -> logical); NumPy runs only the one ``bincount`` per scored
    decision.
    """
    d: list[list[int]] = dist.tolist()
    adj = _sorted_adjacency(graph)
    phys = [0] * circuit.n_qubits
    logical_of: list[int | None] = [None] * graph.number_of_nodes()
    for q, p in layout.items():
        phys[q] = p
        logical_of[p] = q

    # Slots are unordered logical pairs (distances are symmetric);
    # ``touching[l]`` lists ``(slot, partner)`` for every slot on ``l``.
    slot_of: dict[tuple[int, ...], int] = {}
    touching: list[list[tuple[int, int]]] = [[] for _ in range(circuit.n_qubits)]
    n_slots = 0
    for a, b in dict.fromkeys(pairs):
        slot = slot_of.get((b, a))
        if slot is None:
            slot, n_slots = n_slots, n_slots + 1
            touching[a].append((slot, b))
            touching[b].append((slot, a))
        slot_of[a, b] = slot
    pid = np.fromiter(map(slot_of.__getitem__, pairs), dtype=np.intp, count=len(pairs))
    tiers = np.array(
        [_offset_weight(k) for k in range(min(lookahead, len(pairs)))], dtype=np.float64
    )
    out_gates: list[Gate] = []

    t = 0  # window start: the two-qubit gate after the front gate
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            out_gates.append(_relabel(gate, (phys[gate.qubits[0]],)))
            continue
        a, b = gate.qubits
        t += 1
        pa, pb = phys[a], phys[b]
        while d[pa][pb] > 1:
            front = d[pa][pb]
            candidates = [
                (anchor, nb, row[nb])
                for anchor, row in ((pa, d[pb]), (pb, d[pa]))
                for nb in adj[anchor]
                if row[nb] < front
            ]
            if len(candidates) == 1:
                p1, p2, _ = candidates[0]
            else:
                window = pid[t : t + lookahead]
                # Integer-valued float weights: every sum below is exact.
                w = np.bincount(window, tiers[: len(window)], n_slots).tolist()
                best_score = None
                for anchor, nb, base in candidates:
                    l1, l2 = logical_of[anchor], logical_of[nb]
                    da, dn = d[anchor], d[nb]
                    score = _FRONT_WEIGHT * base
                    for slot, partner in touching[l1]:
                        ws = w[slot]
                        if ws and partner != l2:
                            q = phys[partner]
                            score += ws * (dn[q] - da[q])
                    if l2 is not None:
                        for slot, partner in touching[l2]:
                            ws = w[slot]
                            if ws and partner != l1:
                                q = phys[partner]
                                score += ws * (da[q] - dn[q])
                    if best_score is None or score < best_score:
                        best_score, p1, p2 = score, anchor, nb
            out_gates.append(_swap_gate(p1, p2))
            l1, l2 = logical_of[p1], logical_of[p2]
            if l1 is not None:
                phys[l1] = p2
            if l2 is not None:
                phys[l2] = p1
            logical_of[p1], logical_of[p2] = l2, l1
            pa, pb = phys[a], phys[b]
        out_gates.append(_relabel(gate, (pa, pb)))

    # Trusted: every index is a valid physical qubit.
    out = Circuit.trusted(graph.number_of_nodes(), out_gates)
    final = {q: phys[q] for q in range(circuit.n_qubits)}
    return RoutedCircuit(out, layout, final)
