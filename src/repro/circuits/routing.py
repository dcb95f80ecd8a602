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

Engine: each distinct unordered logical pair is a slot, and the two-qubit
gates become one slot-id array.  A gate whose endpoints are already
adjacent does no window work.  At a SWAP decision with two or more
candidates, one ``np.bincount`` of the horizon slice of that array,
weighted by the tiers, gives every slot its window weight ``w_s``; each
candidate ``(anchor, nb)`` scores ``32·d_front + Σ w_s·(d_after − d_before)``
over the weighted slots touching the logicals on ``anchor`` and ``nb`` —
a swap moves only those two, and the slot joining them keeps its distance,
so it is skipped.  That is the full window sum minus a per-decision
constant, so candidates rank exactly as under the full sum.  The decision
loop walks the two-qubit gates alone; the routed circuit is written in
packed form (:mod:`.circuit`), each stretch of gates between SWAPs
relabelled by one gather through the layout in force as the stretch closes.

The test oracle ``tests/reference/routing.py`` scans every window position
per candidate, accumulating the float score ``d_front + Σ_k w_k/32 · d_k``,
and emits one :class:`~repro.circuits.Gate` per routed gate.  All weights
are exact binary fractions and all partial sums stay far below 2^53, so
that arithmetic is exact; the engine's integer-valued score is exactly 32x
the oracle's minus a per-decision constant, so both emit bit-identical
gate sequences.

Determinism: candidate swap edges are enumerated in sorted order (front-gate
endpoints in gate order, neighbours ascending) and ties always break toward
the first candidate, so routing the same circuit twice yields the same gate
sequence.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter as _perf_counter

import networkx as nx
import numpy as np

from .circuit import Circuit
from .gates import GATE_NAMES

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

_SWAP = GATE_NAMES.index("swap")


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


def _graph_signature(graph: nx.Graph) -> tuple[tuple, tuple]:
    """Structural key: the sorted node and edge sets.

    O(E log E) per call — negligible against the BFS sweep it guards — and
    it changes whenever the graph gains/loses nodes or edges, so tables
    cached before a mutation are recomputed instead of silently reused.
    """
    edges = tuple(sorted((u, v) if u <= v else (v, u) for u, v in graph.edges))
    return tuple(sorted(graph.nodes)), edges


@lru_cache(maxsize=32)
def _tables(nodes: tuple, edges: tuple) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Distance matrix and ascending neighbour tuples of the graph with these
    nodes and edges, memoized per structure for the whole process (both
    immutable, since every caller shares them)."""
    n = len(nodes)
    if list(nodes) != list(range(n)):
        raise ValueError("coupling-graph nodes must be the integers 0..n-1")
    graph = nx.Graph(edges)
    graph.add_nodes_from(nodes)
    dist = np.full((n, n), -1, dtype=np.int32)
    for src, lengths in nx.all_pairs_shortest_path_length(graph):
        for dst, d in lengths.items():
            dist[src, dst] = d
    if (dist < 0).any():
        raise ValueError("coupling graph must be connected")
    dist.flags.writeable = False
    return dist, tuple(tuple(sorted(graph.neighbors(v))) for v in range(n))


def distance_matrix(graph: nx.Graph) -> np.ndarray:
    """All-pairs shortest-path distances as a read-only ``(n, n)`` int32 matrix.

    Memoized on the graph's structure, so routes onto any graph of one
    architecture pay the BFS sweep once per process — a cold pipeline builds
    a fresh graph per compile — while a mutated graph is recomputed instead
    of served stale distances.  Nodes must be the integers ``0..n-1`` (all
    :mod:`.architectures` graphs are).
    """
    return _tables(*_graph_signature(graph))[0]


def _sorted_adjacency(graph: nx.Graph) -> tuple[tuple[int, ...], ...]:
    """Per-node neighbour lists in ascending order (memoized like the distances)."""
    return _tables(*_graph_signature(graph))[1]


def initial_layout(circuit: Circuit, graph: nx.Graph) -> dict[int, int]:
    """Greedy placement: most-interacting logical pairs onto adjacent,
    high-degree physical qubits.  Fully deterministic: nodes are ranked by
    ``(-degree, node)``, hot pairs by ``(-count, pair)``, and neighbourhoods
    scanned in ascending order."""
    pairs, _, count = _pair_slots(circuit)
    return _layout_from_pairs(pairs, count, circuit.n_qubits, graph)


def _pair_slots(circuit: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct unordered qubit pairs of the two-qubit gates (``(k, 2)``,
    ascending), each such gate's index into them, and each pair's count."""
    n = circuit.n_qubits
    qubits = circuit.packed()[1]
    pairs = np.sort(qubits[qubits[:, 1] >= 0], axis=1).astype(np.int64)
    keys, slot, count = np.unique(
        pairs[:, 0] * n + pairs[:, 1], return_inverse=True, return_counts=True
    )
    return np.column_stack(divmod(keys, n)), slot.reshape(-1), count


def _layout_from_pairs(
    pairs: np.ndarray, count: np.ndarray, n_qubits: int, graph: nx.Graph
) -> dict[int, int]:
    """:func:`initial_layout` from the distinct pairs and their counts."""
    nodes_by_degree = sorted(graph.nodes, key=lambda v: (-graph.degree[v], v))
    layout: dict[int, int] = {}
    used: set[int] = set()
    hot_pairs = sorted(zip((-count).tolist(), map(tuple, pairs.tolist())))
    for _, (a, b) in hot_pairs:
        if a in layout and b in layout:
            continue
        if a not in layout and b not in layout:
            # The first adjacent free pair, preferring high degree.
            spot = next((
                (u, v) for u in nodes_by_degree if u not in used
                for v in sorted(graph.neighbors(u)) if v not in used
            ), None)
            if spot is not None:
                layout[a], layout[b] = spot
                used.update(spot)
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
    pairs, slot, count = _pair_slots(circuit)
    layout = _layout_from_pairs(pairs, count, circuit.n_qubits, graph)
    started = _perf_counter()
    routed = _route(circuit, graph, dist, layout, pairs, slot, lookahead)
    from ..obs.metrics import get_registry

    get_registry().histogram(
        "repro_routing_seconds",
        help="Wall time of SWAP-insertion routing runs.",
    ).observe(_perf_counter() - started)
    return routed


def _route(
    circuit: Circuit,
    graph: nx.Graph,
    dist: np.ndarray,
    layout: dict[int, int],
    pairs: np.ndarray,
    pid: np.ndarray,
    lookahead: int,
) -> RoutedCircuit:
    """Delta-scored engine (see the module docstring).

    The layout is two plain Python lists (logical -> physical and physical
    -> logical); each move of a logical is also logged, so the output is
    relabelled afterwards without keeping a layout per SWAP.
    """
    d: list[list[int]] = dist.tolist()
    adj = _sorted_adjacency(graph)
    n_logical = circuit.n_qubits
    phys = [0] * n_logical
    logical_of: list[int | None] = [None] * graph.number_of_nodes()
    for q, p in layout.items():
        phys[q] = p
        logical_of[p] = q

    # Slots are the distinct unordered logical pairs (distances are
    # symmetric), ``pid`` is each two-qubit gate's slot, and ``touching[l]``
    # lists ``(slot, partner)`` for every slot on ``l``.
    n_slots = len(pairs)
    touching: list[list[tuple[int, int]]] = [[] for _ in range(n_logical)]
    for slot, (a, b) in enumerate(pairs.tolist()):
        touching[a].append((slot, b))
        touching[b].append((slot, a))
    tiers = np.array([_offset_weight(k) for k in range(min(lookahead, len(pid)))], dtype=float)
    ops, qubits, params = circuit.packed()
    at_gate = np.flatnonzero(qubits[:, 1] >= 0)
    swap_at: list[int] = []  # index of the gate each SWAP precedes
    swaps: list[tuple[int, int]] = []
    # (logical, SWAPs placed so far, its physical) at the start and per move.
    moves = [(q, 0, p) for q, p in enumerate(phys)]

    # t: window start, the two-qubit gate after the front gate.
    front_gates = zip(at_gate.tolist(), *qubits[at_gate].T.tolist())
    for t, (i, a, b) in enumerate(front_gates, 1):
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
            swap_at.append(i)
            swaps.append((p1, p2))
            l1, l2 = logical_of[p1], logical_of[p2]
            if l1 is not None:
                phys[l1] = p2
                moves.append((l1, len(swaps), p2))
            if l2 is not None:
                phys[l2] = p1
                moves.append((l2, len(swaps), p1))
            logical_of[p1], logical_of[p2] = l2, l1
            pa, pb = phys[a], phys[b]

    # Gate i runs after ``before[i]`` SWAPs; each of its qubits sits where
    # that logical's last move up to then put it (-1 keys find no move).
    n, n_swaps = len(ops), len(swaps)
    swap_pos = np.array(swap_at, dtype=np.intp)
    before = np.searchsorted(swap_pos, np.arange(n), side="right")
    logical, when, where = np.array(moves, dtype=np.int64).T
    keys = logical * (n_swaps + 1) + when
    order = np.argsort(keys)
    slot_keys = qubits.astype(np.int64) * (n_swaps + 1) + before[:, None]
    last = np.searchsorted(keys[order], slot_keys, side="right")
    at = np.arange(n) + before
    swap_pos += np.arange(n_swaps)
    out_ops = np.full(n + n_swaps, _SWAP, dtype=np.uint8)
    out_qubits = np.empty((n + n_swaps, 2), dtype=np.int32)
    out_params = np.zeros((n + n_swaps, 3))
    out_ops[at], out_params[at] = ops, params
    out_qubits[at] = np.where(qubits < 0, -1, where[order][last - 1])
    out_qubits[swap_pos] = np.reshape(swaps, (-1, 2))
    # Every index is a valid physical qubit.
    out = Circuit.from_packed(graph.number_of_nodes(), out_ops, out_qubits, out_params)
    final = {q: phys[q] for q in range(n_logical)}
    return RoutedCircuit(out, layout, final)
