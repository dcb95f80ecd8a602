"""Tests for architectures and the SWAP-insertion router."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    architecture,
    heavy_hex,
    initial_layout,
    ionq_forte,
    manhattan,
    montreal,
    route_circuit,
    sycamore,
)

from reference.routing import scalar_route_circuit

#: The kernel and its scalar oracle.
ROUTERS = (route_circuit, scalar_route_circuit)


class TestArchitectures:
    def test_qubit_counts(self):
        assert manhattan().number_of_nodes() == 65
        assert montreal().number_of_nodes() == 27
        assert sycamore().number_of_nodes() == 54
        assert ionq_forte().number_of_nodes() == 36

    def test_heavy_hex_sparse(self):
        for g in (manhattan(), montreal()):
            assert max(dict(g.degree).values()) <= 3
            assert nx.is_connected(g)

    def test_sycamore_grid_degree(self):
        g = sycamore()
        assert max(dict(g.degree).values()) <= 4
        assert nx.is_connected(g)

    def test_ionq_all_to_all(self):
        g = ionq_forte()
        assert g.number_of_edges() == 36 * 35 // 2

    def test_lookup(self):
        assert architecture("Montreal").number_of_nodes() == 27
        with pytest.raises(ValueError):
            architecture("osprey")

    def test_heavy_hex_generic(self):
        g = heavy_hex(2, 5, 4)
        assert g.number_of_nodes() == 10 + 2
        assert nx.is_connected(g)


def ghz_circuit(n):
    c = Circuit(n)
    c.add("h", 0)
    for i in range(n - 1):
        c.add("cx", i, i + 1)
    return c


def long_range_circuit(n):
    """Deliberately non-local CX pattern to force swaps."""
    c = Circuit(n)
    for i in range(n // 2):
        c.add("cx", i, n - 1 - i)
    return c


class TestLayout:
    def test_layout_is_injective(self):
        c = long_range_circuit(8)
        layout = initial_layout(c, montreal())
        assert len(set(layout.values())) == c.n_qubits

    def test_hot_pair_adjacent(self):
        g = montreal()
        c = Circuit(4)
        for _ in range(5):
            c.add("cx", 0, 1)
        layout = initial_layout(c, g)
        assert g.has_edge(layout[0], layout[1])


class TestRouting:
    @pytest.mark.parametrize("arch", ["montreal", "sycamore"])
    def test_all_cx_respect_coupling(self, arch):
        g = architecture(arch)
        routed = route_circuit(long_range_circuit(10), g)
        for gate in routed.circuit.gates:
            if gate.is_two_qubit:
                assert g.has_edge(*gate.qubits), f"{gate} violates coupling"

    def test_no_swaps_on_all_to_all(self):
        routed = route_circuit(long_range_circuit(12), ionq_forte())
        assert routed.swap_count == 0

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError):
            route_circuit(ghz_circuit(30), montreal())

    def test_disconnected_graph_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            route_circuit(ghz_circuit(2), g)

    def test_semantics_preserved_modulo_layout(self):
        """Routed circuit equals the original up to the qubit permutations
        recorded in the layouts (checked on statevectors)."""
        from repro.sim import Statevector

        line = nx.path_graph(4)
        circuit = Circuit(3)
        circuit.add("h", 0).add("cx", 0, 2).add("cx", 2, 1).add("x", 1)
        routed = route_circuit(circuit, line)

        reference = Statevector(3).apply_circuit(circuit)
        hw = Statevector(routed.circuit.n_qubits).apply_circuit(routed.circuit)

        # Read amplitudes back through the final layout.
        n_l = circuit.n_qubits
        for bits in range(1 << n_l):
            phys_bits = 0
            for logical in range(n_l):
                if (bits >> logical) & 1:
                    phys_bits |= 1 << routed.final_layout[logical]
            assert abs(hw.amplitudes[phys_bits]) == pytest.approx(
                abs(reference.amplitudes[bits]), abs=1e-9
            )

    def test_swap_count_grows_with_distance(self):
        line = nx.path_graph(10)
        near = Circuit(10)
        near.add("cx", 0, 1)
        far = Circuit(10)
        far.add("cx", 0, 9)
        # Force the trivial-ish layout by using all qubits equally first.
        r_near = route_circuit(near, line)
        r_far = route_circuit(far, line)
        assert r_far.circuit.cx_count >= r_near.circuit.cx_count


class TestDistanceMatrix:
    def test_cached_on_graph(self):
        from repro.circuits import distance_matrix

        g = montreal()
        d1 = distance_matrix(g)
        d2 = distance_matrix(g)
        assert d1 is d2  # second call is the cached object

    def test_matches_networkx(self):
        from repro.circuits import distance_matrix

        g = sycamore()
        d = distance_matrix(g)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for u in g.nodes:
            for v in g.nodes:
                assert d[u, v] == lengths[u][v]

    def test_disconnected_rejected(self):
        from repro.circuits import distance_matrix

        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            distance_matrix(g)

    def test_non_contiguous_nodes_rejected(self):
        from repro.circuits import distance_matrix

        g = nx.Graph()
        g.add_edge(10, 11)
        with pytest.raises(ValueError):
            distance_matrix(g)

    def test_cache_invalidated_on_mutation(self):
        """Mutating a graph after the first call must recompute distances."""
        from repro.circuits import distance_matrix

        g = nx.path_graph(4)
        d1 = distance_matrix(g)
        assert d1[0, 3] == 3
        g.add_edge(0, 3)  # shortcut changes every long-range distance
        d2 = distance_matrix(g)
        assert d2 is not d1
        assert d2[0, 3] == 1
        # Stable again once the edge set stops changing.
        assert distance_matrix(g) is d2

    def test_cache_invalidated_on_node_growth(self):
        from repro.circuits import distance_matrix

        g = nx.path_graph(3)
        d1 = distance_matrix(g)
        g.add_edge(2, 3)
        d2 = distance_matrix(g)
        assert d2.shape == (4, 4)
        assert d1.shape == (3, 3)


class TestDeterminism:
    def test_route_twice_identical(self):
        """Regression: SWAP ties used to be broken by dict iteration order."""
        circ = long_range_circuit(10)
        for arch in ("montreal", "sycamore"):
            for route in ROUTERS:
                g1, g2 = architecture(arch), architecture(arch)
                r1 = route(circ, g1)
                r2 = route(circ, g2)
                assert r1.circuit.gates == r2.circuit.gates, (arch, route)
                assert r1.initial_layout == r2.initial_layout
                assert r1.final_layout == r2.final_layout

    def test_layout_deterministic(self):
        circ = long_range_circuit(8)
        layouts = {tuple(sorted(initial_layout(circ, montreal()).items()))
                   for _ in range(3)}
        assert len(layouts) == 1


class TestBackendEquivalence:
    @pytest.mark.parametrize("arch", ["manhattan", "montreal", "sycamore", "ionq_forte"])
    @pytest.mark.parametrize("lookahead", [0, 1, 4, 17, 256])
    def test_vector_matches_scalar(self, arch, lookahead):
        g = architecture(arch)
        circ = long_range_circuit(12)
        vec = route_circuit(circ, g, lookahead=lookahead)
        sca = scalar_route_circuit(circ, g, lookahead=lookahead)
        assert vec.circuit.gates == sca.circuit.gates
        assert vec.initial_layout == sca.initial_layout
        assert vec.final_layout == sca.final_layout

    def test_unknown_backend_rejected(self):
        # The router has one engine; backend= is an unexpected keyword.
        with pytest.raises(TypeError, match="backend"):
            route_circuit(ghz_circuit(3), montreal(), backend="cuda")

    def test_negative_lookahead_rejected(self):
        """A negative horizon has no meaning: both engines refuse it before
        any work rather than route as if it were 0 (an empty window)."""
        for route in ROUTERS:
            with pytest.raises(ValueError):
                route(ghz_circuit(3), montreal(), lookahead=-1)


#: Horizons straddling every tier bound (4, 16, 64), the default and beyond.
LOOKAHEADS = (0, 1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 256, 1024)
ARCHS = ("manhattan", "montreal", "sycamore", "ionq_forte")
_GRAPHS = {arch: architecture(arch) for arch in ARCHS}


@st.composite
def hot_pair_circuits(draw):
    """A few hot pairs in both orientations, cold pairs and 1q gates among
    the first ``active`` logicals; logicals past ``active`` stay idle."""
    arch = draw(st.sampled_from(ARCHS))
    n = draw(st.integers(2, min(30, _GRAPHS[arch].number_of_nodes())))
    active = draw(st.integers(2, n))
    rng = draw(st.randoms(use_true_random=False))
    hot = [tuple(rng.sample(range(active), 2)) for _ in range(rng.randint(1, 4))]
    circuit = Circuit(n)
    for _ in range(draw(st.integers(0, 120))):
        roll = rng.random()
        if roll < 0.6:
            a, b = rng.choice(hot)
            circuit.add("cx", *((a, b) if rng.random() < 0.5 else (b, a)))
        elif roll < 0.8:
            circuit.add("cx", *rng.sample(range(active), 2))
        else:
            circuit.add(rng.choice(("h", "s", "t")), rng.randrange(active))
    return arch, circuit


class TestCrossEngineProperty:
    """The router against its scalar oracle on random hot-pair circuits."""

    @settings(max_examples=80, deadline=None)
    @given(hot_pair_circuits(), st.sampled_from(LOOKAHEADS))
    def test_matches_scalar_oracle(self, arch_circuit, lookahead):
        arch, circuit = arch_circuit
        graph = _GRAPHS[arch]
        vec = route_circuit(circuit, graph, lookahead=lookahead)
        sca = scalar_route_circuit(circuit, graph, lookahead=lookahead)
        assert vec.circuit.gates == sca.circuit.gates
        assert vec.initial_layout == sca.initial_layout
        assert vec.final_layout == sca.final_layout


def _random_circuit(draw_ints, n, n_gates):
    """Deterministic pseudo-random circuit from a list of ints."""
    c = Circuit(n)
    it = iter(draw_ints)
    one_q = ["h", "s", "t", "x", "rz"]
    for _ in range(n_gates):
        kind = next(it) % 3
        if kind < 2 and n >= 2:
            a = next(it) % n
            b = next(it) % (n - 1)
            if b >= a:
                b += 1
            c.add("cx", a, b)
        else:
            name = one_q[next(it) % len(one_q)]
            q = next(it) % n
            params = (0.1 + (next(it) % 7) * 0.3,) if name == "rz" else ()
            c.add(name, q, params=params)
    return c


class TestRoutedSemantics:
    """Routed circuits are permutation-equivalent to their logical circuits."""

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.integers(0, 10**6), min_size=40, max_size=40),
        st.integers(3, 5),
    )
    def test_unitary_preserved_modulo_layout(self, arch_idx, ints, n):
        from repro.sim import Statevector

        arch = ["manhattan", "montreal", "sycamore", "ionq_forte"][arch_idx]
        g = architecture(arch)
        circuit = _random_circuit(ints, n, 12)
        routed = route_circuit(circuit, g)

        # Compact the routed circuit onto the physical qubits it touches
        # (plus every logical's initial slot), so dense simulation stays
        # tractable on the 27..65-qubit architectures.
        touched = sorted(
            {q for gate in routed.circuit.gates for q in gate.qubits}
            | set(routed.initial_layout.values())
        )
        idx = {p: i for i, p in enumerate(touched)}
        compact = Circuit(len(touched))
        for gate in routed.circuit.gates:
            compact.add(gate.name, *[idx[q] for q in gate.qubits], params=gate.params)

        # Check the action on every logical basis state: prepare the input
        # at the initial layout, run, read back through the final layout.
        for bits in range(1 << n):
            hw = Statevector(compact.n_qubits)
            prep = Circuit(compact.n_qubits)
            for logical in range(n):
                if (bits >> logical) & 1:
                    prep.add("x", idx[routed.initial_layout[logical]])
            hw.apply_circuit(prep).apply_circuit(compact)
            reference = Statevector(n)
            lprep = Circuit(n)
            for logical in range(n):
                if (bits >> logical) & 1:
                    lprep.add("x", logical)
            reference.apply_circuit(lprep).apply_circuit(circuit)

            # Amplitudes must agree (up to global phase) after relabeling
            # physical indices through the final layout.
            ratio = None
            for lbits in range(1 << n):
                phys_bits = 0
                for logical in range(n):
                    if (lbits >> logical) & 1:
                        phys_bits |= 1 << idx[routed.final_layout[logical]]
                amp_hw = hw.amplitudes[phys_bits]
                amp_ref = reference.amplitudes[lbits]
                assert abs(abs(amp_hw) - abs(amp_ref)) < 1e-9
                if abs(amp_ref) > 1e-9:
                    r = amp_hw / amp_ref
                    if ratio is None:
                        ratio = r
                    assert abs(r - ratio) < 1e-8  # single global phase

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.integers(0, 10**6), min_size=60, max_size=60),
    )
    def test_all_two_qubit_gates_on_edges(self, arch_idx, ints):
        arch = ["manhattan", "montreal", "sycamore", "ionq_forte"][arch_idx]
        g = architecture(arch)
        circuit = _random_circuit(ints, 6, 18)
        routed = route_circuit(circuit, g)
        for gate in routed.circuit.gates:
            if gate.is_two_qubit:
                assert g.has_edge(*gate.qubits), (arch, gate)
