"""The packed circuit IR against the Gate-list passes it replaced.

Every peephole pass runs on op/qubit/parameter arrays; the Gate-list passes
in ``tests/reference/peephole.py`` are the oracles.  Cancellation and the
cz/swap rewrite are compared bit for bit (``hex_gates``); the passes that
fuse are compared with ``assert_same_gates``: names, qubits and order
exactly, each u3 as a unitary up to global phase.  The compile path
(Trotter synthesis, peephole, routing, metrics) must build no
:class:`Gate` at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    Gate,
    architecture,
    cancel_adjacent,
    fuse_single_qubit,
    optimize,
    route_circuit,
    to_cx_u3,
    trotter_circuit,
)
from repro.circuits.gates import GATE_NAMES, N_PARAMS
from repro.circuits.optimize import _ANGLE_EPS, _IDENTITY_RTOL, _expand_to_cx
from repro.compile import CompilationPipeline, CompileOptions
from repro.service import MappingSpec, compile_mapping
from repro.sources import build_case

from reference.peephole import (
    assert_same_gates,
    gate_cancel,
    gate_expand_to_cx,
    gate_fuse,
    gate_optimize,
    gate_to_cx_u3,
)
from reference.routing import scalar_route_circuit
from reference.trotter import hex_gates, reference_to_cx_u3, reference_trotter_gates

_ROTATIONS = ("rx", "ry", "rz")
_SELF_INVERSE = ("i", "x", "y", "z", "h", "cx", "cz", "swap")
_INVERSE_OF = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

#: Angles at the edges the passes test: the merge-to-nothing bound, the
#: identity threshold of a lone rotation (about 1e-5 rad), signed zeros.
_EDGE_ANGLES = (
    0.0, -0.0, _ANGLE_EPS, -_ANGLE_EPS, 0.5 * _ANGLE_EPS, 2 * _ANGLE_EPS,
    _IDENTITY_RTOL, -_IDENTITY_RTOL, 0.999 * _IDENTITY_RTOL, 1.001 * _IDENTITY_RTOL,
    2e-9, np.pi, -np.pi, 2 * np.pi,
)
angles = st.one_of(st.sampled_from(_EDGE_ANGLES), st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def ir_circuits(draw):
    """Random circuits over all 16 gate names, built from blocks: single
    gates, same-axis rotation chains (the later angles often undo the
    earlier ones to within the merge bound), odd inverse chains such as
    ``h h h``, and SWAPs beside a CX on the same pair in either orientation."""
    n = draw(st.integers(2, 5))
    qubit = st.integers(0, n - 1)

    def pair():
        a = draw(qubit)
        b = draw(st.integers(0, n - 2))
        return a, b + (b >= a)

    gates = []
    for _ in range(draw(st.integers(0, 24))):
        block = draw(st.sampled_from(("gate", "gate", "rotations", "inverses", "swap-cx")))
        if block == "gate":
            name = draw(st.sampled_from(GATE_NAMES))
            qubits = pair() if name in ("cx", "cz", "swap") else (draw(qubit),)
            gates.append(Gate(name, qubits, tuple(draw(angles) for _ in range(N_PARAMS[name]))))
        elif block == "rotations":
            name, q = draw(st.sampled_from(_ROTATIONS)), draw(qubit)
            first = draw(angles)
            gates.append(Gate(name, (q,), (first,)))
            for _ in range(draw(st.integers(1, 3))):
                angle = draw(st.one_of(angles, st.sampled_from(_EDGE_ANGLES).map(
                    lambda eps, first=first: eps - first)))
                gates.append(Gate(name, (q,), (angle,)))
        elif block == "inverses":
            name = draw(st.sampled_from(_SELF_INVERSE + tuple(_INVERSE_OF)))
            qubits = pair() if name in ("cx", "cz", "swap") else (draw(qubit),)
            for k in range(draw(st.sampled_from((3, 5)))):
                gates.append(Gate(_INVERSE_OF.get(name, name) if k % 2 else name, qubits))
        else:
            a, b = pair()
            cx = Gate("cx", draw(st.sampled_from(((a, b), (b, a)))))
            swap = Gate("swap", (a, b))
            pattern = draw(st.sampled_from(("s c", "c s", "c s c", "s s")))
            gates += [swap if k == "s" else cx for k in pattern.split()]
    return Circuit(n, gates)


class TestCrossEngine:
    """Each packed pass equals its Gate-list oracle: cancellation and the
    rewrite bit for bit, fusion up to the u3 contract."""

    @given(ir_circuits())
    @settings(max_examples=150, deadline=None)
    def test_passes_match_gate_list_oracles(self, circuit):
        gates = list(circuit.gates)
        n = circuit.n_qubits
        expanded = Circuit.from_packed(n, *_expand_to_cx(*circuit.packed()))
        assert hex_gates(expanded.gates) == hex_gates(gate_expand_to_cx(gates))
        assert hex_gates(cancel_adjacent(circuit).gates) == hex_gates(gate_cancel(gates))
        for packed, oracle in (
            (fuse_single_qubit, gate_fuse),
            (optimize, gate_optimize),
            (to_cx_u3, gate_to_cx_u3),
        ):
            assert_same_gates(packed(circuit).gates, oracle(gates))

    @given(ir_circuits())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_keeps_every_bit(self, circuit):
        ops, qubits, params = circuit.packed()
        again = Circuit.from_packed(circuit.n_qubits, ops, qubits, params)
        assert hex_gates(again.gates) == hex_gates(circuit.gates)
        repacked = Circuit(circuit.n_qubits, again.gates).packed()
        assert np.array_equal(repacked[0], ops) and np.array_equal(repacked[1], qubits)
        assert np.array_equal(repacked[2].view(np.int64), params.view(np.int64))

    @given(ir_circuits())
    @settings(max_examples=60, deadline=None)
    def test_metrics_read_from_arrays(self, circuit):
        gates = circuit.gates
        assert circuit.count("swap") == sum(g.name == "swap" for g in gates)
        assert circuit.two_qubit_count == sum(g.is_two_qubit for g in gates)
        packed = Circuit.from_packed(circuit.n_qubits, *circuit.packed())
        assert (packed.cx_count, packed.u3_count, packed.depth(), len(packed)) == (
            circuit.cx_count, circuit.u3_count, circuit.depth(), len(circuit)
        )

    def test_signed_zero_angles(self):
        """Signed-zero angles fuse as the oracle does, and a lone u3 keeps
        its own bits, signed zeros included."""
        c = Circuit(3).add("rz", 0, params=(0.0,)).add("rz", 1, params=(-0.0,))
        c.add("u3", 2, params=(0.5, -0.0, 0.0)).add("cx", 0, 1)
        c.add("u3", 0, params=(0.5, 0.0, -0.0)).add("ry", 1, params=(-0.0,))
        fused = fuse_single_qubit(c).gates
        assert_same_gates(fused, gate_fuse(c.gates))
        lone = [g.params for g in fused if g.name == "u3"]
        assert [tuple(p.hex() for p in params) for params in lone] == [
            tuple(p.hex() for p in params) for params in ((0.5, 0.0, -0.0), (0.5, -0.0, 0.0))
        ]

    def test_long_parameter_free_runs(self):
        """Long parameter-free runs: these two 16-gate runs differ only in
        their last two gates, and must not fuse to the same u3."""
        c = Circuit(2)
        for q, tail in ((0, ("h", "s")), (1, ("s", "h"))):
            for name in ("h",) * 14 + tail:
                c.add(name, q)
        c.add("cx", 0, 1)
        for k in range(40):
            c.add(("h", "s", "t")[k % 3], 0)
        fused = fuse_single_qubit(c).gates
        assert_same_gates(fused, gate_fuse(c.gates))
        assert fused[0].params != fused[1].params


#: The fusion contract's edge angles: signed zeros, ±π, ±π/2 and the small
#: rotations on either side of the identity threshold.
_FUSION_ANGLES = (0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 1e-6, 1e-4)
_PARAMETER_FREE = ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg")


@st.composite
def fusion_circuits(draw):
    """Random 1q/2q circuits for the fusion contract: single gates with
    edge or random angles, two-qubit gates, and long parameter-free runs."""
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    angle = st.one_of(st.sampled_from(_FUSION_ANGLES), st.floats(-7.0, 7.0, allow_nan=False))
    c = Circuit(n)
    for _ in range(draw(st.integers(0, 20))):
        block = draw(st.sampled_from(("1q", "1q", "2q", "long")))
        if block == "1q":
            name = draw(st.sampled_from(GATE_NAMES[:13]))
            c.add(name, draw(qubit), params=tuple(draw(angle) for _ in range(N_PARAMS[name])))
        elif block == "2q" and n > 1:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            c.add(draw(st.sampled_from(("cx", "cz", "swap"))), a, b)
        elif block == "long":
            q = draw(qubit)
            for name in draw(st.lists(st.sampled_from(_PARAMETER_FREE), min_size=14, max_size=40)):
                c.add(name, q)
    return c


class TestFusionContract:
    """Fusion against the scalar oracle: gate names, qubits and order
    exactly, each u3 the oracle's as a unitary up to global phase within
    1e-12; fusing twice is fusing once, and a lone u3 keeps its bits."""

    @given(fusion_circuits())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle_and_is_idempotent(self, circuit):
        fused = fuse_single_qubit(circuit)
        assert_same_gates(fused.gates, gate_fuse(list(circuit.gates)))
        assert hex_gates(fuse_single_qubit(fused).gates) == hex_gates(fused.gates)

    @given(
        st.lists(st.tuples(*[st.sampled_from(_FUSION_ANGLES) | st.floats(-7.0, 7.0)] * 3),
                 min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_lone_u3_keeps_its_bits(self, params):
        """Lone u3s between CXs come out with their own parameters, except
        those the identity test drops."""
        c = Circuit(2)
        for p in params:
            c.add("u3", 0, params=p).add("cx", 0, 1)
        fused = fuse_single_qubit(c).gates
        assert_same_gates(fused, gate_fuse(list(c.gates)))
        kept = [g.params for g in fused if g.name == "u3"]
        want = [p for p in params if gate_fuse([Gate("u3", (0,), p)])]
        assert [[v.hex() for v in p] for p in kept] == [[v.hex() for v in p] for p in want]


class TestMutation:
    def test_gates_list_is_the_circuits_own(self):
        c = to_cx_u3(Circuit(2).add("h", 0).add("cx", 0, 1))
        before = c.cx_count
        c.gates.append(Gate("cx", (1, 0)))
        assert c.cx_count == before + 1
        c.add("swap", 0, 1)
        assert c.cx_count == before + 4 and len(c) == len(c.gates)

    def test_held_list_stays_live_after_a_metric(self):
        c = Circuit(2).add("h", 0).add("cx", 0, 1)
        gates = c.gates
        assert (c.cx_count, c.depth(), len(c)) == (1, 2, 2)
        gates.append(Gate("cx", (1, 0)))
        assert (c.cx_count, c.depth(), len(c), c.count("cx")) == (2, 3, 3, 2)
        assert to_cx_u3(c).cx_count == 2

    def test_packed_arrays_are_read_only(self):
        ops, qubits, params = to_cx_u3(Circuit(2).add("h", 0).add("cx", 0, 1)).packed()
        for array in (ops, qubits, params):
            with pytest.raises(ValueError):
                array[0] = 0


@pytest.fixture
def gate_constructions(monkeypatch):
    """Names of every :class:`Gate` built while the fixture is active."""
    built = []
    original = Gate.__post_init__

    def counting(self):
        built.append(self.name)
        original(self)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    return built


class TestNoGatesOnTheCompilePath:
    def test_cold_compile_builds_no_gate(self, gate_constructions):
        h = build_case("hubbard:2x2")
        m = CompilationPipeline(service=None).compile_one(h, "hatt", "sycamore")
        assert m.routed_cx > 0
        assert gate_constructions == []
        Gate("h", (0,))  # the counter itself works
        assert gate_constructions == ["h"]

    def test_circuits_equal_the_gate_list_oracles(self, gate_constructions):
        h = build_case("hubbard:2x2")
        hq = compile_mapping(h, MappingSpec(kind="hatt", n_modes=h.n_modes)).map(h)
        graph = architecture("sycamore")
        order = CompileOptions().term_order
        logical = to_cx_u3(trotter_circuit(hq, order=order))
        routed = route_circuit(logical, graph)
        final = to_cx_u3(routed.circuit)
        metrics = (logical.cx_count, logical.depth(), final.cx_count, routed.swap_count,
                   final.depth(), final.u3_count)
        assert gate_constructions == []

        want_logical = reference_to_cx_u3(reference_trotter_gates(hq, order=order))
        assert_same_gates(logical.gates, want_logical)
        want_routed = scalar_route_circuit(Circuit(hq.n, want_logical), graph).circuit
        assert_same_gates(routed.circuit.gates, want_routed.gates)
        want_final = Circuit(graph.number_of_nodes(), gate_to_cx_u3(want_routed.gates))
        assert_same_gates(final.gates, want_final.gates)
        assert metrics == (
            Circuit(hq.n, want_logical).cx_count, Circuit(hq.n, want_logical).depth(),
            want_final.cx_count, want_routed.count("swap"), want_final.depth(),
            want_final.u3_count,
        )
