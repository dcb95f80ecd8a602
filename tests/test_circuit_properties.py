"""Property-based tests for circuit passes: optimization and routing never
change semantics (up to global phase / output permutation), and the one-sweep
peephole passes give the gate sequence of the original repeated-sweep passes
kept below as test-only references."""

import cmath
import random

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    Gate,
    cancel_adjacent,
    fuse_single_qubit,
    optimize,
    route_circuit,
    to_cx_u3,
)
from repro.sim import Statevector

N_QUBITS = 3

_GATE_POOL = [
    "h", "s", "sdg", "x", "y", "z", "t", "tdg", "rx", "ry", "rz", "cx", "cz", "swap",
]


@st.composite
def random_circuits(draw, n=N_QUBITS, max_gates=14):
    length = draw(st.integers(min_value=0, max_value=max_gates))
    circuit = Circuit(n)
    for _ in range(length):
        name = draw(st.sampled_from(_GATE_POOL))
        if name in ("cx", "cz", "swap"):
            q0 = draw(st.integers(0, n - 1))
            q1 = draw(st.integers(0, n - 2))
            if q1 >= q0:
                q1 += 1
            circuit.add(name, q0, q1)
        elif name in ("rx", "ry", "rz"):
            q = draw(st.integers(0, n - 1))
            angle = draw(st.floats(-3.0, 3.0, allow_nan=False))
            circuit.add(name, q, params=(angle,))
        else:
            circuit.add(name, draw(st.integers(0, n - 1)))
    return circuit


def phase_free_equal(a: np.ndarray, b: np.ndarray, atol=1e-8) -> bool:
    phase = np.trace(a.conj().T @ b)
    if abs(phase) < 1e-12:
        return np.allclose(a, b, atol=atol)
    b = b * (phase.conjugate() / abs(phase))
    return np.allclose(a, b, atol=atol)


@given(random_circuits())
@settings(max_examples=60, deadline=None)
def test_optimization_passes_preserve_unitary(circuit):
    reference = circuit.to_matrix()
    for pass_fn in (cancel_adjacent, fuse_single_qubit, optimize, to_cx_u3):
        out = pass_fn(circuit)
        assert phase_free_equal(out.to_matrix(), reference), pass_fn.__name__


@given(random_circuits())
@settings(max_examples=60, deadline=None)
def test_optimization_never_increases_counts(circuit):
    out = optimize(circuit)
    assert out.cx_count <= circuit.cx_count
    assert len(out) <= len(circuit) + circuit.n_qubits  # u3 fusion may split runs


@given(random_circuits())
@settings(max_examples=30, deadline=None)
def test_routing_preserves_statevector_up_to_layout(circuit):
    line = nx.path_graph(4)
    routed = route_circuit(circuit, line)
    for gate in routed.circuit.gates:
        if gate.is_two_qubit:
            assert line.has_edge(*gate.qubits)
    reference = Statevector(N_QUBITS).apply_circuit(circuit)
    hw = Statevector(4).apply_circuit(routed.circuit)
    for bits in range(1 << N_QUBITS):
        phys = 0
        for logical in range(N_QUBITS):
            if (bits >> logical) & 1:
                phys |= 1 << routed.final_layout[logical]
        assert abs(abs(hw.amplitudes[phys]) - abs(reference.amplitudes[bits])) < 1e-8


@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_inverse_composes_to_identity(circuit):
    u = circuit.compose(circuit.inverse()).to_matrix()
    assert phase_free_equal(u, np.eye(1 << N_QUBITS))


# ----------------------------------------------------------------------
# Test-only references: the original repeated-sweep passes
# ----------------------------------------------------------------------
_INVERSE_PAIRS = {
    ("h", "h"), ("x", "x"), ("y", "y"), ("z", "z"),
    ("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t"),
    ("cx", "cx"), ("cz", "cz"), ("swap", "swap"),
}


def reference_cancel(gates):
    """Repeat a left-to-right cancellation sweep until nothing changes."""
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        # last_on[q] = index into `out` of the latest gate touching qubit q.
        out = []
        last_on = {}
        for gate in gates:
            prev_idx = {last_on.get(q) for q in gate.qubits}
            prev = prev_idx.pop() if len(prev_idx) == 1 else None
            if prev is not None and out[prev] is not None:
                pg = out[prev]
                if pg.qubits == gate.qubits:
                    if (pg.name, gate.name) in _INVERSE_PAIRS and pg.params == ():
                        out[prev] = None
                        for q in gate.qubits:
                            last_on.pop(q, None)
                        changed = True
                        continue
                    if pg.name == gate.name and gate.name in ("rx", "ry", "rz"):
                        angle = pg.params[0] + gate.params[0]
                        if abs(angle) < 1e-12:
                            out[prev] = None
                            for q in gate.qubits:
                                last_on.pop(q, None)
                        else:
                            out[prev] = Gate(gate.name, gate.qubits, (angle,))
                        changed = True
                        continue
            for q in gate.qubits:
                last_on[q] = len(out)
            out.append(gate)
        gates = [g for g in out if g is not None]
    return gates


def reference_fuse(gates):
    """numpy 2x2 products, flushed as ZYZ u3 gates; near-identities dropped."""
    pending = {}
    out = []

    def flush(q):
        u = pending.pop(q, None)
        if u is None:
            return
        phase = u[0, 0]
        if abs(abs(phase) - 1.0) <= 1e-9 and np.allclose(u, phase * np.eye(2), atol=1e-9):
            return
        su = u / cmath.sqrt(np.linalg.det(u))
        theta = 2.0 * np.arctan2(abs(su[1, 0]), abs(su[0, 0]))
        plus, minus = 2.0 * cmath.phase(su[1, 1]), 2.0 * cmath.phase(su[1, 0])
        if abs(su[0, 0]) < 1e-12:
            params = (theta, minus, 0.0)
        elif abs(su[1, 0]) < 1e-12:
            params = (theta, plus, 0.0)
        else:
            params = (theta, (plus + minus) / 2.0, (plus - minus) / 2.0)
        out.append(Gate("u3", (q,), params))

    for gate in gates:
        if len(gate.qubits) == 1:
            q = gate.qubits[0]
            pending[q] = gate.matrix() @ pending.get(q, np.eye(2, dtype=complex))
        else:
            for q in gate.qubits:
                flush(q)
            out.append(gate)
    for q in sorted(pending):
        flush(q)
    return out


def reference_expand(gates):
    """cz -> h·cx·h; swap -> three cx, outer pair oriented to meet a touching cx."""
    out = []
    for i, gate in enumerate(gates):
        if gate.name == "cz":
            c, t = gate.qubits
            out += [Gate("h", (t,)), Gate("cx", (c, t)), Gate("h", (t,))]
        elif gate.name == "swap":
            a, b = gate.qubits
            prev = out[-1] if out else None
            nxt = gates[i + 1] if i + 1 < len(gates) else None
            if (prev is not None and prev.name == "cx" and prev.qubits == (b, a)) or (
                not (prev is not None and prev.name == "cx" and prev.qubits == (a, b))
                and nxt is not None
                and nxt.name == "cx"
                and nxt.qubits == (b, a)
            ):
                a, b = b, a
            out += [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
        else:
            out.append(gate)
    return out


def reference_to_cx_u3(circuit):
    return reference_fuse(reference_cancel(reference_expand(reference_cancel(circuit.gates))))


def same_gates(got, want) -> bool:
    """Identical (name, qubits) sequences and, gate by gate, the same unitary
    up to global phase (u3 angles may differ by rounding or a 2π wrap)."""
    if [(g.name, g.qubits) for g in got] != [(g.name, g.qubits) for g in want]:
        return False
    return all(
        g.params == w.params or phase_free_equal(g.matrix(), w.matrix(), atol=1e-9)
        for g, w in zip(got, want)
    )


@given(random_circuits(max_gates=40))
@settings(max_examples=150, deadline=None)
def test_single_sweep_cancel_matches_repeated_sweeps(circuit):
    # Merged angles are summed in the same order, so the match is exact.
    assert cancel_adjacent(circuit).gates == reference_cancel(circuit.gates)


@given(random_circuits(max_gates=40))
@settings(max_examples=100, deadline=None)
def test_passes_match_references(circuit):
    assert same_gates(to_cx_u3(circuit).gates, reference_to_cx_u3(circuit))
    assert same_gates(fuse_single_qubit(circuit).gates, reference_fuse(circuit.gates))
    want = reference_cancel(reference_fuse(reference_cancel(circuit.gates)))
    assert same_gates(optimize(circuit).gates, want)


def test_blocked_sweep_keeps_the_earlier_survivor():
    """After h·h cancels, the repeated sweeps pair sdg with the *later* s, so
    the first s survives ahead of x(1); a plain stack would keep the last."""
    c = Circuit(2)
    c.add("s", 0).add("h", 0).add("x", 1).add("h", 0).add("sdg", 0).add("s", 0)
    expected = [("s", (0,)), ("x", (1,))]
    assert [(g.name, g.qubits) for g in reference_cancel(c.gates)] == expected
    assert [(g.name, g.qubits) for g in cancel_adjacent(c).gates] == expected


def _nested_palindrome(n_gates: int, n_qubits: int = 4, seed: int = 7) -> Circuit:
    """``w · w⁻¹`` for a random ``w``: cancels to nothing from the middle out."""
    rng = random.Random(seed)
    names = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "cx", "cz", "swap"]
    half = Circuit(n_qubits)
    for _ in range(n_gates // 2):
        name = rng.choice(names)
        if name in ("cx", "cz", "swap"):
            half.add(name, *rng.sample(range(n_qubits), 2))
        elif name in ("rx", "ry", "rz"):
            half.add(name, rng.randrange(n_qubits), params=(rng.uniform(-3, 3),))
        else:
            half.add(name, rng.randrange(n_qubits))
    return half.compose(half.inverse())


def test_nested_palindrome_cancels_to_empty():
    circuit = _nested_palindrome(2000)
    assert len(circuit) == 2000
    for pass_fn in (cancel_adjacent, optimize, to_cx_u3):
        assert len(pass_fn(circuit)) == 0, pass_fn.__name__
