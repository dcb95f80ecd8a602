"""Tests for Pauli-evolution synthesis and the peephole optimizer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.circuits import (
    TERM_ORDERS,
    Circuit,
    Gate,
    cancel_adjacent,
    evolution_term_circuit,
    fuse_single_qubit,
    mutual_support_chain,
    optimize,
    order_terms_lexicographic,
    to_cx_u3,
    trotter_circuit,
    zyz_angles,
)
from repro.circuits.gates import gate_matrix
from repro.paulis import PauliString, PauliTable, QubitOperator

from reference.peephole import gate_cancel
from reference.trotter import (
    _label_key,
    hex_gates,
    oracle_chain,
    oracle_order,
    oracle_term_circuit,
    oracle_trotter_circuit,
    reference_order,
    reference_term_gates,
    reference_to_cx_u3,
    reference_trotter_gates,
)


def phase_free_allclose(a: np.ndarray, b: np.ndarray, atol=1e-9) -> bool:
    """Equality up to global phase."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < 1e-12:
        return np.allclose(a, b, atol=atol)
    phase = a[idx] / b[idx]
    return abs(abs(phase) - 1.0) < 1e-9 and np.allclose(a, phase * b, atol=atol)


class TestTermCircuit:
    @pytest.mark.parametrize("label", ["Z", "X", "Y", "ZZ", "XY", "XYZ", "ZIY", "XIIX"])
    def test_matches_matrix_exponential(self, label):
        p = PauliString.from_label(label)
        angle = 0.731
        circuit = evolution_term_circuit(p, angle)
        expected = expm(-0.5j * angle * p.to_matrix())
        assert phase_free_allclose(circuit.to_matrix(), expected)

    def test_identity_term_no_gates(self):
        circuit = evolution_term_circuit(PauliString.identity(3), 0.5)
        assert len(circuit) == 0

    def test_paper_fig2_structure(self):
        """exp(itc·XYIZ): H on q3, basis change on q2, CNOT ladder to q0, Rz."""
        p = PauliString.from_label("XYIZ")
        circuit = evolution_term_circuit(p, 0.4)
        names = [g.name for g in circuit.gates]
        assert names.count("cx") == 4  # ladder down + back over support {0,2,3}
        assert names.count("rz") == 1
        assert names.count("h") == 4  # X basis on q3 (2) + Y basis h-part on q2 (2)
        rz_gate = next(g for g in circuit.gates if g.name == "rz")
        assert rz_gate.qubits == (0,)  # target = lowest support qubit (paper: q0)

    def test_cx_count_is_twice_weight_minus_two(self):
        for label in ["ZZ", "XYZ", "YXZZ"]:
            p = PauliString.from_label(label)
            c = evolution_term_circuit(p, 0.1)
            assert c.count("cx") == 2 * (p.weight - 1)


class TestTrotter:
    def test_single_step_commuting_exact(self):
        h = QubitOperator.from_label_dict({"ZI": 0.7, "IZ": -0.3, "ZZ": 0.25})
        circuit = trotter_circuit(h, time=0.9)
        expected = expm(-1j * 0.9 * h.to_matrix())
        assert phase_free_allclose(circuit.to_matrix(), expected)

    def test_trotter_error_shrinks_with_steps(self):
        h = QubitOperator.from_label_dict({"XI": 0.8, "ZZ": 0.6, "IY": -0.5})
        exact = expm(-1j * h.to_matrix())
        errs = []
        for steps in (1, 4, 16):
            u = trotter_circuit(h, time=1.0, steps=steps).to_matrix()
            # Remove global phase before comparing.
            idx = np.unravel_index(np.argmax(np.abs(exact)), exact.shape)
            u = u * (exact[idx] / u[idx] / abs(exact[idx] / u[idx]))
            errs.append(np.linalg.norm(u - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_non_hermitian(self):
        h = QubitOperator.from_label_dict({"XY": 1j})
        with pytest.raises(ValueError):
            trotter_circuit(h)

    def test_rejects_bad_steps(self):
        h = QubitOperator.from_label_dict({"Z": 1.0})
        with pytest.raises(ValueError):
            trotter_circuit(h, steps=0)

    def test_gate_count_tracks_pauli_weight(self):
        """The paper's core claim at circuit level: lower weight => fewer CNOTs."""
        light = QubitOperator.from_label_dict({"ZIII": 1.0, "IZII": 1.0})
        heavy = QubitOperator.from_label_dict({"ZZZZ": 1.0, "XXXX": 1.0})
        c_light = to_cx_u3(trotter_circuit(light))
        c_heavy = to_cx_u3(trotter_circuit(heavy))
        assert c_light.cx_count < c_heavy.cx_count


class TestTrotterUnitary:
    """The compiled circuit must equal the ordered product of the exact
    per-term propagators ``expm(-i·θ·P)`` — the factorization the circuit
    claims to implement — including after peephole optimization."""

    @staticmethod
    def _expm_product(h: QubitOperator, time: float, steps: int = 1, suzuki_order: int = 1):
        from repro.circuits.evolution import order_terms_lexicographic

        terms = order_terms_lexicographic(h)
        dt = time / steps
        if suzuki_order == 2:
            half = [(s, c * 0.5) for s, c in terms]
            terms = half + half[::-1]
        step = np.eye(1 << h.n, dtype=complex)
        for string, coeff in terms:  # first factor applied first => leftmost last
            step = expm(-1j * coeff * dt * string.to_matrix()) @ step
        total = np.eye(1 << h.n, dtype=complex)
        for _ in range(steps):
            total = step @ total
        return total

    @pytest.mark.parametrize(
        "labels",
        [
            {"XY": 0.3, "ZZ": -0.7, "IX": 0.45, "YI": 0.2},
            {"XYZ": 0.4, "ZIY": -0.55, "IZZ": 0.3, "III": 0.9},
            {"ZI": 1.0, "IZ": 1.0, "XX": 0.3},
        ],
    )
    def test_matches_expm_product(self, labels):
        h = QubitOperator.from_label_dict(labels)
        t = 0.37
        expected = self._expm_product(h, t)
        circuit = trotter_circuit(h, time=t)
        assert phase_free_allclose(circuit.to_matrix(), expected)

    @pytest.mark.parametrize("labels", [{"XY": 0.3, "ZZ": -0.7, "IX": 0.45}])
    def test_peephole_path_matches_expm_product(self, labels):
        """The cancel/fuse/to_cx_u3 pipeline preserves the exact product."""
        h = QubitOperator.from_label_dict(labels)
        t = 0.51
        expected = self._expm_product(h, t)
        for pass_fn in (cancel_adjacent, fuse_single_qubit, optimize, to_cx_u3):
            out = pass_fn(trotter_circuit(h, time=t))
            assert phase_free_allclose(out.to_matrix(), expected), pass_fn.__name__

    def test_multi_step_and_suzuki2(self):
        h = QubitOperator.from_label_dict({"XI": 0.8, "ZZ": 0.6, "IY": -0.5})
        for steps, suzuki in ((3, 1), (1, 2), (2, 2)):
            expected = self._expm_product(h, 1.0, steps=steps, suzuki_order=suzuki)
            circuit = trotter_circuit(h, time=1.0, steps=steps, suzuki_order=suzuki)
            assert phase_free_allclose(circuit.to_matrix(), expected), (steps, suzuki)
            opt = to_cx_u3(circuit)
            assert phase_free_allclose(opt.to_matrix(), expected), (steps, suzuki)


class TestOptimizer:
    def test_cancel_hh(self):
        c = Circuit(1)
        c.add("h", 0).add("h", 0)
        assert len(cancel_adjacent(c)) == 0

    def test_cancel_cxcx(self):
        c = Circuit(2)
        c.add("cx", 0, 1).add("cx", 0, 1)
        assert len(cancel_adjacent(c)) == 0

    def test_no_cancel_reversed_cx(self):
        c = Circuit(2)
        c.add("cx", 0, 1).add("cx", 1, 0)
        assert len(cancel_adjacent(c)) == 2

    def test_no_cancel_across_blocker(self):
        c = Circuit(2)
        c.add("h", 0).add("cx", 0, 1).add("h", 0)
        assert len(cancel_adjacent(c)) == 3

    def test_rz_merge(self):
        c = Circuit(1)
        c.add("rz", 0, params=(0.3,)).add("rz", 0, params=(0.5,))
        out = cancel_adjacent(c)
        assert len(out) == 1
        assert out.gates[0].params[0] == pytest.approx(0.8)

    def test_rz_annihilation(self):
        c = Circuit(1)
        c.add("rz", 0, params=(0.3,)).add("rz", 0, params=(-0.3,))
        assert len(cancel_adjacent(c)) == 0

    def test_cascaded_cancellation(self):
        # h s sdg h collapses completely: s·sdg cancels, which makes the
        # two h gates adjacent, and they cancel in the same call.
        c = Circuit(1)
        c.add("h", 0).add("s", 0).add("sdg", 0).add("h", 0)
        assert len(cancel_adjacent(c)) == 0

    def test_ladder_sharing_between_terms(self):
        """Adjacent terms sharing top ladder edges share CNOT pairs: synthesis
        never emits them, and the full emission cancels to the same list."""
        h = QubitOperator.from_label_dict({"ZZI": 0.5, "ZZZ": 0.5, "IZZ": 0.25})
        raw = trotter_circuit(h)
        full = reference_trotter_gates(h)
        assert raw.cx_count < Circuit(3, full).cx_count
        assert hex_gates(cancel_adjacent(raw).gates) == hex_gates(gate_cancel(full))

    def test_optimize_preserves_unitary(self):
        h = QubitOperator.from_label_dict({"XY": 0.3, "ZZ": -0.8, "YI": 0.2})
        raw = trotter_circuit(h, time=0.7)
        for pass_fn in (cancel_adjacent, fuse_single_qubit, optimize, to_cx_u3):
            out = pass_fn(raw)
            assert phase_free_allclose(out.to_matrix(), raw.to_matrix())

    def test_to_cx_u3_basis(self):
        h = QubitOperator.from_label_dict({"XY": 0.3, "ZZ": -0.8})
        out = to_cx_u3(trotter_circuit(h))
        assert set(g.name for g in out.gates) <= {"cx", "u3"}

    def test_fusion_drops_identity_runs(self):
        c = Circuit(1)
        c.add("s", 0).add("sdg", 0)
        assert len(fuse_single_qubit(c)) == 0

    @staticmethod
    def _assert_lone_rotation_kept(angle: float) -> None:
        c = Circuit(1)
        c.add("rz", 0, params=(angle,))
        for pass_fn in (fuse_single_qubit, to_cx_u3):
            out = pass_fn(c)
            assert len(out) == 1, pass_fn.__name__
            assert phase_free_allclose(out.to_matrix(), c.to_matrix(), atol=1e-9)

    def test_fusion_keeps_small_rotations(self):
        self._assert_lone_rotation_kept(1e-4)

    @pytest.mark.xfail(
        strict=True,
        reason="fusion still drops lone rotations below ~1e-5 rad (relative "
        "identity tolerance); keeping them changes recorded SYK routed counts",
    )
    def test_fusion_keeps_tiny_rotations(self):
        self._assert_lone_rotation_kept(1e-6)


class TestZYZ:
    def test_random_unitaries(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(mat)
            theta, phi, lam = zyz_angles(q)
            rebuilt = gate_matrix("u3", (theta, phi, lam))
            assert phase_free_allclose(rebuilt, q)

    def test_special_cases(self):
        for name in ["x", "y", "z", "h", "s", "i"]:
            u = gate_matrix(name)
            rebuilt = gate_matrix("u3", zyz_angles(u))
            assert phase_free_allclose(rebuilt, u)


class TestMutualSupportOrdering:
    def test_chain_parameter_same_unitary(self):
        """Any parity-chain order yields the same term unitary."""
        p = PauliString.from_label("XYZZ")
        ref = evolution_term_circuit(p, 0.37).to_matrix()
        for chain in ([0, 1, 2, 3], [2, 0, 3, 1], [3, 1, 0, 2]):
            alt = evolution_term_circuit(p, 0.37, chain=chain).to_matrix()
            assert phase_free_allclose(alt, ref)

    def test_chain_must_cover_support(self):
        p = PauliString.from_label("XYZ")
        with pytest.raises(ValueError):
            evolution_term_circuit(p, 0.1, chain=[0, 1])
        with pytest.raises(ValueError):
            evolution_term_circuit(p, 0.1, chain=[0, 1, 1])

    def test_mutual_support_chain_aligns_shared_interior(self):
        """JW hopping partners share their Z-interior but never their label
        prefix; the mutual chain starts with that interior."""
        from repro.circuits import mutual_support_chain

        a = PauliString.from_label("XZZX")
        b = PauliString.from_label("YZZY")
        assert mutual_support_chain(None, None, a) == [3, 2, 1, 0]
        # With the one-term lookahead the shared Z-interior is rooted at the
        # chain head, where the next junction can cancel it ...
        chain_a = mutual_support_chain(None, None, a, next_string=b)
        assert chain_a == [2, 1, 3, 0]
        # ... and the follower's chain starts with that mutual prefix.
        chain_b = mutual_support_chain(chain_a, a, b)
        assert chain_b[:2] == [2, 1]

    def test_mutual_order_same_trotter_unitary(self):
        """Reordering ladders (not terms) leaves the Trotter unitary fixed."""
        h = QubitOperator.from_terms(
            [
                (PauliString.from_label("XZZX"), 0.3),
                (PauliString.from_label("YZZY"), 0.3),
                (PauliString.from_label("ZZII"), -0.7),
                (PauliString.from_label("IZIZ"), 0.2),
            ]
        )
        lex = trotter_circuit(h, order="lexicographic").to_matrix()
        mutual = trotter_circuit(h, order="mutual").to_matrix()
        assert phase_free_allclose(mutual, lex)

    def test_mutual_order_cuts_cx_on_hopping_pairs(self):
        h = QubitOperator.from_terms(
            [
                (PauliString.from_label("XZZX"), 0.3),
                (PauliString.from_label("YZZY"), 0.3),
            ]
        )
        lex = to_cx_u3(trotter_circuit(h, order="lexicographic")).cx_count
        mutual = to_cx_u3(trotter_circuit(h, order="mutual")).cx_count
        assert mutual < lex

    def test_mutual_never_worse_on_benchmarks(self):
        from repro.mappings import bravyi_kitaev, jordan_wigner
        from repro.sources import build_case

        strict_win = False
        for case in ("H2_sto3g", "hubbard:1x2", "hubbard:2x2"):
            ham = build_case(case)
            for mapping in (jordan_wigner(ham.n_modes), bravyi_kitaev(ham.n_modes)):
                hq = mapping.map(ham)
                lex = to_cx_u3(trotter_circuit(hq)).cx_count
                mutual = to_cx_u3(trotter_circuit(hq, order="mutual")).cx_count
                assert mutual <= lex, (case, mapping.name)
                strict_win |= mutual < lex
        assert strict_win  # the pass must measurably cut CNOTs somewhere

    def test_unknown_order_rejected(self):
        h = QubitOperator.from_terms([(PauliString.from_label("ZZ"), 1.0)])
        with pytest.raises(ValueError):
            trotter_circuit(h, order="random")

    def test_suzuki2_mutual_matches_lex_unitary(self):
        h = QubitOperator.from_terms(
            [
                (PauliString.from_label("XZX"), 0.4),
                (PauliString.from_label("YZY"), 0.4),
                (PauliString.from_label("ZZI"), -0.2),
            ]
        )
        lex = trotter_circuit(h, suzuki_order=2, order="lexicographic").to_matrix()
        mutual = trotter_circuit(h, suzuki_order=2, order="mutual").to_matrix()
        assert phase_free_allclose(mutual, lex)


class TestSwapOrientation:
    def test_swap_next_to_cx_cancels(self):
        """A SWAP adjacent to a CX on the same edge costs 2 CX, not 4."""
        for first, second in ((("cx", (0, 1)), ("swap", (0, 1))),
                              (("cx", (1, 0)), ("swap", (0, 1))),
                              (("swap", (0, 1)), ("cx", (0, 1))),
                              (("swap", (0, 1)), ("cx", (1, 0)))):
            c = Circuit(2)
            c.add(first[0], *first[1])
            c.add(second[0], *second[1])
            out = to_cx_u3(c)
            assert out.cx_count == 2, (first, second, out.gates)

    def test_lone_swap_still_three_cx(self):
        c = Circuit(2)
        c.add("swap", 0, 1)
        assert to_cx_u3(c).cx_count == 3

    def test_orientation_preserves_unitary(self):
        c = Circuit(3)
        c.add("cx", 0, 1).add("swap", 1, 0).add("h", 2).add("swap", 1, 2)
        c.add("cx", 2, 1)
        assert phase_free_allclose(to_cx_u3(c).to_matrix(), c.to_matrix())


_OPS = "IXYZ"


@st.composite
def trotter_inputs(draw):
    """A small Hamiltonian plus synthesis options and an ``x``-gate prefix.

    Labels come from a pool of at most four strings half of the time, so
    neighbours often share long ladder prefixes; coefficients include
    negligible (1e-13) and near-threshold values.
    """
    n = draw(st.integers(1, 8))
    label = st.text(_OPS, min_size=n, max_size=n)
    if draw(st.booleans()):
        label = st.sampled_from(draw(st.lists(label, min_size=1, max_size=4)))
    coeff = st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.sampled_from([0.5, -0.25, 1e-13, -1e-13, 2e-12]),
    )
    labels = draw(st.dictionaries(label, coeff, min_size=1, max_size=20))
    options = {
        "time": draw(st.sampled_from([1.0, 0.37, 2.5])),
        "steps": draw(st.integers(1, 3)),
        "order": draw(st.sampled_from(TERM_ORDERS)),
        "suzuki_order": draw(st.integers(1, 2)),
    }
    prefix = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return labels, options, prefix


class TestJunctionEmission:
    """Synthesis skips the junction gates cancellation deletes; it equals the
    Python-int planner of ``tests/reference/trotter.py`` gate for gate, and
    after ``gate_cancel`` and after ``to_cx_u3`` the full emission there bit
    for bit."""

    @given(trotter_inputs())
    @example(
        (
            {"IIIZII": 0.5, "YIXIII": 0.45835618363600106},
            {"time": 1.0, "steps": 3, "order": "lexicographic", "suzuki_order": 2},
            [],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_emission(self, inputs):
        labels, options, prefix = inputs
        h = QubitOperator.from_label_dict(labels)
        new = trotter_circuit(h, **options).gates
        assert hex_gates(new) == hex_gates(oracle_trotter_circuit(h, **options).gates)
        full = reference_trotter_gates(h, **options)
        assert len(new) <= len(full)
        assert hex_gates(gate_cancel(new)) == hex_gates(gate_cancel(full))
        prep = [Gate("x", (q,)) for q in prefix]
        got = to_cx_u3(Circuit(h.n, prep + new)).gates
        assert hex_gates(got) == hex_gates(reference_to_cx_u3(prep + full))

    @pytest.mark.parametrize("kind", ["hatt", "jw"])
    @pytest.mark.parametrize(
        "case", ["hubbard:4x4", "neutrino:4x2F", "random:syk:n=8,seed=1"]
    )
    def test_real_cases_match_reference(self, case, kind):
        from repro.circuits import architecture, route_circuit
        from repro.service import MappingSpec, compile_mapping
        from repro.sources import build_case

        h = build_case(case)
        hq = compile_mapping(h, MappingSpec(kind=kind, n_modes=h.n_modes)).map(h)
        for order in ("mutual", "lexicographic"):
            logical = to_cx_u3(trotter_circuit(hq, order=order))
            expected = reference_to_cx_u3(reference_trotter_gates(hq, order=order))
            assert hex_gates(logical.gates) == hex_gates(expected), order
        routed = route_circuit(logical, architecture("sycamore")).circuit
        assert hex_gates(to_cx_u3(routed).gates) == hex_gates(
            reference_to_cx_u3(routed.gates)
        )

    def test_single_term_plan_is_the_full_term(self):
        p = PauliString.from_label("XYIZ")
        for chain in (None, [2, 0, 3]):
            got = evolution_term_circuit(p, 0.4, chain=chain).gates
            want = reference_term_gates(p, 0.4, chain or [3, 2, 0])
            assert hex_gates(got) == hex_gates(want)
            oracle = oracle_term_circuit(p, 0.4, chain or [3, 2, 0]).gates
            assert hex_gates(got) == hex_gates(oracle)


class TestLabelKey:
    """The oracle's Python-int label key sorts like dense labels; the packed
    interleaved keys of the synthesis sort like the oracle's."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sorts_like_dense_label(self, data):
        """Keys pass 64 bits from n = 33 on; order must still follow labels."""
        n = data.draw(st.integers(1, 70))
        mask = st.integers(0, (1 << n) - 1)
        strings = [
            PauliString(n, data.draw(mask), data.draw(mask))
            for _ in range(data.draw(st.integers(2, 6)))
        ]
        by_key = sorted(strings, key=lambda s: _label_key(s.x, s.z))
        assert [s.label() for s in by_key] == sorted(s.label() for s in strings)

    def test_order_wrapper_matches_label_sort(self):
        h = QubitOperator.from_label_dict(
            {"XZZX": 0.3, "YZZY": 0.3, "ZZII": -0.7, "IZIZ": 0.2, "IIII": 1.0, "ZIII": 1e-13}
        )
        got = [(s.label(), c) for s, c in order_terms_lexicographic(h)]
        want = [(s.label(), c) for s, c in reference_order(h)]
        assert got == want


#: Magnitudes at the 1e-12 synthesis cutoff: on it, one ulp either side, and
#: complex values whose magnitude NumPy's ``abs`` and Python's ``abs`` put on
#: opposite sides of it (they may differ in the last bit; the oracle uses
#: Python's).
_CUTOFF_COEFFS = (
    1e-12, -1e-12, np.nextafter(1e-12, 1.0), -np.nextafter(1e-12, 0.0),
    complex(0.6e-12, 0.8e-12), complex(-0.8e-12, 0.6e-12), 0.0, 1e-13,
    complex(8.057382136180922e-14, 9.967486439976507e-13),
    complex(8.004393503488061e-13, 5.994137522723193e-13),
)


@st.composite
def wide_hamiltonians(draw):
    """A Hermitian operator on 1–70 qubits (across the 32-qubit key and the
    64-qubit word boundaries), table- or dict-backed, with identity rows,
    coefficients at the cutoff and strings drawn from a small pool so
    neighbours share long prefixes."""
    n = draw(st.integers(1, 70))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=4))
    string = st.one_of(
        st.sampled_from(pool),
        st.tuples(mask, mask),
        st.just((0, 0)),
        # A pool string with one more qubit flipped: a long shared prefix.
        st.tuples(st.sampled_from(pool), st.integers(0, n - 1), st.booleans()).map(
            lambda t: (t[0][0] ^ (1 << t[1]), t[0][1]) if t[2] else (t[0][0], t[0][1] ^ (1 << t[1]))
        ),
    )
    coeff = st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from(_CUTOFF_COEFFS)
    )
    terms = draw(st.dictionaries(string, coeff, min_size=1, max_size=12))
    if draw(st.booleans()):
        return QubitOperator(n, terms)
    xs, zs = zip(*terms)
    table = PauliTable.from_masks(n, list(xs), list(zs))
    return table.to_qubit_operator(np.array(list(terms.values()), dtype=complex), tol=0.0)


def _packed_hex(circuit: Circuit):
    ops, qubits, params = circuit.packed()
    return ops.tolist(), qubits.tolist(), [p.hex() for p in params.ravel().tolist()]


class TestPackedSynthesis:
    """``trotter_circuit`` on packed tables against the Python-int planner
    and emitter it replaced (``tests/reference/trotter.py``): ops and
    qubits exactly, parameters as ``float.hex``."""

    @given(
        wide_hamiltonians(),
        st.sampled_from(TERM_ORDERS),
        st.integers(1, 2),
        st.integers(1, 3),
        st.sampled_from([1.0, 0.37]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_python_int_oracle(self, h, order, suzuki_order, steps, time):
        options = dict(time=time, steps=steps, order=order, suzuki_order=suzuki_order)
        got = trotter_circuit(h, **options)
        assert _packed_hex(got) == _packed_hex(oracle_trotter_circuit(h, **options))
        assert [(s, c) for s, c in order_terms_lexicographic(h)] == oracle_order(h)

    def test_a_string_meets_itself(self):
        """One term: every junction (Suzuki mid-point, step wrap-around) is
        a string meeting itself, on both sides of the word boundary."""
        for n in (3, 40, 70):
            x, z = (1 << (n - 1)) | 1, (1 << (n - 1)) | 2
            h = QubitOperator(n, {(x, z): 0.3, (0, 0): 1.0})
            for order in TERM_ORDERS:
                options = dict(steps=3, order=order, suzuki_order=2)
                got = trotter_circuit(h, **options)
                assert _packed_hex(got) == _packed_hex(oracle_trotter_circuit(h, **options))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_chain_wrapper_matches_oracle(self, data):
        n = data.draw(st.integers(1, 70))
        mask = st.integers(0, (1 << n) - 1)
        prev, cur, nxt = (
            PauliString(n, data.draw(mask), data.draw(mask)) for _ in range(3)
        )
        if cur.is_identity:
            return
        prev_chain = list(prev.support)[::-1] if not prev.is_identity else None
        got = mutual_support_chain(prev_chain, prev, cur, nxt)
        assert got == oracle_chain(prev_chain, prev, cur, nxt)
