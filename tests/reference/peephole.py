"""The Gate-list peephole passes: test oracles for :mod:`repro.circuits.optimize`.

These are the cancellation, fusion and cz/swap rewrite passes as they ran
on lists of :class:`~repro.circuits.Gate` before the circuit IR was packed
into op/qubit/parameter arrays, with the scalar complex arithmetic fusion
ran on before it was batched: the 2x2 gate matrices, the run product, the
identity test and the ZYZ decomposition.  The packed passes must give the
same gate names, qubits and order, and cancellation every parameter bit
(compare with ``reference.trotter.hex_gates``).  A fused u3 may differ from
the oracle's in the last bits, and a lone u3 keeps its own parameters where
the oracle re-derives them; :func:`assert_same_gates` compares each u3 as a
unitary up to global phase.

Tests import them as ``from reference.peephole import gate_cancel, ...``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.circuits import Gate, gate_matrix
from repro.circuits.optimize import (
    _ANGLE_EPS,
    _IDENTITY_ATOL,
    _IDENTITY_RTOL,
    _INVERSE_PAIRS,
    _ROTATIONS,
)

__all__ = [
    "U3_ATOL",
    "assert_same_gates",
    "u3_distance",
    "gate_cancel",
    "gate_fuse",
    "gate_expand_to_cx",
    "gate_optimize",
    "gate_to_cx_u3",
]


def gate_cancel(gates: list[Gate]) -> list[Gate]:
    """Fixed point of the left-to-right cancellation sweep.

    One sweep compares each gate with the latest surviving gate on its
    qubits; after a cancellation that wire is *blocked* until the next gate
    on it passes, and the sweep repeats until nothing changes.  Only a gate
    that was blocked can change anything in the following sweep (every
    other gate meets the same neighbour as before), so each repeat visits
    just those gates, in circuit order, along per-wire neighbour links.
    Every cancellation blocks at most two gates, so the total work is
    linear in the gate count, and the result (merged angles included) is
    the one the repeated full sweeps give.
    """
    gates = list(gates)
    # Wire links per slot 2*i + k (the k-th qubit of gate i): the slot of the
    # neighbouring surviving gate on that same wire, or -1.
    before = [-1] * (2 * len(gates))
    after = [-1] * (2 * len(gates))
    last: dict[int, int] = {}
    for i, gate in enumerate(gates):
        slot = 2 * i
        for q in gate.qubits:
            p = last.get(q, -1)
            if p >= 0:
                after[p] = slot
                before[slot] = p
            last[q] = slot
            slot += 1

    def unlink(i: int) -> None:
        gates[i] = None
        for slot in (2 * i, 2 * i + 1):
            p, n = before[slot], after[slot]
            if p >= 0:
                after[p] = n
            if n >= 0:
                before[n] = p

    todo = range(len(gates))
    while todo:
        blocked: set[int] = set()
        for i in todo:
            gate = gates[i]
            if gate is None or i in blocked:
                continue
            p = before[2 * i]
            if p < 0:
                continue
            j = p >> 1
            prev = gates[j]
            # Same qubits in the same order, and j is also i's neighbour on
            # the second wire of a two-qubit pair.
            if prev.qubits != gate.qubits or (
                len(gate.qubits) == 2 and before[2 * i + 1] != p + 1
            ):
                continue
            if (prev.name, gate.name) in _INVERSE_PAIRS and prev.params == ():
                merged = None
            elif prev.name == gate.name and gate.name in _ROTATIONS:
                angle = prev.params[0] + gate.params[0]
                merged = None if abs(angle) < _ANGLE_EPS else angle
            else:
                continue
            nexts = (after[2 * i], after[2 * i + 1])
            unlink(i)
            if merged is not None:
                gates[j] = Gate(gate.name, gate.qubits, (merged,))
                continue
            unlink(j)
            blocked.update(n >> 1 for n in nexts if n >= 0)
        todo = sorted(i for i in blocked if gates[i] is not None)
    return [g for g in gates if g is not None]


# 2x2 unitaries as row-major complex 4-tuples (a, b, c, d) = [[a, b], [c, d]]:
# plain Python arithmetic beats numpy's per-call overhead at this size.
_FIXED = {
    name: tuple(complex(v) for v in gate_matrix(name).ravel())
    for name in ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg")
}


def _matrix(gate: Gate) -> tuple[complex, complex, complex, complex]:
    """``gate_matrix`` of a one-qubit gate as a 4-tuple."""
    fixed = _FIXED.get(gate.name)
    if fixed is not None:
        return fixed
    if gate.name == "u3":
        theta, phi, lam = gate.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (c, -cmath.exp(1j * lam) * s, cmath.exp(1j * phi) * s,
                cmath.exp(1j * (phi + lam)) * c)
    (t,) = gate.params
    c, s = math.cos(t / 2), math.sin(t / 2)
    if gate.name == "rx":
        return (c, -1j * s, -1j * s, c)
    if gate.name == "ry":
        return (c, -s, s, c)
    return (cmath.exp(-0.5j * t), 0, 0, cmath.exp(0.5j * t))  # rz


def _zyz(a: complex, b: complex, c: complex, d: complex) -> tuple[float, float, float]:
    root = cmath.sqrt(a * d - b * c)
    a, c, d = a / root, c / root, d / root
    theta = 2.0 * math.atan2(abs(c), abs(a))
    if abs(a) < 1e-12:
        # Pure off-diagonal: only φ - λ is defined.
        return theta, 2.0 * cmath.phase(c), 0.0
    if abs(c) < 1e-12:
        return theta, 2.0 * cmath.phase(d), 0.0
    plus = 2.0 * cmath.phase(d)
    minus = 2.0 * cmath.phase(c)
    return theta, (plus + minus) / 2.0, (plus - minus) / 2.0


def _is_identity(a: complex, b: complex, c: complex, d: complex) -> bool:
    """Identity up to global phase ``a`` (see ``optimize._IDENTITY_RTOL``)."""
    if abs(abs(a) - 1.0) > _IDENTITY_ATOL:
        return False
    return (
        abs(b) <= _IDENTITY_ATOL
        and abs(c) <= _IDENTITY_ATOL
        and abs(d - a) <= _IDENTITY_ATOL + _IDENTITY_RTOL * abs(a)
    )


def _fused(run: list[Gate]) -> tuple[float, float, float] | None:
    """u3 angles of a run's product (gates in circuit order), or None when
    the product is the identity."""
    u = None
    for gate in run:
        a, b, c, d = _matrix(gate)
        if u is not None:
            e, f, g, h = u
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        u = (a, b, c, d)
    return None if _is_identity(*u) else _zyz(*u)


def gate_fuse(gates: list[Gate]) -> list[Gate]:
    """One sweep: each wire's pending 1q run is flushed as a u3 when a
    two-qubit gate touches the wire (and at the end, by ascending qubit)."""
    pending: dict[int, list[Gate]] = {}
    out: list[Gate] = []

    def flush(q: int) -> None:
        angles = _fused(pending.pop(q))
        if angles is not None:
            out.append(Gate("u3", (q,), angles))

    for gate in gates:
        if len(gate.qubits) == 1:
            pending.setdefault(gate.qubits[0], []).append(gate)
        else:
            for q in gate.qubits:
                if q in pending:
                    flush(q)
            out.append(gate)
    for q in sorted(pending):
        flush(q)
    return out


#: How far a fused u3 may sit from the oracle's, as a unitary up to phase.
U3_ATOL = 1e-12


def u3_distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Largest entry of ``u3(a) - e^{iα}·u3(b)``, with α the phase of
    ``tr(u3(b)† u3(a))``."""
    u, v = gate_matrix("u3", tuple(a)), gate_matrix("u3", tuple(b))
    overlap = np.vdot(v, u)
    return float(np.abs(u - overlap / abs(overlap) * v).max())


def assert_same_gates(got, want, atol: float = U3_ATOL) -> None:
    """``got`` is ``want`` gate for gate: names, qubits, and the parameter
    bits of every gate but u3, whose parameters must give the same unitary
    up to global phase within ``atol``."""
    got, want = list(got), list(want)
    assert [(g.name, g.qubits) for g in got] == [(g.name, g.qubits) for g in want]
    for g, w in zip(got, want):
        if g.name == "u3":
            assert u3_distance(g.params, w.params) <= atol, (g.params, w.params)
        else:
            assert [p.hex() for p in g.params] == [p.hex() for p in w.params], (g, w)


#: Gates :func:`gate_expand_to_cx` rewrites.
_EXPANDED = frozenset({"cz", "swap"})


def gate_expand_to_cx(gates: list[Gate]) -> list[Gate]:
    """Rewrite cz and swap into cx + 1q gates.

    A SWAP has two CX decompositions (``cx(a,b)·cx(b,a)·cx(a,b)`` and its
    mirror); both are palindromes, so the orientation fixes the *outer* CX
    pair.  Routed circuits constantly emit a SWAP right next to a CX on the
    same edge, so the orientation is chosen to match the neighbouring CX —
    the cancellation pass then deletes the touching pair (2 CX per oriented
    junction).
    """
    out: list[Gate] = []
    for i, gate in enumerate(gates):
        if gate.name == "cz":
            c, t = gate.qubits
            h = Gate("h", (t,))
            out += (h, Gate("cx", (c, t)), h)
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
            outer = Gate("cx", (a, b))
            out += (outer, Gate("cx", (b, a)), outer)
        else:
            out.append(gate)
    return out


def gate_optimize(gates: list[Gate]) -> list[Gate]:
    """Cancellation followed by 1q fusion, then one more cancellation pass."""
    return gate_cancel(gate_fuse(gate_cancel(gates)))


def gate_to_cx_u3(gates: list[Gate]) -> list[Gate]:
    """Cancel; expand cz/swap and cancel again only when one is left; fuse."""
    gates = gate_cancel(gates)
    if any(g.name in _EXPANDED for g in gates):
        gates = gate_cancel(gate_expand_to_cx(gates))
    return gate_fuse(gates)
