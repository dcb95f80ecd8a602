"""Peephole circuit optimization (the paper's 'Qiskit L3' stand-in).

Passes:

* :func:`cancel_adjacent` — remove DAG-adjacent inverse pairs (H·H, CX·CX,
  S·S†, …) and merge adjacent rotations about the same axis.
* :func:`fuse_single_qubit` — collapse maximal runs of single-qubit gates
  into one ``u3`` via ZYZ decomposition (identity runs vanish).
* :func:`optimize` / :func:`to_cx_u3` — the full pipeline; ``to_cx_u3``
  additionally rewrites cz/swap into the {CX, U3} basis the paper compiles to.

Every pass maps the packed form of :mod:`.circuit` to a new one and builds
no :class:`Gate`.  One stable sort of the gate slots by wire gives every
gate its neighbours; Python then touches only what can change.
Cancellation visits the gates whose neighbour matches them (under 2% of a
Trotter or routed circuit) and those a cancellation blocks.  Fusion
multiplies out every 1q run in one NumPy batch and takes the ZYZ angles of
all products at once; a run that is one u3 (nearly every run of a routed
circuit) is passed through.

The Gate-list passes these replaced are the test oracles in
``tests/reference/peephole.py``.  Cancellation and the cz/swap rewrite
match them bit for bit.  Fusion matches their gate names, qubits and order
exactly, so CX count and depth too, but u3 parameters are no longer kept
bit for bit: a fused u3 equals the oracle's as a unitary up to global phase
(within 1e-12), and may differ in the last bits or by 2π in φ and λ.  A
run that is one u3 keeps its parameter bits (the oracle re-derives them),
so fusing twice gives the same circuit as fusing once.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, Packed
from .gates import GATE_NAMES, OP_CODE, gate_matrix

__all__ = ["cancel_adjacent", "fuse_single_qubit", "optimize", "to_cx_u3", "zyz_angles"]

_H, _RX, _RY, _RZ, _U3, _CX, _CZ, _SWAP = map(OP_CODE.get, "h rx ry rz u3 cx cz swap".split())

_INVERSE_PAIRS = {
    ("h", "h"), ("x", "x"), ("y", "y"), ("z", "z"),
    ("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t"),
    ("cx", "cx"), ("cz", "cz"), ("swap", "swap"),
}

_ROTATIONS = {"rx", "ry", "rz"}

#: ``_MATCH[earlier op, later op]``: how two neighbouring gates combine.
_INVERSE, _SAME_ROTATION = 1, 2
_MATCH = np.zeros((len(GATE_NAMES), len(GATE_NAMES)), dtype=np.uint8)
for _a, _b in _INVERSE_PAIRS:
    _MATCH[OP_CODE[_a], OP_CODE[_b]] = _INVERSE
for _a in _ROTATIONS:
    _MATCH[OP_CODE[_a], OP_CODE[_a]] = _SAME_ROTATION

_ANGLE_EPS = 1e-12

#: A fused run is dropped as the identity when, after removing the global
#: phase, its off-diagonal entries are within the absolute tolerance and its
#: second diagonal entry within the absolute plus relative one.  The relative
#: term also drops lone rotations below about 1e-5 rad; routed counts pinned
#: by the benchmark's recorded figures depend on that, so it stays for now.
_IDENTITY_ATOL = 1e-9
_IDENTITY_RTOL = 1e-5


def _wire_order(qubits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots ``2*i + k`` (the k-th qubit of gate ``i``) grouped by wire, in
    circuit order along each wire, and the wire of each."""
    wires = qubits.reshape(-1)
    # NumPy's stable sort of 16-bit keys is a radix sort, several times faster.
    keys = wires.astype(np.int16) if len(wires) and wires.max() < 1 << 15 else wires
    order = np.argsort(keys, kind="stable")[np.count_nonzero(wires < 0):]
    return order, wires[order]


def _cancel(ops: np.ndarray, qubits: np.ndarray, params: np.ndarray) -> Packed:
    """Fixed point of the left-to-right cancellation sweep.

    One sweep compares each gate with the latest surviving gate on its
    qubits; after a cancellation that wire is *blocked* until the next gate
    on it passes, and the sweep repeats until nothing changes.  Only a gate
    that was blocked can change anything in the following sweep, so each
    repeat visits just those gates, in circuit order, along per-wire
    neighbour links.  The first sweep visits only the *candidates*: gates
    whose first-wire neighbour has the same qubits in the same order (and
    neighbours them on both wires) and is their inverse or the same
    rotation.  Any other gate meets a new neighbour only through a
    cancellation, which blocks it, or a rotation merge, whose merged gate
    keeps the name and qubits it replaced; so the result (merged angles
    included) is the one the repeated full sweeps give.
    """
    n = len(ops)
    slots, wires = _wire_order(qubits)
    same = wires[1:] == wires[:-1]
    # Per slot, the slot of the neighbouring surviving gate on its wire, or -1.
    before = np.full(2 * n, -1, dtype=np.int64)
    after = np.full(2 * n, -1, dtype=np.int64)
    before[slots[1:][same]] = slots[:-1][same]
    after[slots[:-1][same]] = slots[1:][same]
    p = before[0::2]
    j = p >> 1
    second = qubits[:, 1]
    todo = np.flatnonzero(
        (p >= 0) & (p & 1 == 0) & (second[j] == second)
        & ((second < 0) | (before[1::2] == p + 1)) & (_MATCH[ops[j], ops] > 0)
    ).tolist()
    if not todo:
        return ops, qubits, params
    dead = np.zeros(n, dtype=bool)
    angles = params[:, 0].copy()

    def unlink(i: int) -> None:
        dead[i] = True
        for slot in (2 * i, 2 * i + 1):
            prev, nxt = before[slot], after[slot]
            if prev >= 0:
                after[prev] = nxt
            if nxt >= 0:
                before[nxt] = prev

    while todo:
        blocked: set[int] = set()
        for i in todo:
            if dead[i] or i in blocked:
                continue
            p = before[2 * i]
            if p < 0:
                continue
            j = p >> 1
            # Same qubits in the same order, and j is also i's neighbour on
            # the second wire of a two-qubit pair.
            if qubits[j, 0] != qubits[i, 0] or second[j] != second[i] or (
                second[i] >= 0 and before[2 * i + 1] != p + 1
            ):
                continue
            match = _MATCH[ops[j], ops[i]]
            if match == _INVERSE:
                merged = None
            elif match == _SAME_ROTATION:
                angle = angles[j] + angles[i]
                merged = None if abs(angle) < _ANGLE_EPS else angle
            else:
                continue
            nexts = (after[2 * i], after[2 * i + 1])
            unlink(i)
            if merged is not None:
                angles[j] = merged
                continue
            unlink(j)
            blocked.update(int(nxt) >> 1 for nxt in nexts if nxt >= 0)
        todo = sorted(i for i in blocked if not dead[i])
    keep = ~dead
    params = params[keep]
    params[:, 0] = angles[keep]
    return ops[keep], qubits[keep], params


def cancel_adjacent(circuit: Circuit) -> Circuit:
    """Remove inverse pairs / merge rotations that are adjacent in the
    circuit DAG (no gate on any shared qubit in between), to a fixed point."""
    return Circuit.from_packed(circuit.n_qubits, *_cancel(*circuit.packed()))


#: ``[[a, b], [c, d]]`` of each one-qubit gate by op code as ``(a, b, c, d)``;
#: the rows of rx, ry, rz and u3 are zeros, filled in per gate.
_FIXED = np.array(
    [gate_matrix(name).ravel() for name in GATE_NAMES[:_RX]] + [np.zeros(4)] * 4, dtype=complex
)


def _matrices(ops: np.ndarray, params: np.ndarray) -> np.ndarray:
    """``(4, n)``: the entries ``a, b, c, d`` of each one-qubit gate's
    matrix ``[[a, b], [c, d]]``, by the formulas of ``gate_matrix``."""
    m = _FIXED[ops]
    rot = np.flatnonzero(ops >= _RX)
    if len(rot):
        kind = ops[rot]
        theta, phi, lam = params[rot].T
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        # Real and imaginary parts of a, b, c, d side by side.
        parts = np.zeros((len(rot), 8))
        parts[:, 0] = parts[:, 6] = c
        rx, ry, rz, u3 = (kind == code for code in (_RX, _RY, _RZ, _U3))
        parts[rx, 3] = parts[rx, 5] = -s[rx]
        parts[ry, 2], parts[ry, 4] = -s[ry], s[ry]
        parts[rz, 1], parts[rz, 7] = -s[rz], s[rz]
        phi, lam, s, c = phi[u3], lam[u3], s[u3], c[u3]
        parts[u3, 2:] = np.column_stack([
            -np.cos(lam) * s, -np.sin(lam) * s, np.cos(phi) * s, np.sin(phi) * s,
            np.cos(phi + lam) * c, np.sin(phi + lam) * c,
        ])
        m[rot] = parts.view(complex)
    return m.T.copy()


def _zyz(a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZYZ angles ``(θ, φ, λ)`` of each ``[[a, b], [c, d]]``, global phase
    dropped."""
    root = np.sqrt(a * d - b * c)
    a, c, d = a / root, c / root, d / root
    abs_a, abs_c = np.abs(a), np.abs(c)
    theta = 2.0 * np.arctan2(abs_c, abs_a)
    plus, minus = 2.0 * np.angle(d), 2.0 * np.angle(c)
    # Pure off-diagonal: only φ - λ is defined; diagonal: only φ + λ.
    off, diagonal = abs_a < 1e-12, abs_c < 1e-12
    phi = np.where(off, minus, np.where(diagonal, plus, (plus + minus) / 2.0))
    lam = np.where(off | diagonal, 0.0, (plus - minus) / 2.0)
    return theta, phi, lam


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """ZYZ Euler angles (θ, φ, λ) with ``u ≅ e^{iα}·Rz(φ)·Ry(θ)·Rz(λ)``.

    Global phase is discarded — u3(θ, φ, λ) then equals ``u`` up to phase.
    """
    theta, phi, lam = _zyz(*np.asarray(u, dtype=complex).reshape(4, 1))
    return float(theta[0]), float(phi[0]), float(lam[0])


def _identities(a, b, c, d) -> np.ndarray:
    """Which ``[[a, b], [c, d]]`` are the identity up to global phase ``a``
    (see :data:`_IDENTITY_RTOL`)."""
    abs_a = np.abs(a)
    return (
        (np.abs(abs_a - 1.0) <= _IDENTITY_ATOL)
        & (np.abs(b) <= _IDENTITY_ATOL)
        & (np.abs(c) <= _IDENTITY_ATOL)
        & (np.abs(d - a) <= _IDENTITY_ATOL + _IDENTITY_RTOL * abs_a)
    )


def _run_angles(
    ops: np.ndarray, params: np.ndarray, gates: np.ndarray, first: np.ndarray,
    length: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep mask and u3 angles of each run ``gates[first : first + length]``.

    A run that is one u3 keeps its parameter bits, which makes fusion
    idempotent; it is dropped, as any run is, only when it is the identity,
    which needs ``|cos(θ/2)|`` within the tolerance of 1.  The other runs
    (and those u3s) are multiplied out in one batch, longest first and one
    rank position at a time, so the runs still open at rank ``r`` are a
    prefix and their gates one block.
    """
    run_ops = ops[gates]
    angles = params[gates[first]]
    lone = (length == 1) & (run_ops[first] == _U3)
    near = lone & (np.abs(np.abs(np.cos(angles[:, 0] / 2)) - 1.0) <= _IDENTITY_ATOL)
    fused = np.flatnonzero(~lone)
    fused = fused[np.argsort(-length[fused], kind="stable")]
    pick = np.concatenate([fused, np.flatnonzero(near)])
    keep = np.ones(len(first), dtype=bool)
    if not len(pick):
        return keep, angles
    # How many picked runs are longer than r, for each rank r.
    n_open = np.searchsorted(-length[pick], -np.arange(length[pick[0]]))
    at = np.concatenate([first[pick[:k]] + r for r, k in enumerate(n_open.tolist())])
    m = _matrices(run_ops[at], params[gates[at]])
    a, b, c, d = m[:, : n_open[0]]
    lo = n_open[0]
    for k in n_open[1:].tolist():
        e, f, g, h = m[:, lo : lo + k]
        lo += k
        a[:k], b[:k], c[:k], d[:k] = (
            e * a[:k] + f * c[:k], e * b[:k] + f * d[:k],
            g * a[:k] + h * c[:k], g * b[:k] + h * d[:k],
        )
    keep[pick] = ~_identities(a, b, c, d)
    n = len(fused)
    angles[fused] = np.column_stack(_zyz(a[:n], b[:n], c[:n], d[:n]))
    return keep, angles


def _fuse(ops: np.ndarray, qubits: np.ndarray, params: np.ndarray) -> Packed:
    """One pass: each wire's maximal 1q run becomes one u3 placed where the
    run ends — just before the two-qubit gate that touches the wire (its
    first qubit's run first) or, at the end, by ascending qubit."""
    single = qubits[:, 1] < 0
    if not single.any():
        return ops, qubits, params
    slots, wires = _wire_order(qubits)
    gate = slots >> 1
    on_single = single[gate]
    follows = np.zeros(len(slots), dtype=bool)
    follows[1:] = on_single[:-1] & (wires[1:] == wires[:-1])
    # One-qubit slots, wire by wire in circuit order: each run is contiguous.
    pos = np.flatnonzero(on_single)
    first = np.flatnonzero(~follows[pos])
    length = np.diff(first, append=len(pos))
    last = pos[first + length - 1]
    wire = wires[last]
    # A run ends at the next slot on its wire (a two-qubit gate) or at the
    # end; output keys sort flushed runs before their gate, then end runs.
    nxt = np.minimum(last + 1, len(slots) - 1)
    at_gate = (last + 1 < len(slots)) & (wires[nxt] == wire)
    span = int(wires[-1]) + 3
    run_key = np.where(at_gate, gate[nxt] * span + (slots[nxt] & 1), len(ops) * span + wire)
    keep, angles = _run_angles(ops, params, gate[pos], first, length)

    two = np.flatnonzero(~single)
    order = np.argsort(np.concatenate([two * span + 2, run_key[keep]]))
    run_qubits = np.column_stack([wire[keep], np.full(len(wire[keep]), -1)])
    return (
        np.concatenate([ops[two], np.full(len(run_qubits), _U3, dtype=np.uint8)])[order],
        np.concatenate([qubits[two], run_qubits]).astype(np.int32)[order],
        np.concatenate([params[two], angles[keep]])[order],
    )


def fuse_single_qubit(circuit: Circuit) -> Circuit:
    """Fuse maximal 1q-gate runs into single u3 gates (dropping identities)."""
    return Circuit.from_packed(circuit.n_qubits, *_fuse(*circuit.packed()))


def _expand_to_cx(ops: np.ndarray, qubits: np.ndarray, params: np.ndarray) -> Packed:
    """Rewrite cz and swap into cx + 1q gates.

    A SWAP has two CX decompositions (``cx(a,b)·cx(b,a)·cx(a,b)`` and its
    mirror); both are palindromes, so the orientation fixes the *outer* CX
    pair.  Routed circuits constantly emit a SWAP right next to a CX on the
    same edge, so the orientation is chosen to match the neighbouring CX —
    the gate before it in the output (a previous SWAP's outer CX included),
    else the next input gate — and the cancellation pass then deletes the
    touching pair (2 CX per oriented junction).
    """
    n = len(ops)
    cz, swap = ops == _CZ, np.flatnonzero(ops == _SWAP)
    width = np.where(cz, 3, 1)
    width[swap] = 3
    start = np.cumsum(width) - width
    out_ops, out_qubits = np.repeat(ops, width), np.repeat(qubits, width, axis=0)
    at = start[cz]
    out_ops[at] = out_ops[at + 2] = _H
    out_ops[at + 1] = _CX
    out_qubits[at] = out_qubits[at + 2] = np.column_stack([qubits[cz, 1], np.full(len(at), -1)])

    oriented, outer = [], None
    nxt = np.minimum(swap + 1, n - 1)
    for (a, b), prev_op, prev, next_op, after in zip(
        qubits[swap].tolist(), np.where(swap > 0, ops[swap - 1], 0).tolist(),
        map(tuple, qubits[swap - 1].tolist()), np.where(swap + 1 < n, ops[nxt], 0).tolist(),
        map(tuple, qubits[nxt].tolist()),
    ):
        if prev_op == _SWAP:
            prev = outer
        elif prev_op != _CX:
            prev = None
        if prev == (b, a) or (prev != (a, b) and next_op == _CX and after == (b, a)):
            a, b = b, a
        outer = (a, b)
        oriented.append(outer)
    at = start[swap]
    out_ops[at] = out_ops[at + 1] = out_ops[at + 2] = _CX
    out_qubits[at] = out_qubits[at + 2] = np.reshape(oriented, (-1, 2))
    out_qubits[at + 1] = out_qubits[at, ::-1]
    return out_ops, out_qubits, np.repeat(params, width, axis=0)


def optimize(circuit: Circuit) -> Circuit:
    """Cancellation followed by 1q fusion, then one more cancellation pass."""
    packed = _cancel(*_fuse(*_cancel(*circuit.packed())))
    return Circuit.from_packed(circuit.n_qubits, *packed)


def to_cx_u3(circuit: Circuit) -> Circuit:
    """Full pipeline into the paper's {CX, U3} basis.

    Cancellation, then — only when the cancelled circuit still holds a cz
    or swap — their rewrite into cx + 1q gates and a second cancellation,
    then 1q fusion.  Without cz/swap (every logical Trotter circuit) the
    rewrite would be a copy and the second cancellation would run on a
    fixed point, so both are skipped; the result is the same gate for gate.
    """
    packed = _cancel(*circuit.packed())
    if np.isin(packed[0], (_CZ, _SWAP)).any():
        packed = _cancel(*_expand_to_cx(*packed))
    return Circuit.from_packed(circuit.n_qubits, *_fuse(*packed))
