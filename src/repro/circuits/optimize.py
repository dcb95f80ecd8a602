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
evaluates each distinct 1q run once, with the scalar complex arithmetic
below (NumPy's ``arctan2``/``abs``/``angle`` differ from ``math``/``cmath``
in the last bits).  The Gate-list passes these replaced are the test
oracles in ``tests/reference/peephole.py``; outputs match them bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import Circuit, Packed
from .gates import GATE_NAMES, OP_CODE, gate_matrix

__all__ = ["cancel_adjacent", "fuse_single_qubit", "optimize", "to_cx_u3", "zyz_angles"]

_H, _RX, _RY, _U3, _CX, _CZ, _SWAP = map(OP_CODE.get, "h rx ry u3 cx cz swap".split())

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


# 2x2 unitaries as row-major complex 4-tuples (a, b, c, d) = [[a, b], [c, d]]:
# plain Python arithmetic beats numpy's per-call overhead at this size.
_FIXED = {
    OP_CODE[name]: tuple(complex(v) for v in gate_matrix(name).ravel())
    for name in ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg")
}


def _matrix(op: int, params: list[float]) -> tuple[complex, complex, complex, complex]:
    """``gate_matrix`` of a one-qubit gate as a 4-tuple."""
    fixed = _FIXED.get(op)
    if fixed is not None:
        return fixed
    if op == _U3:
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (c, -cmath.exp(1j * lam) * s, cmath.exp(1j * phi) * s,
                cmath.exp(1j * (phi + lam)) * c)
    t = params[0]
    c, s = math.cos(t / 2), math.sin(t / 2)
    if op == _RX:
        return (c, -1j * s, -1j * s, c)
    if op == _RY:
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


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """ZYZ Euler angles (θ, φ, λ) with ``u ≅ e^{iα}·Rz(φ)·Ry(θ)·Rz(λ)``.

    Global phase is discarded — u3(θ, φ, λ) then equals ``u`` up to phase.
    """
    return _zyz(complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]))


def _is_identity(a: complex, b: complex, c: complex, d: complex) -> bool:
    """Identity up to global phase ``a`` (see :data:`_IDENTITY_RTOL`)."""
    if abs(abs(a) - 1.0) > _IDENTITY_ATOL:
        return False
    return (
        abs(b) <= _IDENTITY_ATOL
        and abs(c) <= _IDENTITY_ATOL
        and abs(d - a) <= _IDENTITY_ATOL + _IDENTITY_RTOL * abs(a)
    )


def _fused(run: list[tuple[int, list[float]]]) -> tuple[float, float, float] | None:
    """u3 angles of a run's product (``(op, params)`` in circuit order), or
    None when the product is the identity."""
    u = None
    for op, params in run:
        a, b, c, d = _matrix(op, params)
        if u is not None:
            e, f, g, h = u
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        u = (a, b, c, d)
    return None if _is_identity(*u) else _zyz(*u)


def _run_angles(
    ops: np.ndarray, params: np.ndarray, gates: np.ndarray, first: np.ndarray,
    length: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep mask and u3 angles of each run ``gates[first : first + length]``.

    Runs repeat, so each distinct one is fused once: a lone gate is keyed
    on its op code and parameter bits, a parameter-free run of up to 15
    gates on its op sequence (4 bits per gate); any other run is its own
    key.  Only the fused runs become Python objects.
    """
    run_ops = ops[gates].astype(np.int64)
    rank = np.arange(len(gates)) - np.repeat(first, length)
    seq = np.add.reduceat((run_ops + 1) << 4 * np.minimum(rank, 14), first)
    # Op codes below rx take no parameters.
    shared = (length == 1) | np.logical_and.reduceat(run_ops < _RX, first) & (length <= 15)
    seq[~shared] = -1 - np.flatnonzero(~shared)
    lead = params[gates[first]].view(np.int64).T.tolist()
    ids: dict[tuple[int, ...], int] = {}
    inverse = np.array([ids.setdefault(k, len(ids)) for k in zip(seq.tolist(), *lead)])
    pick = np.unique(inverse, return_index=True)[1]
    lens = length[pick]
    ends = np.cumsum(lens)
    at = gates[np.repeat(first[pick] - (ends - lens), lens) + np.arange(ends[-1])]
    flat = list(zip(ops[at].tolist(), params[at].tolist()))
    rows = [_fused(flat[e - k : e]) for e, k in zip(ends.tolist(), lens.tolist())]
    found = np.array([row is not None for row in rows])
    return found[inverse], np.array([row or (0.0, 0.0, 0.0) for row in rows])[inverse]


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
