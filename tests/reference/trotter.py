"""Full-ladder Trotter emission and the four-pass ``to_cx_u3``: test oracles.

``reference_trotter_gates`` emits every term's complete basis change, CNOT
ladder, ``Rz``, un-ladder and inverse basis change, with the term order and
parity chains computed from dense labels and Python sets.  The synthesis in
:mod:`repro.circuits.evolution` skips the junction gates that cancellation
deletes anyway, so the two agree after ``_cancel`` and after ``to_cx_u3``
(compared bit for bit, with every parameter as ``float.hex``).

``reference_to_cx_u3`` always runs all four Gate-list passes of
:mod:`reference.peephole` (cancel, expand cz/swap, cancel, fuse), including
the two that are no-ops on a list without cz or swap.

``oracle_trotter_circuit`` (with ``oracle_order``, ``oracle_chain`` and
``oracle_term_circuit``) is the Python-int planner and emitter that the
array synthesis replaced: label keys as Python ints, one ``_plan`` step and
one ``_emit`` int per gate.  It emits exactly what
:func:`repro.circuits.trotter_circuit` does, so the two are compared array
for array.

Tests import it as ``from reference.trotter import ...``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.circuits import Circuit, Gate
from repro.circuits.circuit import Packed
from repro.circuits.gates import OP_CODE
from repro.paulis import PauliString, QubitOperator

from .peephole import gate_cancel, gate_expand_to_cx, gate_fuse


def hex_gates(gates) -> list[tuple[str, tuple[int, ...], tuple[str, ...]]]:
    """Gates as ``(name, qubits, params as float.hex)`` — ``Gate ==`` treats
    ``-0.0 == 0.0``, this form does not."""
    return [(g.name, g.qubits, tuple(p.hex() for p in g.params)) for g in gates]


def reference_order(hamiltonian: QubitOperator) -> list[tuple[PauliString, float]]:
    """Non-identity, non-negligible terms sorted by dense label."""
    terms = [
        (s, c.real)
        for s, c in hamiltonian.terms()
        if not s.is_identity and abs(c) > 1e-12
    ]
    terms.sort(key=lambda item: item[0].label())
    return terms


def _mutual_mask(a: PauliString, b: PauliString) -> int:
    shared = (a.x | a.z) & (b.x | b.z)
    mismatch = (a.x ^ b.x) | (a.z ^ b.z)
    return shared & ~mismatch


def reference_chain(
    prev_chain: list[int] | None,
    prev_string: PauliString | None,
    string: PauliString,
    next_string: PauliString | None = None,
) -> list[int]:
    """The mutual-support parity chain, from sets and ``PauliString.support``."""
    support = set(string.support)
    prefix: list[int] = []
    if prev_chain is not None and prev_string is not None:
        mutual = _mutual_mask(prev_string, string)
        for q in prev_chain:
            if (mutual >> q) & 1:
                prefix.append(q)
            else:
                break
    rest = support.difference(prefix)
    if next_string is not None:
        ahead = _mutual_mask(string, next_string)
        first = sorted((q for q in rest if (ahead >> q) & 1), reverse=True)
        return prefix + first + sorted(
            (q for q in rest if not (ahead >> q) & 1), reverse=True
        )
    return prefix + sorted(rest, reverse=True)


def reference_term_gates(string: PauliString, angle: float, chain: list[int]) -> list[Gate]:
    """Every gate of ``exp(-i·angle/2·P)`` with parity chain ``chain``."""
    out: list[Gate] = []
    ops = list(string.ops())
    for q, op in ops:
        if op == "X":
            out.append(Gate("h", (q,)))
        elif op == "Y":
            out += (Gate("sdg", (q,)), Gate("h", (q,)))
    for i in range(len(chain) - 1):
        out.append(Gate("cx", (chain[i], chain[i + 1])))
    out.append(Gate("rz", (chain[-1],), (angle,)))
    for i in range(len(chain) - 2, -1, -1):
        out.append(Gate("cx", (chain[i], chain[i + 1])))
    for q, op in ops:
        if op == "X":
            out.append(Gate("h", (q,)))
        elif op == "Y":
            out += (Gate("h", (q,)), Gate("s", (q,)))
    return out


def reference_trotter_gates(
    hamiltonian: QubitOperator,
    time: float = 1.0,
    steps: int = 1,
    order: str = "lexicographic",
    suzuki_order: int = 1,
) -> list[Gate]:
    """The complete, uncancelled gate list of the product formula."""
    if order in ("lexicographic", "mutual"):
        terms = reference_order(hamiltonian)
    elif order == "given":
        terms = [(s, c.real) for s, c in hamiltonian.terms() if not s.is_identity]
    else:
        raise ValueError(order)
    dt = time / steps
    if suzuki_order == 1:
        per_step = terms
    else:
        half = [(s, c * 0.5) for s, c in terms]
        per_step = half + half[::-1]
    sequence = per_step * steps

    out: list[Gate] = []
    prev_chain: list[int] | None = None
    prev_string: PauliString | None = None
    for i, (string, coeff) in enumerate(sequence):
        if order == "mutual":
            nxt = sequence[i + 1][0] if i + 1 < len(sequence) else None
            chain = reference_chain(prev_chain, prev_string, string, nxt)
            prev_chain, prev_string = chain, string
        else:
            chain = sorted(string.support, reverse=True)
        out += reference_term_gates(string, 2.0 * coeff * dt, chain)
    return out


def reference_to_cx_u3(gates: list[Gate]) -> list[Gate]:
    """Cancel, expand cz/swap, cancel again, fuse — unconditionally."""
    return gate_fuse(gate_cancel(gate_expand_to_cx(gate_cancel(gates))))


# ----------------------------------------------------------------------
# The Python-int planner and emitter that :mod:`repro.circuits.evolution`
# replaced with array passes, kept verbatim as its oracle: label keys as
# Python ints, one ``_plan`` loop per term, one ``_emit`` int per gate.
# ----------------------------------------------------------------------

#: One term of a plan: its ``(x, z)`` masks, Rz angle and parity chain, then
#: the junction from the previous term: the mutual mask whose basis-change
#: pairs are skipped and the number of shared ladder CXs (both 0 for the
#: first term and after an identical string).
_Term = tuple[int, int, float, list[int], int, int]


def _bits_desc(mask: int) -> list[int]:
    """Set bit positions of ``mask``, descending."""
    out = []
    while mask:
        q = mask.bit_length() - 1
        out.append(q)
        mask ^= 1 << q
    return out


_SPREAD = str.maketrans({"0": "00", "1": "01"})


def _spread(v: int) -> int:
    """``v`` with bit ``q`` moved to bit ``2q``."""
    return int(bin(v)[2:].translate(_SPREAD), 2)


def _label_key(x: int, z: int) -> int:
    """Integer that sorts like the dense label: operator rank
    ``(z << 1) | (x ^ z)`` (I=0, X=1, Y=2, Z=3) at bits ``2q, 2q+1``."""
    return (_spread(z) << 1) | _spread(x ^ z)


def _lexicographic(raw: Iterable[tuple[int, int, complex]]) -> list[tuple[int, int, float]]:
    """Non-identity, non-negligible ``(x, z, real coefficient)`` in label order."""
    terms = [(x, z, c.real) for x, z, c in raw if (x or z) and abs(c) > 1e-12]
    terms.sort(key=lambda t: _label_key(t[0], t[1]))
    return terms


def _mutual(ax: int, az: int, bx: int, bz: int) -> int:
    """Qubits where both strings act with the same non-identity operator
    (neither ladder CXs nor basis changes block cancellation there)."""
    return (ax | az) & (bx | bz) & ~((ax ^ bx) | (az ^ bz))


def _chain(prev_chain: list[int], mutual: int, support: int, ahead: int) -> list[int]:
    """The mutual-support chain: the longest prefix of ``prev_chain`` inside
    ``mutual``, then the rest of ``support`` inside ``ahead``, then the
    remainder, each descending."""
    prefix = []
    for q in prev_chain:
        if not (mutual >> q) & 1:
            break
        prefix.append(q)
        support ^= 1 << q
    return prefix + _bits_desc(support & ahead) + _bits_desc(support & ~ahead)


def _shared_links(a: list[int], b: list[int], mutual: int) -> int:
    """CX pairs cancelling at an A → B junction: one less than the common
    prefix of the two chains lying in the mutual mask (never negative)."""
    common = 0
    for p, q in zip(a, b):
        if p != q or not (mutual >> q) & 1:
            break
        common += 1
    return max(common - 1, 0)


def _plan(sequence: list[tuple[int, int, float]], align: bool, dt: float) -> list[_Term]:
    """Chains and junctions of a term sequence (``align``: mutual-support
    chains, else descending ones)."""
    plan: list[_Term] = []
    chain: list[int] = []
    prev = None
    for i, (x, z, coeff) in enumerate(sequence):
        mutual = _mutual(prev[0], prev[1], x, z) if prev else 0
        if align:
            ahead = 0
            if i + 1 < len(sequence):
                nx, nz, _ = sequence[i + 1]
                ahead = _mutual(x, z, nx, nz)
            new_chain = _chain(chain, mutual, x | z, ahead)
        else:
            new_chain = _bits_desc(x | z)
        junction = links = 0
        if prev is not None and prev != (x, z):
            junction, links = mutual, _shared_links(chain, new_chain, mutual)
        chain, prev = new_chain, (x, z)
        plan.append((x, z, 2.0 * coeff * dt, chain, junction, links))
    return plan


#: A gate as one int while it is emitted: op code in the low bits, then the
#: first qubit, then the second qubit plus one (0 for a one-qubit gate).
_OP_BITS, _QUBIT_BITS = 4, 24
_SDG, _H, _S, _RZ, _CX = map(OP_CODE.get, ("sdg", "h", "s", "rz", "cx"))


def _emit(plan: list[_Term], n_qubits: int) -> Packed:
    """Packed gates of the plan's terms in order, without the junction pairs
    that cancellation would delete between consecutive *different* strings."""
    if n_qubits >= 1 << _QUBIT_BITS:
        raise ValueError(f"{n_qubits} qubits exceed the emitter's {_QUBIT_BITS}-bit index")
    shift = _OP_BITS + _QUBIT_BITS
    h, sdg, s = (
        [op | q << _OP_BITS for q in range(n_qubits)] for op in (_H, _SDG, _S)
    )
    out: list[int] = []
    append = out.append
    rz_at: list[int] = []
    angles: list[float] = []
    last = len(plan) - 1
    for k, (x, z, angle, chain, lead_mask, lead) in enumerate(plan):
        trail_mask, trail = plan[k + 1][4:] if k < last else (0, 0)
        m = x & ~lead_mask
        while m:
            low = m & -m
            q = low.bit_length() - 1
            m ^= low
            if z & low:
                # Map Y -> Z:  (S† then H); inverse is (H then S).
                append(sdg[q])
            append(h[q])
        rungs = [_CX | p << _OP_BITS | (q + 1) << shift for p, q in zip(chain, chain[1:])]
        out += rungs[lead:]
        rz_at.append(len(out))
        angles.append(angle)
        append(_RZ | chain[-1] << _OP_BITS)
        out += reversed(rungs[trail:])
        m = x & ~trail_mask
        while m:
            low = m & -m
            q = low.bit_length() - 1
            m ^= low
            append(h[q])
            if z & low:
                append(s[q])
    code = np.array(out, dtype=np.int64)
    qubits = np.empty((len(code), 2), dtype=np.int32)
    qubits[:, 0] = (code >> _OP_BITS) & ((1 << _QUBIT_BITS) - 1)
    qubits[:, 1] = (code >> shift) - 1
    params = np.zeros((len(code), 3))
    params[rz_at, 0] = angles
    return (code & ((1 << _OP_BITS) - 1)).astype(np.uint8), qubits, params


def oracle_trotter_circuit(
    hamiltonian: QubitOperator,
    time: float = 1.0,
    steps: int = 1,
    order: str = "lexicographic",
    suzuki_order: int = 1,
) -> Circuit:
    """:func:`repro.circuits.trotter_circuit` through the Python-int planner
    and emitter above (same arguments, same junction-skipping output)."""
    if order in ("lexicographic", "mutual"):
        terms = _lexicographic(hamiltonian.raw_terms())
    elif order == "given":
        terms = [(x, z, c.real) for x, z, c in hamiltonian.raw_terms() if x or z]
    else:
        raise ValueError(order)
    dt = time / steps
    if suzuki_order == 1:
        per_step = terms
    else:
        half = [(x, z, c * 0.5) for x, z, c in terms]
        per_step = half + half[::-1]
    plan = _plan(per_step * steps, order == "mutual", dt)
    return Circuit.from_packed(hamiltonian.n, *_emit(plan, hamiltonian.n))


def oracle_order(hamiltonian: QubitOperator) -> list[tuple[PauliString, float]]:
    """:func:`repro.circuits.order_terms_lexicographic` through ``_label_key``."""
    n = hamiltonian.n
    return [(PauliString(n, x, z), c) for x, z, c in _lexicographic(hamiltonian.raw_terms())]


def oracle_term_circuit(string: PauliString, angle: float, chain: list[int]) -> Circuit:
    """A one-term plan through ``_emit``."""
    return Circuit.from_packed(
        string.n, *_emit([(string.x, string.z, angle, list(chain), 0, 0)], string.n)
    )


def oracle_chain(
    prev_chain: list[int] | None,
    prev_string: PauliString | None,
    string: PauliString,
    next_string: PauliString | None = None,
) -> list[int]:
    """:func:`repro.circuits.mutual_support_chain` through ``_chain``."""
    x, z = string.x, string.z
    mutual = ahead = 0
    if prev_chain is None or prev_string is None:
        prev_chain = []
    else:
        mutual = _mutual(prev_string.x, prev_string.z, x, z)
    if next_string is not None:
        ahead = _mutual(x, z, next_string.x, next_string.z)
    return _chain(prev_chain, mutual, x | z, ahead)
