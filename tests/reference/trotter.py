"""Full-ladder Trotter emission and the four-pass ``to_cx_u3``: test oracles.

``reference_trotter_gates`` emits every term's complete basis change, CNOT
ladder, ``Rz``, un-ladder and inverse basis change, with the term order and
parity chains computed from dense labels and Python sets.  The synthesis in
:mod:`repro.circuits.evolution` skips the junction gates that cancellation
deletes anyway, so the two agree after ``_cancel`` and after ``to_cx_u3``
(compared bit for bit, with every parameter as ``float.hex``).

``reference_to_cx_u3`` always runs all four passes (cancel, expand cz/swap,
cancel, fuse), including the two that are no-ops on a list without cz or
swap.

Tests import it as ``from reference.trotter import ...``.
"""

from __future__ import annotations

from repro.circuits import Gate
from repro.circuits.optimize import _cancel, _expand_to_cx, _fuse
from repro.paulis import PauliString, QubitOperator


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
    return _fuse(_cancel(_expand_to_cx(_cancel(gates))))
