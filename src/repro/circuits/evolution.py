"""Pauli-evolution circuit synthesis (paper §II-B2, Fig. 2).

Each term ``exp(-i·θ·P)`` compiles to: basis changes (H for X, S†H for Y),
a CNOT ladder entangling the support onto a target qubit, ``Rz(2θ)`` on the
target, and the inverse ladder/basis changes.  Identity operators generate
no gates — this is why the Hamiltonian Pauli weight is the paper's proxy for
circuit cost.

Term ordering and ladder shape
------------------------------
Terms are ordered lexicographically by dense label so adjacent terms share
ladder prefixes; the peephole optimizer then cancels the shared CNOTs.

The ladder itself is a *parity chain*: any ordering of the support produces
the same term unitary (each CX just accumulates one more qubit into the
running parity), so the chain is a free degree of freedom.  The
``"mutual"`` ordering pass exploits this: it keeps the lexicographic term
order but re-roots every ladder to start with the longest run of the
previous ladder that acts identically in both terms (the *mutual support*),
so the un-ladder/ladder pair at each term junction cancels even when the
shared qubits are not a label prefix — e.g. JW hopping partners
``X·Z…Z·X`` / ``Y·Z…Z·Y`` share their whole Z-interior but never their
label prefix.  This measurably cuts CNOTs versus plain lexicographic
ladders (≈6% on H₂O/JW, ≈12% on LiH/JW after the peephole).
"""

from __future__ import annotations

from ..paulis import PauliString, QubitOperator
from .circuit import Circuit
from .gates import Gate

__all__ = [
    "evolution_term_circuit",
    "trotter_circuit",
    "order_terms_lexicographic",
    "mutual_support_chain",
    "TERM_ORDERS",
]

#: Term-ordering passes understood by :func:`trotter_circuit`.
TERM_ORDERS = ("lexicographic", "mutual", "given")


class _GateCache(dict):
    """One shared parameter-free :class:`Gate` per ``(name, qubits)`` key —
    gates are immutable, so a circuit may repeat the same instance."""

    def __missing__(self, key: tuple[str, tuple[int, ...]]) -> Gate:
        gate = self[key] = Gate(*key)
        return gate


def _emit_term(
    out: list[Gate],
    string: PauliString,
    angle: float,
    chain: list[int],
    gates: _GateCache,
) -> None:
    """Append the gates of ``exp(-i·angle/2·P)`` with parity chain ``chain``."""
    ops = list(string.ops())
    for q, op in ops:
        if op == "X":
            out.append(gates["h", (q,)])
        elif op == "Y":
            # Map Y -> Z:  (S† then H); inverse is (H then S).
            out += (gates["sdg", (q,)], gates["h", (q,)])
    for i in range(len(chain) - 1):
        out.append(gates["cx", (chain[i], chain[i + 1])])
    out.append(Gate("rz", (chain[-1],), (angle,)))
    for i in range(len(chain) - 2, -1, -1):
        out.append(gates["cx", (chain[i], chain[i + 1])])
    for q, op in ops:
        if op == "X":
            out.append(gates["h", (q,)])
        elif op == "Y":
            out += (gates["h", (q,)], gates["s", (q,)])


def evolution_term_circuit(
    string: PauliString,
    angle: float,
    n_qubits: int | None = None,
    chain: list[int] | None = None,
) -> Circuit:
    """Circuit for ``exp(-i·angle/2·P)`` (so the Rz angle equals ``angle``).

    ``chain`` orders the CNOT parity ladder (the Rz target is its last
    element); it must be a permutation of the support.  The default chain
    descends from the highest support qubit so the target is the lowest, as
    in the paper's Fig. 2 example (q0).
    """
    n = n_qubits if n_qubits is not None else string.n
    support = list(string.support)
    if not support:
        return Circuit(n)  # global phase only — no gates (paper: weight 0)
    if chain is None:
        chain = sorted(support, reverse=True)
    elif sorted(chain) != support:
        raise ValueError("chain must be a permutation of the support")
    gates: list[Gate] = []
    _emit_term(gates, string, angle, chain, _GateCache())
    return Circuit(n, gates)


def order_terms_lexicographic(
    hamiltonian: QubitOperator,
) -> list[tuple[PauliString, float]]:
    """Deterministic term order maximizing shared ladder prefixes.

    Sort key: the dense label (highest qubit first) — CNOT ladders descend
    from the highest support qubit, so adjacent terms sharing a high-qubit
    suffix hand the cancellation pass matching un-ladder/ladder pairs.
    """
    terms = [
        (s, c.real)
        for s, c in hamiltonian.terms()
        if not s.is_identity and abs(c) > 1e-12
    ]
    terms.sort(key=lambda item: item[0].label())
    return terms


def _mutual_mask(a: PauliString, b: PauliString) -> int:
    """Bitmask of qubits where both strings act with the same non-identity
    operator (neither ladder CXs nor basis changes block cancellation)."""
    shared = (a.x | a.z) & (b.x | b.z)
    mismatch = (a.x ^ b.x) | (a.z ^ b.z)
    return shared & ~mismatch


def mutual_support_chain(
    prev_chain: list[int] | None,
    prev_string: PauliString | None,
    string: PauliString,
    next_string: PauliString | None = None,
) -> list[int]:
    """Parity-chain order for ``string`` aligned with its neighbours.

    The chain starts with the longest prefix of ``prev_chain`` lying in the
    mutual support of the two strings — those un-ladder/ladder CX pairs
    cancel at the junction.  The remaining support is ordered to anticipate
    ``next_string`` (its mutual qubits first, descending), so e.g. the
    ``X·Z…Z·X`` / ``Y·Z…Z·Y`` hopping partners — whose endpoints mismatch
    but whose Z-interior is shared — get their interior rooted at the chain
    head where the next junction can cancel it.
    """
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


def trotter_circuit(
    hamiltonian: QubitOperator,
    time: float = 1.0,
    steps: int = 1,
    order: str = "lexicographic",
    suzuki_order: int = 1,
) -> Circuit:
    """Product-formula circuit for ``e^{-iHt}``.

    ``suzuki_order=1`` (paper default): ``(Π_j e^{-i·c_j·P_j·t/r})^r``.
    ``suzuki_order=2``: the symmetric Strang splitting — forward half-step
    then reversed half-step — with error O(t³/r²).

    ``order`` selects the term-ordering pass: ``"lexicographic"`` (fixed
    descending ladders), ``"mutual"`` (lexicographic term order with
    mutual-support-aligned ladders — fewer CNOTs after the peephole; any
    ordering is a valid first-order product formula, but the exact Trotter
    unitary differs term order by term order), or ``"given"`` (the
    Hamiltonian's own term order, fixed ladders).

    ``hamiltonian`` must be Hermitian (real canonical coefficients); the
    identity term contributes only a global phase and is skipped.
    """
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    if suzuki_order not in (1, 2):
        raise ValueError("suzuki_order must be 1 or 2")
    if not hamiltonian.is_hermitian():
        raise ValueError("time evolution requires a Hermitian Hamiltonian")
    if order in ("lexicographic", "mutual"):
        terms = order_terms_lexicographic(hamiltonian)
    elif order == "given":
        terms = [
            (s, c.real) for s, c in hamiltonian.terms() if not s.is_identity
        ]
    else:
        raise ValueError(f"unknown term order {order!r}; expected one of {TERM_ORDERS}")
    align = order == "mutual"
    dt = time / steps
    if suzuki_order == 1:
        per_step = terms
    else:
        half = [(s, c * 0.5) for s, c in terms]
        per_step = half + half[::-1]
    sequence = per_step * steps

    # Every qubit index comes from a string on hamiltonian.n qubits, so the
    # gate list is wrapped once at the end without a per-gate range check.
    out: list[Gate] = []
    shared = _GateCache()
    prev_chain: list[int] | None = None
    prev_string: PauliString | None = None
    for i, (string, coeff) in enumerate(sequence):
        if string.weight == 0:
            continue  # global phase only
        if align:
            nxt = sequence[i + 1][0] if i + 1 < len(sequence) else None
            chain = mutual_support_chain(prev_chain, prev_string, string, nxt)
            prev_chain, prev_string = chain, string
        else:
            chain = sorted(string.support, reverse=True)
        _emit_term(out, string, 2.0 * coeff * dt, chain, shared)
    return Circuit.trusted(hamiltonian.n, out)
