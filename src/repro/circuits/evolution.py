"""Pauli-evolution circuit synthesis (paper §II-B2, Fig. 2).

Each term ``exp(-i·θ·P)`` compiles to: basis changes (H for X, S†H for Y),
a CNOT ladder entangling the support onto a target qubit, ``Rz(2θ)`` on the
target, and the inverse ladder/basis changes.  Identity operators generate
no gates — this is why the Hamiltonian Pauli weight is the paper's proxy for
circuit cost.  The circuit is written in the packed form of :mod:`.circuit`
(each gate appended as one int, decoded into the arrays at the end), so
synthesis builds no :class:`~repro.circuits.Gate`.

Term ordering and ladder shape
------------------------------
Terms are ordered lexicographically by dense label so adjacent terms share
ladder prefixes.  The order is computed from the packed ``(x, z)`` masks:
:func:`_label_key` ranks each qubit's operator I<X<Y<Z in two bits at bit
``2q``, so comparing keys compares dense labels (highest qubit first).

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

Junction emission
-----------------
Most gates of the full term-by-term emission exist only to be deleted by the
cancellation pass: at a junction between terms A → B, A's inverse basis
change and B's basis change cancel on every *mutual* qubit (same
non-identity operator in both: H·H, and ``h s``·``sdg h`` for Y), and then
A's last ``L-1`` un-ladder CXs cancel against B's first ``L-1`` ladder CXs,
where ``L`` is the length of the common chain prefix lying in the mutual
mask.  :func:`trotter_circuit` never emits those gates, so synthesis and the
peephole cost track the surviving gates (SYK n=16: 256,816 emitted instead
of 995,628).  ``_cancel`` on the short list equals ``_cancel`` on the full
one gate for gate, merged angles bit for bit.

The rule applies only between terms whose strings *differ*.  Where a string
meets itself (the Suzuki-2 mid-point, the step wrap-around) everything is
emitted: there the two ``Rz`` gates merge, and a full junction leaves the
sweep adding up merged angles in exactly the order it does on the full
emission (float addition does not associate, so that order fixes the last
bits of the result).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..paulis import PauliString, QubitOperator
from .circuit import Circuit, Packed
from .gates import OP_CODE

__all__ = [
    "evolution_term_circuit",
    "trotter_circuit",
    "order_terms_lexicographic",
    "mutual_support_chain",
    "TERM_ORDERS",
]

#: Term-ordering passes understood by :func:`trotter_circuit`.
TERM_ORDERS = ("lexicographic", "mutual", "given")

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
    support = string.x | string.z
    if not support:
        return Circuit(n)  # global phase only — no gates (paper: weight 0)
    if support >> n:
        raise ValueError(f"{string} acts outside qubit range 0..{n - 1}")
    if chain is None:
        chain = _bits_desc(support)
    elif sorted(chain, reverse=True) != _bits_desc(support):
        raise ValueError("chain must be a permutation of the support")
    return Circuit.from_packed(n, *_emit([(string.x, string.z, angle, list(chain), 0, 0)], n))


def order_terms_lexicographic(
    hamiltonian: QubitOperator,
) -> list[tuple[PauliString, float]]:
    """Deterministic term order maximizing shared ladder prefixes.

    Sort key: the dense label (highest qubit first) — CNOT ladders descend
    from the highest support qubit, so adjacent terms sharing a high-qubit
    suffix hand the cancellation pass matching un-ladder/ladder pairs.
    """
    n = hamiltonian.n
    return [
        (PauliString(n, x, z), c) for x, z, c in _lexicographic(hamiltonian.raw_terms())
    ]


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
    x, z = string.x, string.z
    mutual = ahead = 0
    if prev_chain is None or prev_string is None:
        prev_chain = []
    else:
        mutual = _mutual(prev_string.x, prev_string.z, x, z)
    if next_string is not None:
        ahead = _mutual(x, z, next_string.x, next_string.z)
    return _chain(prev_chain, mutual, x | z, ahead)


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

    Junctions between different strings are emitted without the gates that
    cancel there (module docstring), so the result equals the full emission
    after cancellation, not before.

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
        terms = _lexicographic(hamiltonian.raw_terms())
    elif order == "given":
        terms = [(x, z, c.real) for x, z, c in hamiltonian.raw_terms() if x or z]
    else:
        raise ValueError(f"unknown term order {order!r}; expected one of {TERM_ORDERS}")
    dt = time / steps
    if suzuki_order == 1:
        per_step = terms
    else:
        half = [(x, z, c * 0.5) for x, z, c in terms]
        per_step = half + half[::-1]

    # Every qubit index comes from a string on hamiltonian.n qubits, so the
    # packed gates are adopted without a per-gate range check.
    plan = _plan(per_step * steps, order == "mutual", dt)
    return Circuit.from_packed(hamiltonian.n, *_emit(plan, hamiltonian.n))
