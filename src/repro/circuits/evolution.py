"""Pauli-evolution circuit synthesis (paper §II-B2, Fig. 2).

Each term ``exp(-i·θ·P)`` compiles to: basis changes (H for X, S†H for Y),
a CNOT ladder entangling the support onto a target qubit, ``Rz(2θ)`` on the
target, and the inverse ladder/basis changes.  Identity operators generate
no gates — this is why the Hamiltonian Pauli weight is the paper's proxy for
circuit cost.  Synthesis reads the Hamiltonian's packed table
(:meth:`~repro.paulis.QubitOperator.to_table`) and writes the packed circuit
of :mod:`.circuit` with array passes; it builds no term dict and no
:class:`~repro.circuits.Gate`.  The Python-int planner and per-gate emitter
it replaced are the test oracle ``tests/reference/trotter.py``.

Term ordering and ladder shape
------------------------------
Identity rows and rows with |c| ≤ 1e-12 are dropped, and the rest ordered
lexicographically by dense label so adjacent terms share ladder prefixes:
each qubit's operator rank I<X<Y<Z, ``(z << 1) | (x ^ z)``, sits in bits
``2q, 2q+1`` of an interleaved key (one ``uint64`` per 32 qubits, the
highest sorted first), so comparing keys compares labels.

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
ladders (≈6% on H₂O/JW, ≈12% on LiH/JW after the peephole).  Each such
chain depends on the one before it, so their loop (on Python ints) is the
only per-term Python in synthesis.

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

Each term's gate counts follow from its arrays (basis changes, two for a Y;
``weight - 1`` ladder CXs less those shared with the previous term; the
``Rz``; the un-ladder and inverse basis changes likewise), so one cumulative
sum places every term and one ``repeat`` gather per gate kind fills the op,
qubit and parameter arrays.
"""

from __future__ import annotations

from itertools import chain as _concat

import numpy as np

from ..paulis import PauliString, QubitOperator
from ..paulis.pauli_sum import DUST_TOLERANCE
from ..paulis.table import _masks_to_words, _n_words, _words_to_masks, set_bits, unpack_masks
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

_SDG, _H, _S, _RZ, _CX = map(OP_CODE.get, ("sdg", "h", "s", "rz", "cx"))

#: Morton spread: each step doubles the gap between the bits of a 32-bit value.
_SPREAD = [(np.uint64(k), np.uint64(m)) for k, m in (
    (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333), (1, 0x5555555555555555))]
_LOW32 = np.uint64(0xFFFFFFFF)


def _spread(v: np.ndarray) -> np.ndarray:
    """``uint64`` values below 2**32 with bit ``q`` moved to bit ``2q``."""
    for shift, mask in _SPREAD:
        v = (v | (v << shift)) & mask
    return v


def _label_order(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """Stable row order by dense label (module docstring)."""
    keys = []
    for chunk in range(max(1, -(-n_qubits // 32))):
        word, half = divmod(chunk, 2)
        shift = np.uint64(32 * half)
        cx = (x[:, word] >> shift) & _LOW32
        cz = (z[:, word] >> shift) & _LOW32
        keys.append((_spread(cz) << np.uint64(1)) | _spread(cx ^ cz))
    return np.lexsort(keys)  # stable; the last key, the highest qubits, is primary


def _terms(table, coeffs: np.ndarray, order: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows to evolve, in ``order``, and their real coefficients."""
    keep = (table.x | table.z).any(axis=1)
    if order != "given":
        magnitude = np.abs(coeffs)
        near = keep & (np.abs(magnitude - DUST_TOLERANCE) <= 8 * np.spacing(DUST_TOLERANCE))
        keep &= magnitude > DUST_TOLERANCE
        # A row within a few ulps of the cutoff is decided by Python's abs.
        for i in np.flatnonzero(near).tolist():
            keep[i] = abs(complex(coeffs[i])) > DUST_TOLERANCE
    rows = np.flatnonzero(keep)
    if order != "given":
        rows = rows[_label_order(table.x[rows], table.z[rows], table.n)]
    return rows, coeffs.real[rows]


def _mutual(ax, az, bx, bz):
    """Qubits where both strings act with the same non-identity operator
    (neither ladder CXs nor basis changes block cancellation there); on
    Python ints or on ``uint64`` word arrays."""
    return (ax | az) & (bx | bz) & ~((ax ^ bx) | (az ^ bz))


def _bits_desc(mask: int) -> tuple[int, ...]:
    """Set bit positions of ``mask``, descending."""
    out = []
    while mask:
        q = mask.bit_length() - 1
        out.append(q)
        mask ^= 1 << q
    return tuple(out)


def _mutual_chains(supports, mutuals, aheads, chain=()):
    """Chains (and prefix lengths) of a term sequence after ``chain``, on
    Python ints: the longest prefix of the previous chain inside the mutual
    mask, then the rest of the support inside ``ahead`` (the mutual mask with
    the next term), then the remainder, each descending."""
    chain = tuple(chain)
    tails = {}
    chains, prefixes = [], []
    for support, mutual, ahead in zip(supports, mutuals, aheads):
        p = 0
        if mutual:
            for q in chain:
                if not (mutual >> q) & 1:
                    break
                support ^= 1 << q
                p += 1
        tail = tails.get((support, ahead))
        if tail is None:
            tail = _bits_desc(support & ahead) + _bits_desc(support & ~ahead)
            tails[support, ahead] = tail
        chain = chain[:p] + tail
        chains.append(chain)
        prefixes.append(p)
    return chains, prefixes


def _plan(x: np.ndarray, z: np.ndarray, align: bool):
    """Per term of ``(x, z)``: the mutual mask with a *different* previous
    string (else 0), the chains (concatenated) and their lengths, and the
    ladder CXs shared with the previous term.  ``align``: mutual-support
    chains, else descending ones."""
    support = x | z
    mutual = np.zeros_like(x)
    mutual[1:] = _mutual(x[:-1], z[:-1], x[1:], z[1:])
    differs = np.zeros(len(x), dtype=bool)
    differs[1:] = ((x[1:] != x[:-1]) | (z[1:] != z[:-1])).any(axis=1)
    lengths = np.bitwise_count(support).sum(axis=1, dtype=np.intp)
    common = np.zeros(len(x), dtype=np.intp)
    if align:
        ahead = np.zeros_like(x)
        ahead[:-1] = mutual[1:]
        chains, prefixes = _mutual_chains(
            _words_to_masks(support), _words_to_masks(mutual), _words_to_masks(ahead)
        )
        flat = np.fromiter(_concat.from_iterable(chains), dtype=np.intp, count=int(lengths.sum()))
        # The prefix stops at the first qubit outside the mutual mask, so the
        # two chains agree inside it exactly that far.
        common[:] = prefixes
    else:
        bits = unpack_masks(support)[:, ::-1].view(bool)
        flat = bits.shape[1] - 1 - np.flatnonzero(bits) % bits.shape[1]
        # Descending chains agree inside the mutual mask down to the first
        # qubit (from the top) in one support only or with two operators.
        good = unpack_masks(~(support[:-1] | support[1:]) | mutual[1:])[:, ::-1]
        run = np.logical_and.accumulate(good.astype(bool), axis=1)
        common[1:] = (unpack_masks(mutual[1:])[:, ::-1] & run).sum(axis=1)
    lead = np.where(differs, np.maximum(common - 1, 0), 0)
    lead_mask = np.where(differs[:, None], mutual, np.uint64(0))
    return lead_mask, flat, lengths, lead


def _ranges(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` of each slot; item ``i`` owns ``counts[i]`` slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


def _basis(mask: np.ndarray, z: np.ndarray, n_terms: int):
    """``(term, qubit, is_y, gates per term)`` of the basis changes on the set
    bits of ``mask``, term-major with qubits ascending."""
    term, qubit = set_bits(mask)
    is_y = unpack_masks(mask & z)[term, qubit].astype(bool)
    count = np.bincount(term, minlength=n_terms) + np.bincount(term[is_y], minlength=n_terms)
    return term, qubit, is_y, count


def _emit(x, z, angles, lead_mask, chains, lengths, lead) -> Packed:
    """Packed gates of the planned terms in order, without the junction pairs
    that cancellation would delete between consecutive *different* strings."""
    n_terms = len(angles)
    trail_mask = np.zeros_like(lead_mask)
    trail_mask[:-1] = lead_mask[1:]
    trail = np.zeros_like(lead)
    trail[:-1] = lead[1:]
    basis = _basis(x & ~lead_mask, z, n_terms)  # (term, qubit, is_y, count)
    unbasis = _basis(x & ~trail_mask, z, n_terms)
    up, down = lengths - 1 - lead, lengths - 1 - trail  # ladder CXs emitted
    size = basis[3] + up + 1 + down + unbasis[3]
    rz = np.cumsum(size) - size + basis[3] + up  # the Rz of each term
    chain_start = np.cumsum(lengths) - lengths

    total = int(size.sum())
    ops = np.empty(total, dtype=np.uint8)
    qubits = np.full((total, 2), -1, dtype=np.int32)
    params = np.zeros((total, 3))

    def changes(term, qubit, is_y, count, start, k_y, op_y):
        # One H per qubit; a Y adds ``op_y`` as its gate ``k_y`` (0 or 1).
        pair, k = _ranges(1 + is_y)
        t = term[pair]
        pos = start[t] + np.arange(len(pair)) - (np.cumsum(count) - count)[t]
        ops[pos] = np.where(is_y[pair] & (k == k_y), op_y, _H)
        qubits[pos, 0] = qubit[pair]

    def rungs(pos, j):
        ops[pos] = _CX
        qubits[pos, 0] = chains[j]
        qubits[pos, 1] = chains[j + 1]

    changes(*basis, rz - up - basis[3], 0, _SDG)
    t, i = _ranges(up)  # rungs from ``lead`` up to the Rz
    rungs(rz[t] - up[t] + i, chain_start[t] + lead[t] + i)
    t, i = _ranges(down)  # and back down to ``trail``
    rungs(rz[t] + 1 + i, chain_start[t] + lengths[t] - 2 - i)
    changes(*unbasis, rz + 1 + down, 1, _S)
    ops[rz] = _RZ
    qubits[rz, 0] = chains[chain_start + lengths - 1]
    params[rz, 0] = angles
    return ops, qubits, params


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
    elif tuple(sorted(chain, reverse=True)) != _bits_desc(support):
        raise ValueError("chain must be a permutation of the support")
    x, z = (_masks_to_words([mask], _n_words(n)) for mask in (string.x, string.z))
    one = np.zeros(1, dtype=np.intp)
    plan = (np.zeros_like(x), np.array(chain, dtype=np.intp), one + len(chain), one)
    return Circuit.from_packed(n, *_emit(x, z, np.array([angle], dtype=float), *plan))


def order_terms_lexicographic(
    hamiltonian: QubitOperator,
) -> list[tuple[PauliString, float]]:
    """Deterministic term order maximizing shared ladder prefixes.

    Sort key: the dense label (highest qubit first) — CNOT ladders descend
    from the highest support qubit, so adjacent terms sharing a high-qubit
    suffix hand the cancellation pass matching un-ladder/ladder pairs.
    """
    table, coeffs = hamiltonian.to_table()
    rows, reals = _terms(table, coeffs, "lexicographic")
    masks = zip(_words_to_masks(table.x[rows]), _words_to_masks(table.z[rows]))
    n = hamiltonian.n
    return [(PauliString(n, x, z), c) for (x, z), c in zip(masks, reals.tolist())]


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
        prev_chain = ()
    else:
        mutual = _mutual(prev_string.x, prev_string.z, x, z)
    if next_string is not None:
        ahead = _mutual(x, z, next_string.x, next_string.z)
    return list(_mutual_chains([x | z], [mutual], [ahead], prev_chain)[0][0])


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
    if order not in TERM_ORDERS:
        raise ValueError(f"unknown term order {order!r}; expected one of {TERM_ORDERS}")
    table, coeffs = hamiltonian.to_table()
    rows, reals = _terms(table, coeffs, order)
    if suzuki_order == 2:
        half = reals * 0.5
        rows, reals = np.concatenate([rows, rows[::-1]]), np.concatenate([half, half[::-1]])
    rows = np.tile(rows, steps)
    angles = 2.0 * np.tile(reals, steps) * (time / steps)
    x, z = table.x[rows], table.z[rows]
    # Every qubit index comes from a row on hamiltonian.n qubits, so the
    # packed gates are adopted without a per-gate range check.
    plan = _plan(x, z, order == "mutual")
    return Circuit.from_packed(hamiltonian.n, *_emit(x, z, angles, *plan))
