"""Vectorized symplectic Pauli-table backend for bulk workloads.

A :class:`PauliTable` is a batch of Pauli strings stored as rows of a binary
X|Z matrix packed into ``uint64`` words — the representation used by
stabilizer tableaus.  Row ``i`` holds the string ``i**phase[i] · P_i`` with

* ``x[i, w]`` — bit ``b`` set iff qubit ``64*w + b`` carries an X component,
* ``z[i, w]`` — bit ``b`` set iff qubit ``64*w + b`` carries a Z component,
* ``phase[i]`` — the ``i**k`` exponent modulo 4,

matching the canonical single-qubit convention of :mod:`repro.paulis.algebra`
(``(x, z) = (1, 1)`` is Y, phases multiply exactly).  All bulk operations —
row-wise products, commutation tests, weights, duplicate combination — run as
NumPy bitwise kernels over the packed words, so mapping tens of thousands of
Majorana monomials costs a handful of array passes instead of a Python loop
per term.

The scalar ``(x, z, k)`` integer path in :mod:`repro.paulis.algebra` remains
the reference implementation; the property tests cross-check the two on
random operators past the single-word (64-qubit) boundary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliString
from .pauli_sum import DEFAULT_TOLERANCE, QubitOperator

__all__ = [
    "PauliTable",
    "incidence_from_masks",
    "plan_from_masks",
    "set_bits",
    "unpack_masks",
    "WORD_BITS",
]

#: Number of qubits packed into one table word.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1

#: ``i**k`` lookup indexed by phase exponent.
_PHASE_VALUES = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=complex)


def _n_words(n_qubits: int) -> int:
    """Words needed for ``n_qubits`` (at least one, so empty tables stay 2-D)."""
    return max(1, -(-n_qubits // WORD_BITS))


def _masks_to_words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack arbitrary-precision Python-int bitmasks into ``(m, n_words)`` uint64."""
    m = len(masks)
    out = np.zeros((m, n_words), dtype=np.uint64)
    if not m:
        return out
    if n_words == 1:
        out[:, 0] = np.fromiter((int(v) for v in masks), dtype=np.uint64, count=m)
        return out
    obj = np.array([int(v) for v in masks], dtype=object)
    for w in range(n_words):
        out[:, w] = ((obj >> (WORD_BITS * w)) & _WORD_MASK).astype(np.uint64)
    return out


def _words_to_masks(words: np.ndarray) -> list[int]:
    """Unpack ``(m, n_words)`` uint64 rows back into Python-int bitmasks."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    total = words[:, -1].astype(object)
    for w in range(words.shape[1] - 2, -1, -1):
        total = (total << WORD_BITS) | words[:, w].astype(object)
    return total.tolist()


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Total set bits per row (summed over words), as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def unpack_masks(masks: np.ndarray) -> np.ndarray:
    """Unpack ``(m, n_words)`` uint64 rows into an ``(m, 64 * n_words)``
    0/1 uint8 matrix; column ``i`` is bit ``i % 64`` of word ``i // 64``."""
    as_bytes = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")


def set_bits(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, bit)`` of every set bit of ``(m, n_words)`` uint64 rows,
    row-major with bits ascending (``np.nonzero`` of :func:`unpack_masks`,
    through one flat scan)."""
    bits = unpack_masks(masks).view(bool)
    return np.divmod(np.flatnonzero(bits), bits.shape[1])


def incidence_from_masks(masks: np.ndarray, n_rows: int) -> np.ndarray:
    """Pack the transposed incidence of bitmask sets into ``(n_rows, n_words)``.

    Bit ``j`` of row ``i`` is set iff bit ``i`` of ``masks[j]`` is set — the
    bit-matrix transpose, 64 sets per word.  This is the layout the HATT
    construction uses for per-node term-membership masks: row ``i`` is the
    packed equivalent of the Python-int mask ``Σ_j (i in set j) << j``.
    """
    bits = unpack_masks(masks)
    if bits[:, n_rows:].any():
        raise ValueError(f"a mask sets a bit outside 0..{n_rows - 1}")
    n_sets = len(masks)
    out = np.zeros((n_rows, 8 * _n_words(n_sets)), dtype=np.uint8)
    width = min(n_rows, bits.shape[1])
    packed = np.packbits(bits[:, :width].T, axis=1, bitorder="little")
    out[:width, : packed.shape[1]] = packed
    return out.view("<u8").astype(np.uint64)


def plan_from_masks(masks: np.ndarray) -> np.ndarray:
    """The plan matrix consumed by :meth:`PauliTable.padded_row_products`.

    Each monomial's set bits (ascending) become indices shifted up by one,
    and rows are right-padded with ``0`` (the virtual identity row), giving a
    ``(len(masks), max_len)`` intp matrix.  This is the single definition of
    the plan encoding; build plans only through it.
    """
    counts = _popcount_rows(masks).astype(np.intp)
    rows, cols = set_bits(masks)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    plan = np.zeros((len(masks), int(counts.max(initial=0))), dtype=np.intp)
    plan[rows, rank] = cols + 1
    return plan


class PauliTable:
    """A batch of ``m`` Pauli strings on ``n`` qubits in packed symplectic form."""

    __slots__ = ("n", "x", "z", "phase", "_aug")

    def __init__(self, n: int, x: np.ndarray, z: np.ndarray, phase: np.ndarray | None = None):
        if n < 0:
            raise ValueError(f"number of qubits must be non-negative, got {n}")
        x = np.ascontiguousarray(x, dtype=np.uint64)
        z = np.ascontiguousarray(z, dtype=np.uint64)
        if x.ndim != 2 or x.shape != z.shape:
            raise ValueError(f"x/z must be equal-shape 2-D arrays, got {x.shape} vs {z.shape}")
        if x.shape[1] != _n_words(n):
            raise ValueError(
                f"expected {_n_words(n)} words for {n} qubits, got {x.shape[1]}"
            )
        if phase is None:
            phase = np.zeros(x.shape[0], dtype=np.uint8)
        else:
            phase = np.asarray(phase)
            phase = (phase.astype(np.int64) & 3).astype(np.uint8)
            if phase.shape != (x.shape[0],):
                raise ValueError("phase vector length must match the row count")
        # Reject bits beyond the qubit range (mirrors PauliString's guard).
        spare = x.shape[1] * WORD_BITS - n
        if spare and x.shape[0]:
            tail_mask = np.uint64(((1 << spare) - 1) << (WORD_BITS - spare))
            if np.any(x[:, -1] & tail_mask) or np.any(z[:, -1] & tail_mask):
                raise ValueError("x/z masks have bits outside the qubit range")
        self.n = n
        self.x = x
        self.z = z
        self.phase = phase
        self._aug = None

    # ------------------------------------------------------------------
    # Constructors / round-trips
    # ------------------------------------------------------------------
    @classmethod
    def _unsafe(cls, n: int, x: np.ndarray, z: np.ndarray, phase: np.ndarray) -> "PauliTable":
        """Internal constructor skipping validation — arrays must already be
        well-formed ``uint64 (m, words)`` / ``uint8 (m,)``.  Used by the hot
        paths whose inputs are derived from already-validated tables."""
        table = object.__new__(cls)
        table.n = n
        table.x = x
        table.z = z
        table.phase = phase
        table._aug = None
        return table

    @classmethod
    def identity(cls, n: int, m: int = 1) -> "PauliTable":
        """``m`` identity rows on ``n`` qubits."""
        w = _n_words(n)
        zeros = np.zeros((m, w), dtype=np.uint64)
        return cls(n, zeros, zeros.copy())

    @classmethod
    def from_masks(
        cls,
        n: int,
        xs: Sequence[int],
        zs: Sequence[int],
        phases: Iterable[int] | None = None,
    ) -> "PauliTable":
        """Build from parallel lists of Python-int ``x``/``z`` masks."""
        if len(xs) != len(zs):
            raise ValueError("x and z mask lists differ in length")
        w = _n_words(n)
        phase = None if phases is None else np.fromiter(phases, dtype=np.int64, count=len(xs))
        return cls(n, _masks_to_words(xs, w), _masks_to_words(zs, w), phase)

    @classmethod
    def from_strings(
        cls, strings: Sequence[PauliString], n: int | None = None
    ) -> "PauliTable":
        """Pack a list of :class:`PauliString` (lossless, phases included)."""
        if n is None:
            if not strings:
                raise ValueError("cannot infer qubit count from an empty string list")
            n = strings[0].n
        for s in strings:
            if s.n != n:
                raise ValueError(
                    f"string {s!r} acts on {s.n} qubits, expected {n}"
                )
        return cls.from_masks(
            n, [s.x for s in strings], [s.z for s in strings], (s.phase for s in strings)
        )

    def to_strings(self) -> list[PauliString]:
        """Unpack back into :class:`PauliString` objects (lossless)."""
        return [
            PauliString(self.n, x, z, k)
            for x, z, k in zip(
                _words_to_masks(self.x), _words_to_masks(self.z), self.phase.tolist()
            )
        ]

    def to_qubit_operator(
        self, coeffs: np.ndarray | Sequence[complex], tol: float = DEFAULT_TOLERANCE
    ) -> QubitOperator:
        """``Σ coeffs[i] · row_i`` as a table-backed :class:`QubitOperator`.

        Rows are combined with :meth:`simplify` and the operator holds the
        result, in its lexicographic row order; the Python-int term dict is
        built only if a dict API asks for it.
        """
        return QubitOperator._from_table(*self.simplify(coeffs, tol=tol))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_terms(self) -> int:
        return self.x.shape[0]

    @property
    def n_words(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.n_terms

    def phase_values(self) -> np.ndarray:
        """The per-row scalar ``i**phase`` as a complex vector."""
        return _PHASE_VALUES[self.phase]

    def weights(self) -> np.ndarray:
        """Per-row Pauli weight (popcount of ``x | z``), int64."""
        return _popcount_rows(self.x | self.z)

    def is_identity(self) -> np.ndarray:
        """Per-row identity test (phase ignored)."""
        return self.weights() == 0

    def take(self, indices) -> "PauliTable":
        """Row gather: a new table holding ``rows[indices]`` (repeats allowed)."""
        return PauliTable(
            self.n, self.x[indices], self.z[indices], self.phase[indices]
        )

    # ------------------------------------------------------------------
    # Vectorized algebra
    # ------------------------------------------------------------------
    def mul_rows(self, other: "PauliTable") -> "PauliTable":
        """Row-aligned product ``row_i · other_row_i`` with exact phase tracking.

        Either operand may have a single row, which broadcasts against the
        other.  This is the vector counterpart of
        :func:`repro.paulis.algebra.mul_xzk`.
        """
        if self.n != other.n:
            raise ValueError("cannot multiply tables on different qubit counts")
        if (
            self.n_terms != other.n_terms
            and self.n_terms != 1
            and other.n_terms != 1
        ):
            raise ValueError(
                f"row counts {self.n_terms} and {other.n_terms} do not broadcast"
            )
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        k = (
            self.phase.astype(np.int64)
            + other.phase.astype(np.int64)
            + _popcount_rows(self.x & self.z)
            + _popcount_rows(other.x & other.z)
            + 2 * _popcount_rows(self.z & other.x)
            - _popcount_rows(x3 & z3)
        ) & 3
        return PauliTable(self.n, x3, z3, k)

    def padded_row_products(self, idx: np.ndarray) -> "PauliTable":
        """Batched row products from a padded ``(m, max_len)`` index matrix.

        Index ``0`` denotes a virtual identity row and index ``i + 1`` the
        table's row ``i`` (the convention produced by
        :meth:`repro.fermion.MajoranaOperator.packed_terms`), so one padded
        plan can be replayed against any table with the same row count.  This
        is the kernel behind the bulk Majorana-to-qubit mapping in
        :mod:`repro.mappings.apply`.
        """
        idx = np.asarray(idx, dtype=np.intp)
        if idx.ndim != 2:
            raise ValueError("index matrix must be 2-D")
        m, max_len = idx.shape
        w = self.n_words
        if m == 0 or max_len == 0:
            return PauliTable.identity(self.n, m)
        if idx.size and (int(idx.max()) > self.n_terms or int(idx.min()) < 0):
            raise IndexError("monomial index out of range for this table")
        if self._aug is None:
            # Augmented arrays: row 0 is the padding identity, row i+1 is
            # row i; pcs holds the per-row pc(x & z).  Cached, since replaying
            # many plans against one table is the common workload.
            self._aug = (
                np.vstack([np.zeros((1, w), dtype=np.uint64), self.x]),
                np.vstack([np.zeros((1, w), dtype=np.uint64), self.z]),
                np.concatenate([[0], self.phase.astype(np.int64)]),
                np.concatenate([[0], _popcount_rows(self.x & self.z)]),
            )
        xw, zw, ph, pcs = self._aug
        first = idx[:, 0]
        gk = ph[first].copy()
        pc_acc = pcs[first]  # pc(gx & gz), carried across steps
        if w == 1:
            # Flat single-word path: per-step popcounts need no word reduction.
            xf = xw[:, 0]
            zf = zw[:, 0]
            gx = xf[first]
            gz = zf[first]
            for step in range(1, max_len):
                j = idx[:, step]
                ox = xf[j]
                x3 = gx ^ ox
                z3 = gz ^ zf[j]
                pc_new = np.bitwise_count(x3 & z3).astype(np.int64)
                gk += ph[j] + pc_acc + pcs[j] + 2 * np.bitwise_count(gz & ox) - pc_new
                gx, gz, pc_acc = x3, z3, pc_new
            return PauliTable._unsafe(
                self.n, gx[:, None], gz[:, None], (gk & 3).astype(np.uint8)
            )
        gx = xw[first]
        gz = zw[first]
        for step in range(1, max_len):
            j = idx[:, step]
            ox = xw[j]
            oz = zw[j]
            x3 = gx ^ ox
            z3 = gz ^ oz
            pc_new = _popcount_rows(x3 & z3)
            gk += ph[j] + pc_acc + pcs[j] + 2 * _popcount_rows(gz & ox) - pc_new
            gx, gz, pc_acc = x3, z3, pc_new
        return PauliTable._unsafe(self.n, gx, gz, (gk & 3).astype(np.uint8))

    # ------------------------------------------------------------------
    # Dense-statevector expectation kernel
    # ------------------------------------------------------------------
    def expectation_values(
        self, amplitudes: np.ndarray, coeffs: np.ndarray | Sequence[complex] | None = None
    ) -> np.ndarray:
        """Bulk ``⟨ψ_t| row_j |ψ_t⟩`` over a batch of dense statevectors.

        ``amplitudes`` is a ``(batch, 2^n)`` (or ``(2^n,)``) complex array of
        normalized statevectors with qubit 0 as the least-significant basis
        bit, matching :class:`repro.sim.Statevector`.  Each row ``P_j`` acts
        on a basis state as ``P_j|b⟩ = c_j(b) |b ^ x_j⟩`` with
        ``c_j(b) = i^{phase_j + pc(x_j & z_j)} · (-1)^{pc(z_j & b)}``, so the
        expectation reduces to one permuted gather plus a sign-weighted inner
        product per row — no per-string matrices or per-trajectory copies.

        Returns the ``(batch, n_terms)`` complex matrix of per-row values, or
        the ``(batch,)`` contraction ``E @ coeffs`` when ``coeffs`` is given.
        The kernel is dense (cost ``n_terms × batch × 2^n``) and therefore
        restricted to single-word tables (``n ≤ 64`` — far beyond any
        statevector that fits in memory anyway).
        """
        if self.n_words != 1:
            raise ValueError("dense expectation kernel requires n <= 64 qubits")
        amps = np.asarray(amplitudes, dtype=complex)
        squeeze = amps.ndim == 1
        amps = np.atleast_2d(amps)
        dim = 1 << self.n
        if amps.shape[1] != dim:
            raise ValueError(
                f"amplitude batch has dimension {amps.shape[1]}, expected {dim}"
            )
        xs = self.x[:, 0]
        zs = self.z[:, 0]
        # Per-row scalar i^{phase + pc(x & z)} (the Y = iXZ bookkeeping).
        row_phase = _PHASE_VALUES[
            (self.phase.astype(np.int64) + np.bitwise_count(xs & zs)) & 3
        ]
        b = np.arange(dim, dtype=np.uint64)
        conj = amps.conj()
        out = np.empty((amps.shape[0], self.n_terms), dtype=complex)
        for j in range(self.n_terms):
            sign = 1.0 - 2.0 * (np.bitwise_count(zs[j] & b) & np.uint64(1))
            if xs[j]:
                perm = (b ^ xs[j]).astype(np.intp)
                out[:, j] = np.einsum("tb,tb->t", conj[:, perm], amps * sign)
            else:
                out[:, j] = np.einsum("tb,tb->t", conj, amps * sign)
            out[:, j] *= row_phase[j]
        if coeffs is not None:
            out = out @ np.asarray(coeffs, dtype=complex)
        return out[0] if squeeze else out

    def commutes_with(self, other: "PauliTable") -> np.ndarray:
        """Row-aligned (broadcastable) commutation test, boolean per row."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        parity = (
            _popcount_rows(self.x & other.z) + _popcount_rows(self.z & other.x)
        ) & 1
        return parity == 0

    def commutation_matrix(self, chunk: int = 256) -> np.ndarray:
        """All-pairs boolean matrix ``C[i, j] = rows i and j commute``.

        Work is chunked over ``i`` so peak intermediate memory stays at
        ``chunk × m × n_words`` words.
        """
        return self.commutation_matrix_with(self, chunk=chunk)

    def commutation_matrix_with(
        self, other: "PauliTable", chunk: int = 256
    ) -> np.ndarray:
        """Cross-table commutation matrix ``C[i, j] = self_i commutes with other_j``."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        m = self.n_terms
        out = np.empty((m, other.n_terms), dtype=bool)
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            xa = self.x[lo:hi, None, :]
            za = self.z[lo:hi, None, :]
            parity = (
                np.bitwise_count(xa & other.z[None, :, :]).sum(axis=-1, dtype=np.int64)
                + np.bitwise_count(za & other.x[None, :, :]).sum(axis=-1, dtype=np.int64)
            ) & 1
            out[lo:hi] = parity == 0
        return out

    # ------------------------------------------------------------------
    # Duplicate combination
    # ------------------------------------------------------------------
    def simplify(
        self,
        coeffs: np.ndarray | Sequence[complex],
        tol: float = DEFAULT_TOLERANCE,
    ) -> tuple["PauliTable", np.ndarray]:
        """Combine duplicate rows and drop negligible coefficients.

        Folds each row's ``i**phase`` into its coefficient, lexsorts the
        packed symplectic rows, sums coefficients of equal rows with
        ``np.add.reduceat``, and keeps rows with ``|coeff| > tol``.  Returns a
        phase-0 table plus the combined coefficient vector; row order follows
        the lexicographic sort, making the output canonical.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.n_terms,):
            raise ValueError("coefficient vector length must match the row count")
        if self.n_terms == 0:
            empty = np.zeros((0, self.n_words), dtype=np.uint64)
            phase = np.zeros(0, dtype=np.uint8)
            return PauliTable._unsafe(self.n, empty, empty.copy(), phase), coeffs.copy()
        folded = coeffs * self.phase_values()
        w = self.n_words
        if self.n <= 32:
            # Both masks fit one uint64 sort key: a single argsort suffices.
            keys = ((self.x[:, 0] << np.uint64(32)) | self.z[:, 0])[:, None]
            order = np.argsort(keys[:, 0])
        else:
            keys = np.concatenate([self.x, self.z], axis=1)
            # np.lexsort treats the *last* key as primary; reverse for x-major order.
            order = np.lexsort(keys.T[::-1])
        sorted_keys = keys[order]
        boundaries = np.empty(self.n_terms, dtype=bool)
        boundaries[0] = True
        np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        summed = np.add.reduceat(folded[order], starts)
        keep = np.abs(summed) > tol
        rows = sorted_keys[starts[keep]]
        if self.n <= 32:
            x, z = rows >> np.uint64(32), rows & np.uint64(0xFFFFFFFF)
        else:
            x, z = np.ascontiguousarray(rows[:, :w]), np.ascontiguousarray(rows[:, w:])
        table = PauliTable._unsafe(self.n, x, z, np.zeros(len(rows), dtype=np.uint8))
        return table, summed[keep]

    def __repr__(self) -> str:
        return f"PauliTable(n={self.n}, terms={self.n_terms}, words={self.n_words})"
