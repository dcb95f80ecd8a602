"""Majorana-operator algebra and the fermion→Majorana expansion kernel.

The 2N Majorana operators of an N-mode fermionic system satisfy

    {M_i, M_j} = 2 δ_ij,    M_i† = M_i,    M_i² = 1,

and relate to the ladder operators by the paper's Eq. (2):

    a†_j = (M_2j - i·M_2j+1) / 2,      a_j = (M_2j + i·M_2j+1) / 2.

A :class:`MajoranaOperator` is a read-only weighted sum of *Majorana
monomials*; each monomial is a strictly-increasing tuple of Majorana indices
(the product ``M_{i1} M_{i2} …`` in ascending order).  Reordering an
arbitrary product into this canonical form contributes a sign from
anticommutation and removes squared factors.

Bit layout
----------
A monomial is held as a bitmask over the 2N Majorana indices: index ``i`` is
bit ``i % 64`` of word ``i // 64``, so a monomial is one row of
``ceil(2N/64)`` uint64 words (at least one).  An operator is the
``(n_terms, n_words)`` mask matrix plus the coefficient vector, both
read-only (:meth:`MajoranaOperator.bitmasks`); the tuple form is derived
from the rows only when asked for.  Arithmetic returns a new operator.

Expansion kernel
----------------
:meth:`MajoranaOperator.from_fermion_operator` expands every ladder term of
length k into its 2^k Majorana products at once, grouping the terms by
length and by which earlier action (if any) repeats each action's mode.
Multiplying the canonical product ``P`` on the right by ``M_j`` is ``P ^ bit(j)``;
moving ``M_j`` into place passes every factor above ``j``, so the sign flips
with the parity of ``bitwise_count(P & above(j))`` (:func:`_odd_passes`, the
one sign rule, which operator products use too).  Each factor is ``0.5``
(``M_2j``) or ``∓0.5j`` (``M_2j+1``, minus for a creation).

The kernel keeps the exact arithmetic of the textbook dict expansion (the
``{monomial: c}`` algebra kept in ``tests/reference/majorana.py`` as the
oracle): each term is reduced layer by layer (a repeated mode merges exactly
two products per monomial), then the terms are summed per monomial in term
order.  A running sum that hits exact zero drops the monomial, and its next
contribution re-inserts it at the end, so monomial order follows the last
such insertion.  Coefficients and order therefore match the dict expansion
bit for bit.  Operator ``+``, ``-`` and ``*`` combine their rows with the
same running sums (:func:`_sum_in_order`), so they keep the dict algebra's
monomial order too.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from ..paulis.table import (
    DUST_TOLERANCE, WORD_BITS, complex_product, plan_from_masks, unpack_masks,
)
from .operators import FermionOperator

__all__ = ["MajoranaOperator", "majorana_form"]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


# ----------------------------------------------------------------------
# Bitmask <-> tuple conversion
# ----------------------------------------------------------------------
def _tuples_to_masks(monomials: list[tuple[int, ...]], n_words: int) -> np.ndarray:
    masks = np.zeros((len(monomials), n_words), dtype=np.uint64)
    rows = [r for r, term in enumerate(monomials) for _ in term]
    if rows:
        idx = np.fromiter(chain.from_iterable(monomials), dtype=np.int64, count=len(rows))
        np.bitwise_or.at(
            masks,
            (np.array(rows, dtype=np.intp), idx // WORD_BITS),
            np.left_shift(np.uint64(1), (idx % WORD_BITS).astype(np.uint64)),
        )
    return masks


def _masks_to_tuples(masks: np.ndarray) -> list[tuple[int, ...]]:
    bits = unpack_masks(masks)
    flat = np.nonzero(bits)[1].tolist()
    out = []
    start = 0
    for end in np.cumsum(bits.sum(axis=1, dtype=np.intp)).tolist():
        out.append(tuple(flat[start:end]))
        start = end
    return out


# ----------------------------------------------------------------------
# Expansion kernel
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _merge_plan(prev: tuple[int, ...]) -> tuple:
    """Per-action merge step for a ladder term whose action ``i`` repeats the
    mode of action ``prev[i]`` (``-1`` for a mode's first action).

    Expanding action ``i`` turns entry ``e`` into children ``2e`` (``M_2m``)
    and ``2e + 1`` (``M_2m+1``).  A fresh mode makes every child distinct;
    a repeated mode makes exactly two children land on each monomial.  The
    step is ``None`` or ``(first, second)`` child indices, ordered by first
    occurrence — the dict expansion's insertion order.  Which children
    collide depends only on ``prev``, so one plan serves every term of that
    shape.
    """
    modes: list[int] = []
    for p in prev:
        modes.append(modes[p] if p >= 0 else len(set(modes)))
    entries = [0]
    plan = []
    for mode, p in zip(modes, prev):
        children = [e ^ (1 << (2 * mode + c)) for e in entries for c in (0, 1)]
        if p < 0:
            plan.append(None)
            entries = children
            continue
        slots: dict[int, list[int]] = {}
        for idx, child in enumerate(children):
            slots.setdefault(child, []).append(idx)
        pairs = np.array(list(slots.values()), dtype=np.intp)
        plan.append((pairs[:, 0], pairs[:, 1]))
        entries = [children[i] for i in pairs[:, 0]]
    return tuple(plan)


def _bit_and_above(j: np.ndarray, n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask rows ``bit(j)`` and ``above(j)`` (every index above ``j``) for
    an array of Majorana indices; both of shape ``j.shape + (n_words,)``."""
    word_ids = np.arange(n_words)
    word = (j // WORD_BITS)[..., None]
    bit = np.left_shift(np.uint64(1), (j % WORD_BITS).astype(np.uint64))[..., None]
    flip = np.where(word_ids == word, bit, np.uint64(0))
    above = np.where(
        word_ids == word, ~(bit | (bit - np.uint64(1))),
        np.where(word_ids > word, _ALL_ONES, np.uint64(0)),
    )
    return flip, above


def _odd_passes(masks: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Whether ``P · M_j`` needs an odd number of swaps to reach canonical
    order: the parity of ``bitwise_count(P & above(j))`` over the last
    (word) axis, broadcasting ``masks`` (P) against ``above``."""
    passed = np.bitwise_count(masks & above)
    return (np.bitwise_xor.reduce(passed, axis=-1) & 1).astype(bool)


def _expand_shape(modes, daggers, coeffs, plan, n_words):
    """Expand ``n`` same-shape ladder terms; returns ``(masks, values)`` of
    shape ``(n, E, n_words)`` and ``(n, E)``, entries in dict-path order."""
    n = len(coeffs)
    masks = np.zeros((n, 1, n_words), dtype=np.uint64)
    values = coeffs[:, None]
    factor = np.empty((n, 2), dtype=complex)
    factor[:, 0] = 0.5
    for i, step in enumerate(plan):
        # Children 2e and 2e + 1 multiply entry e by M_2m and M_2m+1.
        flip, above = _bit_and_above(2 * modes[:, i, None] + np.arange(2), n_words)
        odd = _odd_passes(masks[:, :, None, :], above[:, None])
        factor[:, 1] = np.where(daggers[:, i], -0.5j, 0.5j)
        children = values[:, :, None] * factor[:, None, :]
        np.negative(children, out=children, where=odd)
        e = values.shape[1]
        values = children.reshape(n, 2 * e)
        masks = (masks[:, :, None, :] ^ flip[:, None]).reshape(n, 2 * e, n_words)
        if step is not None:
            first, second = step
            masks = masks[:, first]
            values = values[:, first] + values[:, second]
    return masks, values


def _dense_ids(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids ``0..n_distinct-1`` for the values of a 1-D array, and their count."""
    perm = np.argsort(column)
    ordered = column[perm]
    new = np.ones(len(column), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    ids = np.empty(len(column), dtype=np.int64)
    ids[perm] = np.cumsum(new) - 1
    return ids, int(np.count_nonzero(new))


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """Dense ids for the rows of a 2-D integer array, refined column by column."""
    ids = np.zeros(len(rows), dtype=np.int64)
    for c, col in enumerate(rows.T):
        col_ids, n_col = _dense_ids(col)
        ids = _dense_ids(ids * n_col + col_ids)[0] if c else col_ids
    return ids


def _sum_in_order(masks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum contributions per monomial in sequence order, dict semantics.

    Returns the surviving monomials and sums, ordered by the contribution
    that last inserted each one (after its running sum last hit zero).
    """
    # Number equal monomials densely, then one sort of ``id * C + position``
    # groups them with sequence order kept inside a group.
    n = len(masks)
    key = np.sort(_row_ids(masks) * n + np.arange(n))
    order = key % n
    first = np.ones(n, dtype=bool)
    first[1:] = key[1:] // n != key[:-1] // n
    start = np.flatnonzero(first)
    count = np.diff(start, append=n)
    grouped = values[order]
    total = np.empty(len(start), dtype=complex)
    inserted = np.empty(len(start), dtype=np.intp)
    # Monomials with the same contribution count form one (keys, count)
    # matrix, whose sequential np.cumsum gives each running sum exactly as
    # a loop adds it.  Distinct counts number at most sqrt(2n).
    for c in np.unique(count).tolist():
        keys = np.flatnonzero(count == c)
        running = np.cumsum(grouped[start[keys, None] + np.arange(c)], axis=1)
        total[keys] = running[:, -1]
        restart = np.ones((len(keys), c), dtype=bool)
        restart[:, 1:] = running[:, :-1] == 0
        last = c - 1 - np.argmax(restart[:, ::-1], axis=1)
        inserted[keys] = order[start[keys] + last]
    alive = np.flatnonzero(total != 0)
    alive = alive[np.argsort(inserted[alive])]
    return masks[order[start[alive]]], total[alive]


def _insertions(masks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows a dict stores when each value is added to an empty slot:
    ``0.0 + c`` (a ``-0.0`` part becomes ``+0.0``), and an exact zero is
    never inserted."""
    values = values + 0.0
    keep = values != 0
    return masks[keep], values[keep]


def _expand(op: FermionOperator) -> tuple[np.ndarray, np.ndarray]:
    """The Majorana form of ``op`` as ``(masks, coeffs)``; see the module
    docstring for the layout and the arithmetic it reproduces."""
    ladder = op._terms
    if not ladder:
        return np.zeros((0, 1), dtype=np.uint64), np.zeros(0, dtype=complex)
    actions = list(ladder)
    coeffs = np.fromiter(ladder.values(), dtype=complex, count=len(ladder))
    if not np.isfinite(coeffs).all():
        raise ValueError("cannot expand non-finite coefficients to Majorana form")
    lengths = np.fromiter(map(len, actions), dtype=np.intp, count=len(actions))
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(actions)),
        dtype=np.int64,
        count=2 * int(lengths.sum()),
    )
    all_modes, all_daggers = flat[0::2], flat[1::2].astype(bool)
    if all_modes.size and all_modes.min() < 0:
        raise ValueError("ladder operators need non-negative mode indices")
    n_words = max(1, -(-2 * (int(all_modes.max(initial=-1)) + 1) // WORD_BITS))
    offsets = np.cumsum(lengths) - lengths
    # Group terms by length k and shape: prev[t, i] is the last earlier
    # action of term t on action i's mode (-1 if none).  A term expands to
    # 2^(distinct modes) monomials, laid out in term order.
    groups = []
    n_out = np.empty(len(actions), dtype=np.intp)
    for k in np.unique(lengths).tolist():
        terms = np.flatnonzero(lengths == k)
        cols = offsets[terms, None] + np.arange(k)
        modes, daggers = all_modes[cols], all_daggers[cols]
        prev = np.full((len(terms), k), -1, dtype=np.intp)
        for i in range(1, k):
            for j in range(i):
                prev[:, i] = np.where(modes[:, i] == modes[:, j], j, prev[:, i])
        n_out[terms] = np.left_shift(1, (prev < 0).sum(axis=1))
        shape_of = _row_ids(prev)
        for s in range(int(shape_of.max()) + 1):
            members = np.flatnonzero(shape_of == s)
            shape = tuple(prev[members[0]].tolist())
            groups.append((terms[members], modes[members], daggers[members], shape))
    out_start = np.cumsum(n_out) - n_out
    masks = np.empty((int(n_out.sum()), n_words), dtype=np.uint64)
    values = np.empty(len(masks), dtype=complex)
    for terms, modes, daggers, shape in groups:
        group_masks, group_values = _expand_shape(
            modes, daggers, coeffs[terms], _merge_plan(shape), n_words
        )
        n, e = group_values.shape
        pos = (out_start[terms, None] + np.arange(e)).reshape(-1)
        masks[pos] = group_masks.reshape(n * e, n_words)
        values[pos] = group_values.reshape(n * e)
    masks, total = _sum_in_order(*_insertions(masks, values))
    keep = np.abs(total) > DUST_TOLERANCE
    return masks[keep], total[keep]


def _widen(masks: np.ndarray, n_words: int) -> np.ndarray:
    """``masks`` with all-zero words appended up to ``n_words``."""
    out = np.zeros((len(masks), n_words), dtype=np.uint64)
    out[:, : masks.shape[1]] = masks
    return out


class MajoranaOperator:
    """Read-only weighted sum of canonical Majorana monomials.

    The terms are packed bitmask rows plus a coefficient vector (see the
    module docstring), fixed at construction; ``+``, ``-``, ``*`` and
    :meth:`simplify` return new operators, so the two memos below never go
    stale.  Every held coefficient is what a dict insertion ``0.0 + c``
    stores: nonzero, with no ``-0.0`` part.  So ``+`` can combine rows
    as they are and still add like the dict algebra, bit for bit.
    """

    __slots__ = ("_masks", "_coeffs", "_packed", "_fingerprint_cache")

    def __init__(self, terms: dict[tuple[int, ...], complex] | None = None):
        """Pack ``{monomial: c}`` once, in the dict's order (keys are unique,
        so nothing combines; exact zeros are dropped).  Each key must be a
        canonical monomial, strictly increasing non-negative indices;
        :meth:`from_term` takes any product."""
        terms = terms or {}
        for key in terms:
            if any(a >= b for a, b in zip((-1,) + key, key)):
                raise ValueError(
                    f"Majorana monomial {key!r} is not strictly increasing and "
                    "non-negative; build arbitrary products with from_term"
                )
        n_words = max(1, -(-max((t[-1] + 1 for t in terms if t), default=0) // WORD_BITS))
        coeffs = np.fromiter(terms.values(), dtype=complex, count=len(terms))
        self._hold(*_insertions(_tuples_to_masks(list(terms), n_words), coeffs))

    @classmethod
    def _from_masks(cls, masks: np.ndarray, coeffs: np.ndarray) -> "MajoranaOperator":
        """Wrap distinct monomial rows and their coefficients."""
        out = object.__new__(cls)
        out._hold(masks, coeffs)
        return out

    def _hold(self, masks: np.ndarray, coeffs: np.ndarray) -> None:
        masks.flags.writeable = coeffs.flags.writeable = False
        self._masks, self._coeffs = masks, coeffs
        #: Bulk-mapping plan, built lazily by :meth:`packed_terms`.
        self._packed = None
        #: Service-layer memo of the content digest, ``(tol, hex)`` — owned
        #: by repro.service.fingerprint.
        self._fingerprint_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "MajoranaOperator":
        return cls()

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "MajoranaOperator":
        return cls({(): coeff})

    @classmethod
    def single(cls, index: int, coeff: complex = 1.0) -> "MajoranaOperator":
        """``coeff · M_index``."""
        return cls({(index,): coeff})

    @classmethod
    def from_term(cls, indices: Iterable[int], coeff: complex = 1.0) -> "MajoranaOperator":
        """``coeff · M_{i1} M_{i2} …`` for any (unsorted, repeated) index
        sequence: sorting it flips the sign once per inversion, and each
        pair of equal indices cancels (``M_i² = 1``)."""
        indices = list(indices)
        inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1 :])
        monomial = tuple(sorted(i for i, n in Counter(indices).items() if n % 2))
        return cls({monomial: -coeff if inversions % 2 else coeff})

    @classmethod
    def from_fermion_operator(cls, op: FermionOperator) -> "MajoranaOperator":
        """Expand ladder monomials through the paper's Eq. (2).

        Runs the packed-bitmask kernel (module docstring) and returns a new
        operator on every call; internal callers share one conversion per
        operator through :func:`majorana_form`.
        """
        return cls._from_masks(*_expand(op))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._coeffs)

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return zip(_masks_to_tuples(self._masks), self._coeffs.tolist())

    @property
    def constant(self) -> complex:
        return self.coefficient(())

    def coefficient(self, indices: tuple[int, ...]) -> complex:
        """The coefficient of the monomial over ``indices`` (any order), 0 if absent."""
        return dict(self.terms()).get(tuple(sorted(indices)), 0.0)

    @property
    def n_majoranas(self) -> int:
        """1 + highest Majorana index in any term."""
        used = np.bitwise_or.reduce(self._masks, axis=0).tolist()
        for w in range(len(used) - 1, -1, -1):
            if used[w]:
                return WORD_BITS * w + used[w].bit_length()
        return 0

    @property
    def n_modes(self) -> int:
        """Number of fermionic modes this operator acts on (ceil of index/2)."""
        return (self.n_majoranas + 1) // 2

    def support_terms(self, drop_identity: bool = True) -> list[tuple[int, ...]]:
        """The monomial index sets, optionally without the identity term."""
        return [t for t in _masks_to_tuples(self._masks) if t or not drop_identity]

    def bitmasks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(masks, coeffs)``: the ``(n_terms, n_words)`` uint64 monomial
        masks (module docstring) and the coefficient vector, in term order.
        Both arrays are the operator's own store, and read-only."""
        return self._masks, self._coeffs

    def packed_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-mapping plan: ``(index matrix, coefficient vector)``, cached.

        The index matrix is ``(n_terms, max_len)`` with every monomial's
        Majorana indices **shifted up by one** and right-padded with ``0`` —
        the convention of :meth:`repro.paulis.PauliTable.padded_row_products`,
        whose virtual identity row sits at index 0.  Because the padding does
        not depend on any particular mapping, one plan serves every mapping
        this operator is evaluated under (the HATT workload maps one
        Hamiltonian with many candidate trees); the operator is read-only, so
        the plan never goes stale.
        """
        if self._packed is None:
            self._packed = (plan_from_masks(self._masks), self._coeffs)
        return self._packed

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        """A monomial of k Majoranas conjugates to ``(-1)^{k(k-1)/2}`` itself,
        so its coefficient must equal its conjugate times that sign, within
        ``tol``."""
        k = np.bitwise_count(self._masks).sum(axis=1, dtype=np.int64)
        conj = np.where((k * (k - 1) // 2) % 2 == 1, -1, 1) * self._coeffs.conj()
        return bool((np.abs(conj - self._coeffs) <= tol).all())

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def simplify(self, tol: float = DUST_TOLERANCE) -> "MajoranaOperator":
        """A new operator without the terms with |coefficient| ≤ ``tol``, in
        this one's order.  ``np.abs`` as in the expansion kernel: Python's
        complex ``abs`` differs from it in the last bit, so a coefficient at
        the tolerance could be kept by one rule and dropped by the other."""
        keep = np.abs(self._coeffs) > tol
        return MajoranaOperator._from_masks(self._masks[keep], self._coeffs[keep])

    def __add__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        """This operator's rows, then ``other``'s, combined by running sums
        (:func:`_sum_in_order`): the order and coefficients of adding
        ``other``'s terms one by one into a copy of this operator's dict."""
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        n_words = max(self._masks.shape[1], other._masks.shape[1])
        masks = np.concatenate([_widen(self._masks, n_words), _widen(other._masks, n_words)])
        return MajoranaOperator._from_masks(
            *_sum_in_order(masks, np.concatenate([self._coeffs, other._coeffs]))
        )

    def __sub__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            scaled = complex_product(self._coeffs, np.complex128(other))
            return MajoranaOperator._from_masks(*_insertions(self._masks, scaled))
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        n_words = max(self._masks.shape[1], other._masks.shape[1])
        a, b = _widen(self._masks, n_words), _widen(other._masks, n_words)
        # Multiplying a row P of ``a`` on the right by the factors M_j of a
        # row of ``b`` in ascending order passes P's factors above each j
        # (b's earlier factors lie below it), so the pair's sign is the XOR
        # over b's indices j of _odd_passes(P, above(j)).
        used = unpack_masks(np.bitwise_or.reduce(b, axis=0, keepdims=True))[0]
        js = np.flatnonzero(used)
        passes = _odd_passes(a[:, None, :], _bit_and_above(js, n_words)[1][None])
        odd = (passes.astype(np.intp) @ unpack_masks(b)[:, js].T.astype(np.intp)) % 2
        left = np.repeat(np.arange(len(a)), len(b))
        right = np.tile(np.arange(len(b)), len(a))
        values = complex_product(self._coeffs[left], other._coeffs[right])
        np.negative(values, out=values, where=odd.reshape(-1).astype(bool))
        return MajoranaOperator._from_masks(
            *_sum_in_order(*_insertions(a[left] ^ b[right], values))
        )

    def __rmul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        """Equal iff every coefficient of the difference is within 1e-9 of zero."""
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        return bool((np.abs((self - other)._coeffs) <= 1e-9).all())

    def __repr__(self) -> str:
        def fmt(term):
            return " ".join(f"M{i}" for i in term) or "1"

        heads = zip(_masks_to_tuples(self._masks[:6]), self._coeffs[:6].tolist())
        parts = [f"({c:.4g})·{fmt(t)}" for t, c in heads]
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"MajoranaOperator({' + '.join(parts) or '0'}{more})"


def majorana_form(op: FermionOperator | MajoranaOperator) -> MajoranaOperator:
    """The Majorana form of ``op``, converted at most once per operator.

    A :class:`FermionOperator` memoizes its conversion in
    ``_majorana_cache`` (cleared by ``add_term``), so the service
    fingerprint, HATT construction, mapping apply, the ``hatt-arch`` guard
    and ``FermionOperator.is_hermitian`` of one operator share a single
    :meth:`MajoranaOperator.from_fermion_operator` call.  The shared result
    is read-only like every :class:`MajoranaOperator`.  Anything else raises
    ``TypeError``.
    """
    if isinstance(op, MajoranaOperator):
        return op
    if not isinstance(op, FermionOperator):
        raise TypeError(f"no Majorana form for {type(op).__name__}")
    cached = op._majorana_cache
    if cached is None:
        cached = op._majorana_cache = MajoranaOperator.from_fermion_operator(op)
    return cached
