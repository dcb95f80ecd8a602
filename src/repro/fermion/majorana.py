"""Majorana-operator algebra and the fermion→Majorana expansion kernel.

The 2N Majorana operators of an N-mode fermionic system satisfy

    {M_i, M_j} = 2 δ_ij,    M_i† = M_i,    M_i² = 1,

and relate to the ladder operators by the paper's Eq. (2):

    a†_j = (M_2j - i·M_2j+1) / 2,      a_j = (M_2j + i·M_2j+1) / 2.

A :class:`MajoranaOperator` stores a weighted sum of *Majorana monomials*;
each monomial is a strictly-increasing tuple of Majorana indices (the product
``M_{i1} M_{i2} …`` in ascending order).  Reordering an arbitrary product into
this canonical form contributes a sign from anticommutation and removes
squared factors.

Bit layout
----------
A monomial is also a bitmask over the 2N Majorana indices: index ``i`` is
bit ``i % 64`` of word ``i // 64``, so a monomial is one row of
``ceil(2N/64)`` uint64 words (at least one).  :meth:`MajoranaOperator.bitmasks`
returns the ``(n_terms, n_words)`` mask matrix with the coefficient vector,
in term order; the tuple form is derived from it only when asked for.

Expansion kernel
----------------
:meth:`MajoranaOperator.from_fermion_operator` expands every ladder term of
length k into its 2^k Majorana products at once, grouping the terms by
length and by which earlier action (if any) repeats each action's mode.
Multiplying the canonical product ``P`` on the right by ``M_j`` is ``P ^ bit(j)``;
moving ``M_j`` into place passes every factor above ``j``, so the sign flips
with the parity of ``bitwise_count(P & above(j))``.  Each factor is ``0.5``
(``M_2j``) or ``∓0.5j`` (``M_2j+1``, minus for a creation).

The kernel keeps the exact arithmetic of the textbook dict expansion (kept
in ``tests/test_majorana.py`` as the oracle): each term is reduced layer by
layer (a repeated mode merges exactly two products per monomial), then the
terms are summed per monomial in term order.  A running sum that hits exact
zero drops the monomial, and its next contribution re-inserts it at the end,
so monomial order follows the last such insertion.  Coefficients and order
therefore match the dict expansion bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from ..paulis.table import WORD_BITS, plan_from_masks, unpack_masks
from .operators import FermionOperator

__all__ = ["MajoranaOperator", "normal_order_majorana_product", "majorana_form"]

_COEFF_TOLERANCE = 1e-12

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def normal_order_majorana_product(
    left: tuple[int, ...], right: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Multiply two canonical (sorted, duplicate-free) Majorana monomials.

    Returns ``(canonical_product, sign)`` where ``sign ∈ {+1, -1}`` accounts
    for the anticommutations needed to merge-sort the concatenation, and
    indices appearing in both factors cancel (``M² = 1``).
    """
    # Merge-count inversions between the two sorted sequences.
    sign = 1
    merged: list[int] = []
    i = j = 0
    # Number of elements of `left` not yet consumed; each right-element that
    # jumps past them contributes that many transpositions.
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] moves past the remaining left elements.
            if (len(left) - i) % 2 == 1:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    # Cancel adjacent equal pairs (M_i M_i = 1); merged is sorted.
    out: list[int] = []
    k = 0
    while k < len(merged):
        if k + 1 < len(merged) and merged[k] == merged[k + 1]:
            k += 2
        else:
            out.append(merged[k])
            k += 1
    return tuple(out), sign


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


def _expand_shape(modes, daggers, coeffs, plan, n_words):
    """Expand ``n`` same-shape ladder terms; returns ``(masks, values)`` of
    shape ``(n, E, n_words)`` and ``(n, E)``, entries in dict-path order."""
    n = len(coeffs)
    word_ids = np.arange(n_words)
    masks = np.zeros((n, 1, n_words), dtype=np.uint64)
    values = coeffs[:, None]
    factor = np.empty((n, 2), dtype=complex)
    factor[:, 0] = 0.5
    for i, step in enumerate(plan):
        # Children 2e and 2e + 1 multiply entry e by M_2m and M_2m+1.
        j = 2 * modes[:, i, None] + np.arange(2)
        word = (j // WORD_BITS)[..., None]
        bit = np.left_shift(np.uint64(1), (j % WORD_BITS).astype(np.uint64))[..., None]
        flip = np.where(word_ids == word, bit, np.uint64(0))
        above = np.where(
            word_ids == word, ~(bit | (bit - np.uint64(1))),
            np.where(word_ids > word, _ALL_ONES, np.uint64(0)),
        )
        passed = np.bitwise_count(masks[:, :, None, :] & above[:, None])
        odd = (np.bitwise_xor.reduce(passed, axis=3) & 1).astype(bool)
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
    # Exact zeros never enter the sum; adding 0.0 turns -0.0 parts into +0.0
    # as the dict expansion's ``0.0 + value`` does.
    nonzero = values != 0
    masks, total = _sum_in_order(masks[nonzero], values[nonzero] + 0.0)
    keep = np.abs(total) > _COEFF_TOLERANCE
    return masks[keep], total[keep]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class MajoranaOperator:
    """Weighted sum of canonical Majorana monomials.

    The terms live either as a ``{monomial tuple: coefficient}`` dict or as
    packed bitmasks plus a coefficient vector (see the module docstring);
    each form is derived from the other on first use.  Mutation goes through
    the dict and drops the packed form.
    """

    __slots__ = ("_dict", "_masks", "_coeffs", "_packed", "_fingerprint_cache")

    def __init__(self, terms: dict[tuple[int, ...], complex] | None = None):
        self._dict: dict[tuple[int, ...], complex] | None = dict(terms) if terms else {}
        #: Packed form (read-only arrays), built lazily by :meth:`bitmasks`.
        self._masks: np.ndarray | None = None
        self._coeffs: np.ndarray | None = None
        #: Cached bulk-mapping plan (padded index matrix + coefficient vector);
        #: rebuilt lazily by :meth:`packed_terms`, cleared on mutation.
        self._packed = None
        #: Service-layer memo of the content digest, ``(tol, hex)`` — owned
        #: by repro.service.fingerprint, cleared on mutation like _packed.
        self._fingerprint_cache = None

    @classmethod
    def _from_masks(cls, masks: np.ndarray, coeffs: np.ndarray) -> "MajoranaOperator":
        out = cls()
        out._dict = None
        out._masks = _frozen(masks)
        out._coeffs = _frozen(coeffs)
        return out

    @property
    def _terms(self) -> dict[tuple[int, ...], complex]:
        if self._dict is None:
            self._dict = dict(zip(_masks_to_tuples(self._masks), self._coeffs.tolist()))
        return self._dict

    def _mutated(self) -> dict[tuple[int, ...], complex]:
        """The term dict, with every derived form dropped before a write."""
        terms = self._terms
        self._masks = self._coeffs = None
        self._packed = None
        self._fingerprint_cache = None
        return terms

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
        """Build from an arbitrary (possibly unsorted/repeated) index product."""
        out = cls.identity(coeff)
        for idx in indices:
            out = out * cls.single(idx)
        return out

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
        return len(self._coeffs) if self._dict is None else len(self._dict)

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        yield from self._terms.items()

    @property
    def constant(self) -> complex:
        return self._terms.get((), 0.0)

    def coefficient(self, indices: tuple[int, ...]) -> complex:
        return self._terms.get(tuple(sorted(indices)), 0.0)

    @property
    def n_majoranas(self) -> int:
        """1 + highest Majorana index in any term."""
        if self._masks is None:
            # Monomials are canonical (strictly increasing), so the last entry
            # of each is its maximum.
            return max((term[-1] for term in self._dict if term), default=-1) + 1
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
        return [t for t in self._terms if t or not drop_identity]

    def bitmasks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(masks, coeffs)``: the ``(n_terms, n_words)`` uint64 monomial
        masks (module docstring) and the coefficient vector, in term order.
        Both arrays are read-only and cached until the next mutation."""
        if self._masks is None:
            terms = self._dict
            n_words = max(1, -(-self.n_majoranas // WORD_BITS))
            self._masks = _frozen(_tuples_to_masks(list(terms), n_words))
            self._coeffs = _frozen(
                np.fromiter(terms.values(), dtype=complex, count=len(terms))
            )
        return self._masks, self._coeffs

    def packed_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-mapping plan: ``(index matrix, coefficient vector)``, cached.

        The index matrix is ``(n_terms, max_len)`` with every monomial's
        Majorana indices **shifted up by one** and right-padded with ``0`` —
        the convention of :meth:`repro.paulis.PauliTable.padded_row_products`,
        whose virtual identity row sits at index 0.  Because the padding does
        not depend on any particular mapping, one plan serves every mapping
        this operator is evaluated under (the HATT workload maps one
        Hamiltonian with many candidate trees); mutation through
        :meth:`add_term` or :meth:`simplify` invalidates the cache.
        """
        if self._packed is None:
            masks, coeffs = self.bitmasks()
            self._packed = (plan_from_masks(masks), coeffs)
        return self._packed

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        """A monomial of k Majoranas conjugates to ``(-1)^{k(k-1)/2}`` itself."""
        for term, coeff in self._terms.items():
            k = len(term)
            sign = -1 if (k * (k - 1) // 2) % 2 else 1
            if abs(complex(coeff).conjugate() * sign - coeff) > tol:
                return False
        return True

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add_term(self, indices: tuple[int, ...], coeff: complex) -> None:
        terms = self._mutated()
        new = terms.get(indices, 0.0) + coeff
        if new == 0:
            terms.pop(indices, None)
        else:
            terms[indices] = new

    def simplify(self, tol: float = _COEFF_TOLERANCE) -> "MajoranaOperator":
        self._dict = {t: c for t, c in self._mutated().items() if abs(c) > tol}
        return self

    def copy(self) -> "MajoranaOperator":
        if self._dict is None:
            return MajoranaOperator._from_masks(self._masks, self._coeffs)
        return MajoranaOperator(self._dict)

    def __add__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        out = self.copy()
        for term, coeff in other._terms.items():
            out.add_term(term, coeff)
        return out

    def __sub__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            return MajoranaOperator({t: c * other for t, c in self._terms.items()})
        if isinstance(other, MajoranaOperator):
            out = MajoranaOperator()
            for t1, c1 in self._terms.items():
                for t2, c2 in other._terms.items():
                    prod, sign = normal_order_majorana_product(t1, t2)
                    out.add_term(prod, sign * c1 * c2)
            return out
        return NotImplemented

    def __rmul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        a, b = self._terms, other._terms
        keys = set(a) | set(b)
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= 1e-9 for k in keys)

    def __repr__(self) -> str:
        def fmt(term):
            return " ".join(f"M{i}" for i in term) or "1"

        parts = [f"({c:.4g})·{fmt(t)}" for t, c in list(self._terms.items())[:6]]
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"MajoranaOperator({' + '.join(parts) or '0'}{more})"


def majorana_form(op: FermionOperator | MajoranaOperator) -> MajoranaOperator:
    """The Majorana form of ``op``, converted at most once per operator.

    A :class:`FermionOperator` memoizes its conversion in
    ``_majorana_cache`` (cleared by ``add_term``), so the service
    fingerprint, HATT construction, mapping apply and the ``hatt-arch``
    guard of one request share a single
    :meth:`MajoranaOperator.from_fermion_operator` call.  Callers must treat
    the shared result as read-only.
    """
    if isinstance(op, MajoranaOperator):
        return op
    cached = op._majorana_cache
    if cached is None:
        cached = op._majorana_cache = MajoranaOperator.from_fermion_operator(op)
    return cached
