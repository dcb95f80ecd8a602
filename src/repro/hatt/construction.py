"""Hamiltonian-Adaptive Ternary Tree construction (paper Algorithms 1–3).

The constructor grows a complete ternary tree bottom-up from the ``2N+1``
leaves.  At step ``i`` it selects three working-set nodes as the X/Y/Z
children of a new internal node (qubit ``i``), choosing the selection that
minimizes the Hamiltonian's Pauli weight *on qubit i*, then reduces the
Hamiltonian (paper Fig. 5/7).

Exact-and-fast weight evaluation
--------------------------------
After preprocessing, the Hamiltonian is a list of Majorana monomials — index
subsets ``T ⊆ {0..2N}``.  Each working-set node ``O`` keeps a term-membership
bitmask ``m(O)`` over terms that currently contain it.  For a candidate
triple ``(A, B, C)`` the operator a term acquires on qubit ``i`` depends only
on ``k = |T ∩ {A,B,C}|``:

* ``k = 0`` → I (term untouched),
* ``k = 1`` → the child's branch operator (X, Y or Z) — weight 1,
* ``k = 2`` → product of two distinct anchored operators — weight 1, and the
  two children cancel out of the term entirely (``S_A·S_B = S_P² ⊗ XY``),
* ``k = 3`` → ``X·Y·Z = iI`` — weight 0, the three children collapse to the
  parent (``S_P ⊗ iI``).

Hence the candidate's weight on qubit ``i`` is
``popcount((mA|mB|mC) & ~(mA&mB&mC))`` and the parent's term mask after the
reduction step is ``mA ^ mB ^ mC`` (odd ``k`` keeps the parent in the term).
This realizes the paper's ``pauli_weight``/``reduce`` exactly, at
``O(terms/64)`` cost per candidate.

Vacuum-preserving pairing (Algorithm 2) restricts the search to ordered
``(O_X, O_Z)`` pairs and derives ``O_Y`` from the Z-descendant maps
``mdown``/``mup`` (Algorithm 3); pass ``cached=False`` to use the explicit
tree traversals of Algorithm 2 instead of the O(1) maps.

Architecture-adaptive construction (``hatt-arch``)
--------------------------------------------------
Passing a coupling graph grows the tree *against* the hardware (the
Bonsai/Treespilation direction): every internal node is greedily anchored to
a physical qubit as it is created, and candidate selection minimizes the
blended integer score ``SCALE·weight + round(arch_weight·SCALE)·penalty``
with ``SCALE = 64`` and ``penalty(A,B,C)`` the sum over anchored child pairs
of ``max(dist − 1, 0)`` from the cached all-pairs
:func:`~repro.circuits.routing.distance_matrix`.  Adjacent anchors are free
(the ``− 1``), so an all-to-all graph — and any ``arch_weight`` on it —
reproduces the plain HATT tree exactly; ``arch_weight = 0`` likewise reduces
to plain HATT on *any* graph, because ``64·w`` preserves the plain ordering
and tie-breaks bit for bit.  Anchors assign deterministically: the first
internal node takes the highest-degree free physical qubit (ties toward the
lowest node id, matching the router's ``initial_layout`` rank) and each
later parent takes the free physical qubit minimizing the summed distance
to its already-anchored children.  The scalar reference shares the anchor
state and penalty table, so the two stay bit-identical in this mode too.

Construction engine
-------------------
The per-node masks live in an ``(n_words, n_nodes)`` packed-uint64 matrix
(:func:`repro.paulis.table.incidence_from_masks`, the transpose of the
operator's monomial bitmasks, stored word-major).  Each selection step scores
its candidates as one grid — ``(O_X, O_Y)`` pairs × ``O_Z`` for Algorithms
2/3, ``(b, c)`` pairs × ``a`` for Algorithm 1 — in word blocks of at most
``_BLOCK_ELEMS`` elements, each one ``bitwise_count`` summed over its word
axis, with the grid chunked under ``memory_budget``.  State is maintained
incrementally — column-XOR reduction, ``mdown``/``mup`` as int arrays, O(1)
swap-removal from the working array — and candidates are always enumerated
over the uid-sorted working set, which reproduces the deterministic
first-minimum tie-breaking of a per-candidate scan bit for bit.  That scan
is the test oracle ``tests/reference/hatt.py``; the property suites assert
identical traces and trees across the ``vacuum``/``cached``/architecture
matrix.

Measured complexity (Fig. 12)
-----------------------------
Per selection step the paired scan evaluates ``O(N)`` candidate pairs times
``O(N)`` Z-choices and the free scan ``O(N³)`` triples, each costing
``O(terms/64)`` words; over ``N`` steps that is the paper's O(N³)
(Algorithm 3) and O(N⁴) (Algorithm 1) at a fixed term count.  On the Fig. 12
Hamiltonian ``HF = Σ_i M_i`` (``2N`` single-index terms, one or two words)
the fitted slopes in ``BENCH_fig12.json`` sit well below those exponents
(scalar reference ≈ N^2.8; kernel ≈ N^1.0 for HATT and ≈ N^1.7 for the free
variant up to N=48), because fixed per-step constants, not words, dominate.
SYK Hamiltonians grow their term count as N⁴ (79 words at N=10, 3058 at
N=24), which makes the paired scan O(N⁷) words in total; the kernel's slope
on N=12…24 measures ≈ N^6.1, approaching that bound from below.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..fermion import FermionOperator, MajoranaOperator
from ..fermion.majorana import majorana_form
from ..mappings.base import FermionQubitMapping
from ..mappings.tree import TernaryTree, tree_from_uid_arrays
from ..paulis.table import incidence_from_masks

__all__ = [
    "HattConstruction",
    "hatt_mapping",
    "Selection",
    "DEFAULT_MEMORY_BUDGET",
    "ARCH_WEIGHT_SCALE",
    "DEFAULT_ARCH_WEIGHT",
]

#: One construction step: (qubit, (uid_X, uid_Y, uid_Z), weight_on_qubit).
Selection = tuple[int, tuple[int, int, int], int]

#: Default cap on the intermediate candidate-grid arrays of one step.
DEFAULT_MEMORY_BUDGET = 128 * 1024 * 1024

#: Fixed-point grid for the architecture blend: candidate scores are the
#: integers ``ARCH_WEIGHT_SCALE·weight + round(arch_weight·SCALE)·penalty``,
#: so the kernel and the scalar reference compare identically and
#: ``arch_weight`` is effectively quantized to multiples of
#: ``1/ARCH_WEIGHT_SCALE``.
ARCH_WEIGHT_SCALE = 64

#: Default distance-penalty blend when a coupling graph is supplied (the
#: Table IV bench sweep's best-measured setting).
DEFAULT_ARCH_WEIGHT = 0.5

#: Sentinel weight for masked-out candidates in the broadcast kernels.
_INF = np.iinfo(np.int64).max

#: uint64 elements per popcount block: with its uint8 counts (~288 KiB) a
#: block stays in L2 cache.
_BLOCK_ELEMS = 32 * 1024


class HattConstruction:
    """Stateful bottom-up HATT tree builder.

    Parameters
    ----------
    hamiltonian:
        The preprocessed Majorana-form Hamiltonian.
    n_modes:
        Number of fermionic modes N (≥ the operator's own mode count).
    vacuum:
        ``True`` → paper Algorithm 2 (vacuum-state-preserving pairing);
        ``False`` → paper Algorithm 1 (free triple selection).
    cached:
        Only meaningful with ``vacuum=True``.  ``True`` → Algorithm 3's O(1)
        ``mdown``/``mup`` maps; ``False`` → explicit O(N) tree traversals.
        Both produce identical trees (tested); only the complexity differs.
    memory_budget:
        Approximate byte cap on the per-step intermediate arrays; large
        candidate grids are chunked to stay under it.
    graph:
        Optional hardware coupling graph (``networkx`` graph with integer
        nodes ``0..n-1``, e.g. from :mod:`repro.circuits.architectures`).
        When given, candidate selection blends a routed-distance penalty
        into the Pauli-weight objective (the ``hatt-arch`` mode; see the
        module docstring).  Requires ``n_modes`` ≤ the graph's qubit count.
    arch_weight:
        Blend strength for the distance penalty, quantized to the
        ``1/ARCH_WEIGHT_SCALE`` grid; ``0`` reduces exactly to plain HATT.
        Only meaningful with ``graph``; defaults to
        :data:`DEFAULT_ARCH_WEIGHT`.
    """

    def __init__(
        self,
        hamiltonian: MajoranaOperator,
        n_modes: int,
        vacuum: bool = True,
        cached: bool = True,
        memory_budget: int | None = None,
        graph=None,
        arch_weight: float | None = None,
    ):
        if n_modes < 1:
            raise ValueError("need at least one fermionic mode")
        if hamiltonian.n_majoranas > 2 * n_modes:
            raise ValueError(
                f"Hamiltonian touches Majorana index {hamiltonian.n_majoranas - 1} "
                f"but n_modes={n_modes} provides only indices < {2 * n_modes}"
            )
        self.n = n_modes
        self.vacuum = vacuum
        self.cached = cached
        self.memory_budget = (
            DEFAULT_MEMORY_BUDGET if memory_budget is None else int(memory_budget)
        )
        if self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        # Popcount block size (uint64 + uint8 count per element), in budget.
        self._block = max(1, min(_BLOCK_ELEMS, self.memory_budget // 9))
        self.trace: list[Selection] = []
        #: Child-uid triples per qubit, appended by :meth:`_reduce`.
        self._children: list[tuple[int, int, int]] = []
        self._done = False

        n_leaves = 2 * n_modes + 1
        self._n_leaves = n_leaves
        self._init_vector(hamiltonian, n_leaves)
        self._init_arch(graph, arch_weight)

    # ------------------------------------------------------------------
    # State initialization
    # ------------------------------------------------------------------
    def _init_vector(self, hamiltonian: MajoranaOperator, n_leaves: int) -> None:
        n_total = n_leaves + self.n
        # Packed term-membership masks, one column per uid (word-major, so a
        # step's candidate operands are contiguous column gathers), transposed
        # straight from the non-identity monomial masks; parent columns are
        # filled in place by the XOR reduction.
        masks, _ = hamiltonian.bitmasks()
        rows = incidence_from_masks(masks[masks.any(axis=1)], n_leaves)
        self._rows = np.zeros((rows.shape[1], n_total), dtype=np.uint64)
        self._rows[:, :n_leaves] = rows.T
        self._n_nodes = n_leaves
        # Working set as a swap-managed prefix of _warr plus a position map:
        # removal moves the last live entry into the freed slot (O(1)).
        self._warr = np.full(n_total, -1, dtype=np.intp)
        self._warr[:n_leaves] = np.arange(n_leaves, dtype=np.intp)
        self._wpos = np.full(n_total, -1, dtype=np.intp)
        self._wpos[:n_leaves] = np.arange(n_leaves, dtype=np.intp)
        self._n_working = n_leaves
        self._in_working_arr = np.zeros(n_total, dtype=bool)
        self._in_working_arr[:n_leaves] = True
        # Algorithm 3 maps and tree topology as flat int arrays.
        self._mdown = np.full(n_total, -1, dtype=np.intp)
        self._mdown[:n_leaves] = np.arange(n_leaves, dtype=np.intp)
        # One dummy slot past the leaves: indexing with the (out-of-range)
        # pair partner of the discarded leaf 2N yields -1 instead of a bounds
        # check, so the paired kernel needs no guard before the gather.
        self._mup = np.full(n_leaves + 1, -1, dtype=np.intp)
        self._mup[:n_leaves] = np.arange(n_leaves, dtype=np.intp)
        self._parent = np.full(n_total, -1, dtype=np.intp)
        self._child_z = np.full(n_total, -1, dtype=np.intp)

    def _init_arch(self, graph, arch_weight: float | None) -> None:
        if graph is None:
            if arch_weight is not None:
                raise ValueError("arch_weight requires a coupling graph")
            self._arch = False
            self.graph = None
            self.arch_weight = None
            self._aw_int = 0
            return
        # Deferred import keeps the plain construction path free of the
        # circuits/networkx dependency.
        from ..circuits.routing import distance_matrix

        n_phys = graph.number_of_nodes()
        if self.n > n_phys:
            raise ValueError(
                f"coupling graph has {n_phys} qubits but the tree needs {self.n}"
            )
        aw = DEFAULT_ARCH_WEIGHT if arch_weight is None else float(arch_weight)
        if not math.isfinite(aw) or aw < 0:
            raise ValueError(
                f"arch_weight must be finite and >= 0, got {arch_weight!r}"
            )
        self._arch = True
        self.graph = graph
        self._aw_int = int(round(aw * ARCH_WEIGHT_SCALE))
        self.arch_weight = self._aw_int / ARCH_WEIGHT_SCALE
        dist = distance_matrix(graph)  # validates 0..n-1 labels, connectivity
        # Penalty table with a trailing all-zero sentinel row/column: anchor
        # -1 (unanchored — every leaf) indexes the sentinel, contributing
        # nothing; the ``- 1`` makes *adjacent* anchors free, so all-to-all
        # graphs reduce exactly to plain HATT.
        pen = np.zeros((n_phys + 1, n_phys + 1), dtype=np.int64)
        pen[:n_phys, :n_phys] = np.maximum(dist.astype(np.int64) - 1, 0)
        self._pen = pen
        self._dist_list: list[list[int]] = dist.tolist()
        # Anchor placement rank: high degree first, node id breaking ties —
        # the same preference the router's initial_layout uses.
        self._free_rank = sorted(graph.nodes, key=lambda v: (-graph.degree[v], v))
        self._phys_used = [False] * n_phys
        self._anchor = [-1] * (self._n_leaves + self.n)

    # ------------------------------------------------------------------
    # Anchor bookkeeping (shared with the scalar reference)
    # ------------------------------------------------------------------
    def _assign_anchor(self, parent_uid: int, children: tuple[int, int, int]) -> None:
        """Greedily pin the new internal node to a free physical qubit:
        closest (by summed distance) to its already-anchored children, or the
        highest-rank free node when all children are leaves.  Deterministic
        (rank order breaks all ties)."""
        anchors = [self._anchor[u] for u in children if self._anchor[u] >= 0]
        dist = self._dist_list
        best = None
        if anchors:
            best_d = None
            for p in self._free_rank:
                if self._phys_used[p]:
                    continue
                total = 0
                for q in anchors:
                    total += dist[p][q]
                if best_d is None or total < best_d:
                    best_d, best = total, p
        else:
            for p in self._free_rank:
                if not self._phys_used[p]:
                    best = p
                    break
        assert best is not None  # n internal nodes <= n_phys (validated)
        self._phys_used[best] = True
        self._anchor[parent_uid] = best

    # ------------------------------------------------------------------
    # Z-descendant lookups (Algorithm 3 vs explicit traversal)
    # ------------------------------------------------------------------
    def _desc_z_vec(self, uid: int) -> int:
        if self.cached:
            return int(self._mdown[uid])
        while self._child_z[uid] >= 0:
            uid = int(self._child_z[uid])
        return uid

    def _traverse_up_vec(self, leaf_uid: int) -> int:
        if self.cached:
            return int(self._mup[leaf_uid])
        uid = leaf_uid
        while not self._in_working_arr[uid]:
            uid = int(self._parent[uid])
        return uid

    # ------------------------------------------------------------------
    # Selection rules (vectorized broadcast kernels)
    # ------------------------------------------------------------------
    def _working_operands(self) -> tuple[np.ndarray, np.ndarray]:
        """Live working-set uids in ascending order and their mask columns.

        The swap-managed array is unordered; sorting restores the uid order
        a per-candidate scan visits, so the kernels break weight ties the
        same way as the scalar reference.  ``take`` (unlike ``[:, uids]``)
        returns the ``(n_words, m)`` gather C-contiguous.
        """
        uids = np.sort(self._warr[: self._n_working])
        return uids, self._rows.take(uids, axis=1)

    @staticmethod
    def _acc_dtype(n_words: int):
        """Smallest unsigned dtype that can hold a ``64 * n_words`` popcount."""
        return np.uint16 if n_words <= 1023 else np.uint32

    def _grid_weights(self, pb: np.ndarray, pc: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Weights of a ``(pairs, singles)`` candidate grid, word-blocked.

        ``pb``/``pc`` hold each row's pair and ``z`` the singles, as
        ``(n_words, ·)`` mask columns.  Per bit, ``(mA|mB|mC) & ~(mA&mB&mC)``
        is ``z ? ~(b & c) : (b | c)`` = ``o ^ (z & d)`` with ``o = b | c``
        and ``d = ~(b ^ c)``: two ops per block.  Callers keep a grid within
        ``self._block`` cells, and each ``(words, rows, cols)`` block takes
        as many words as fit ``self._block`` elements: one ``bitwise_count``
        summed over its word axis into ``_acc_dtype``.
        """
        o, d = pb | pc, ~(pb ^ pc)
        words = max(1, self._block // (o.shape[1] * z.shape[1]))
        acc = self._acc_dtype(len(o))
        w = None
        for k0 in range(0, len(o), words):
            k = slice(k0, k0 + words)
            t = d[k, :, None] & z[k, None, :]
            t ^= o[k, :, None]
            part = np.bitwise_count(t).sum(axis=0, dtype=acc)
            w = part if w is None else np.add(w, part, out=w)
        return w

    def _select_free_vector(self, qubit: int) -> tuple[tuple[int, int, int], int]:
        """Algorithm 1, one word-blocked kernel over all C(m, 3) candidate triples.

        Grid rows are the ``(b, c)`` pairs of ``np.triu_indices`` (``b ≥ 1``,
        sorted by ``b``) and columns the ``a < b`` prefix of the working
        set.  A chunk of rows spans the widest prefix among them, so chunks
        end where rows × width would pass ``_BLOCK_ELEMS`` cells (capped by
        ``memory_budget``) and the cells with ``a ≥ b`` are masked.  The
        winner is the minimum-score candidate with the lexicographically
        smallest ``(a, b, c)`` — exactly the scalar scan's first strict
        minimum over ``combinations``.
        """
        uids, z = self._working_operands()
        m = len(uids)
        acc_dtype = self._acc_dtype(z.shape[0])
        arch = self._arch
        if arch:
            anc = np.array(self._anchor, dtype=np.intp)[uids]
            pen = self._pen
            aw_int = self._aw_int
        b_all, c_all = np.triu_indices(m, k=1)
        # Pairs with b == 0 admit no a < b.
        has_a = b_all > 0
        b_all, c_all = b_all[has_a], c_all[has_a]
        n_pairs = len(b_all)
        # Grid cells per chunk: weight, guard and (arch) int64 temps each.
        cap = min(self._block, self.memory_budget // (8 * (2 + (6 if arch else 0))))
        ends = np.arange(1, n_pairs + 1)
        # Row b of guard is the sentinel from column b on: OR-ing a chunk's
        # gathered rows into its scores masks every a >= b cell.
        guard = np.triu(
            np.full((m, m), _INF if arch else ~acc_dtype(0), np.int64 if arch else acc_dtype)
        )
        best_w = None
        best_s = _INF
        best_key = None
        best: tuple[int, int, int] | None = None
        m2 = m * m
        p0 = 0
        while p0 < n_pairs:
            # b is sorted, so rows × widest prefix grows with the chunk end.
            cells = (ends[p0:] - p0) * b_all[p0:]
            p1 = p0 + max(1, int(np.searchsorted(cells, cap, side="right")))
            b_chunk, c_chunk = b_all[p0:p1], c_all[p0:p1]
            width = int(b_chunk[-1])
            w = self._grid_weights(
                z.take(b_chunk, axis=1), z.take(c_chunk, axis=1), z[:, :width]
            )
            if arch:
                # Blended integer score; the per-pair (b, c) penalty is
                # broadcast over the a's.
                s = w.astype(np.int64) * ARCH_WEIGHT_SCALE + aw_int * (
                    pen[anc[b_chunk], anc[c_chunk]][:, None]
                    + pen[anc[b_chunk][:, None], anc[None, :width]]
                    + pen[anc[c_chunk][:, None], anc[None, :width]]
                )
            else:
                s = w
            s |= guard.take(b_chunk, axis=0)[:, :width]
            # Column-major first minimum: the chunk's smallest (a, b, c).
            a, rr = divmod(int(np.argmin(s.T)), len(b_chunk))
            s_min = int(s[rr, a])
            b, c = int(b_chunk[rr]), int(c_chunk[rr])
            k = a * m2 + b * m + c
            if s_min < best_s or (s_min == best_s and k < best_key):
                best_s = s_min
                best_key = k
                best_w = int(w[rr, a])
                best = (int(uids[a]), int(uids[b]), int(uids[c]))
            if best_s == 0 and p1 < n_pairs:
                # Score floor reached; remaining chunks hold pairs that are
                # lexicographically later, so their candidate keys all exceed
                # best_key once the pair prefix alone does — safe to stop.
                if best_key < int(b_all[p1]) * m + int(c_all[p1]):
                    break
            p0 = p1
        assert best is not None and best_w is not None
        return best, best_w

    def _select_paired_vector(self, qubit: int) -> tuple[tuple[int, int, int], int]:
        """Algorithms 2/3, one word-blocked kernel over the (O_X, O_Z) grid.

        Valid ``O_X`` rows (pair partner exists and differs) are resolved via
        the int-array ``mdown``/``mup`` maps (or the explicit array
        traversals when ``cached=False``); each row's ``(O_X, O_Y)`` pair is
        scored against every ``O_Z`` column by :meth:`_grid_weights`.
        Masked entries take a sentinel weight so the flat row-major argmin
        reproduces the scalar double loop's tie-breaking.
        """
        uids, z = self._working_operands()
        m = len(uids)
        last_leaf = 2 * self.n
        if self.cached:
            x_leaf = self._mdown[uids]
            # The dummy _mup slot maps the discarded leaf's nonexistent
            # partner to -1, so the gather needs no validity guard.
            oy = self._mup[x_leaf ^ 1]
        else:
            x_leaf = np.fromiter(
                (self._desc_z_vec(int(u)) for u in uids), dtype=np.intp, count=m
            )
            oy = np.fromiter(
                (self._traverse_up_vec(int(x) ^ 1) if x != last_leaf else -1
                 for x in x_leaf),
                dtype=np.intp,
                count=m,
            )
        r_idx = np.flatnonzero((x_leaf != last_leaf) & (oy != uids) & (oy >= 0))
        if r_idx.size == 0:
            raise RuntimeError(
                "no valid (O_X, O_Z) selection found — tree state is corrupt"
            )
        ox_r = uids[r_idx]
        oy_r = oy[r_idx]
        # O_Y is a working-set node: its column is its rank in uids.
        oy_idx = np.searchsorted(uids, oy_r)
        even = (x_leaf[r_idx] & 1) == 0
        cx = np.where(even, ox_r, oy_r)
        cy = np.where(even, oy_r, ox_r)
        acc_dtype = self._acc_dtype(z.shape[0])
        bad = ~acc_dtype(0)
        arch = self._arch
        if arch:
            anc_all = np.array(self._anchor, dtype=np.intp)
            anc_x = anc_all[cx]
            anc_y = anc_all[cy]
            anc_z = anc_all[uids]
            pen = self._pen
            aw_int = self._aw_int
            pen_xy = pen[anc_x, anc_y]
        # Weight and (arch) int64 score temps per grid cell.
        per_row = m * (2 + (6 if arch else 0)) * 8
        chunk = max(1, min(self.memory_budget // per_row, self._block // m))
        best_w = None
        best_s = _INF
        best: tuple[int, int, int] | None = None
        for r0 in range(0, len(r_idx), chunk):
            r1 = min(r0 + chunk, len(r_idx))
            w = self._grid_weights(
                z.take(r_idx[r0:r1], axis=1), z.take(oy_idx[r0:r1], axis=1), z
            )
            if arch:
                # Blended score grid; w stays unmasked so the winner's pure
                # Pauli weight can be read back for the trace.
                s = w.astype(np.int64) * ARCH_WEIGHT_SCALE + aw_int * (
                    pen_xy[r0:r1, None]
                    + pen[anc_x[r0:r1, None], anc_z[None, :]]
                    + pen[anc_y[r0:r1, None], anc_z[None, :]]
                )
            else:
                s = w
            # O_Z may be neither O_X nor O_Y: two masked cells per row.
            rows = np.arange(r1 - r0)
            s[rows, r_idx[r0:r1]] = s[rows, oy_idx[r0:r1]] = _INF if arch else bad
            flat = int(np.argmin(s))
            s_min = int(s.reshape(-1)[flat])
            if s_min < best_s:
                lr, j = np.unravel_index(flat, s.shape)
                r = r0 + int(lr)
                best_s = s_min
                best_w = int(w[int(lr), int(j)])
                best = (int(cx[r]), int(cy[r]), int(uids[j]))
            if best_s == 0:
                break
        assert best is not None and best_w is not None
        return best, best_w

    # ------------------------------------------------------------------
    # Reduction (paper Fig. 7 step 3)
    # ------------------------------------------------------------------
    def _reduce(self, qubit: int, children: tuple[int, int, int]) -> None:
        self._children.append(children)
        self._reduce_vector(children)
        if self._arch:
            # The new parent is numbered n_leaves + qubit.
            self._assign_anchor(self._n_leaves + qubit, children)

    def _reduce_vector(self, children: tuple[int, int, int]) -> None:
        cx, cy, cz = children
        parent_uid = self._n_nodes
        self._n_nodes += 1
        rows = self._rows
        rows[:, parent_uid] = rows[:, cx] ^ rows[:, cy] ^ rows[:, cz]
        for uid in children:
            self._parent[uid] = parent_uid
        self._child_z[parent_uid] = cz
        # O(1) swap-removal: the last live entry fills the freed slot.
        for uid in children:
            pos = int(self._wpos[uid])
            last = self._n_working - 1
            last_uid = int(self._warr[last])
            self._warr[pos] = last_uid
            self._wpos[last_uid] = pos
            self._wpos[uid] = -1
            self._n_working = last
            self._in_working_arr[uid] = False
        self._warr[self._n_working] = parent_uid
        self._wpos[parent_uid] = self._n_working
        self._n_working += 1
        self._in_working_arr[parent_uid] = True
        z_desc = int(self._mdown[cz])
        self._mdown[parent_uid] = z_desc
        self._mup[z_desc] = parent_uid

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> TernaryTree:
        if self._done:
            raise RuntimeError("construction already ran")
        select = self._select_paired_vector if self.vacuum else self._select_free_vector
        for qubit in range(self.n):
            children, w = select(qubit)
            self.trace.append((qubit, children, w))
            self._reduce(qubit, children)
        self._done = True
        tree = tree_from_uid_arrays(self._children, self.n)
        # The term-membership matrix is working state only; releasing it
        # keeps cached mappings (which hold this object) small.
        self._rows = None
        tree.validate()
        return tree

    @property
    def step_weights(self) -> list[int]:
        """Greedy per-qubit weights chosen at each step (diagnostics)."""
        return [w for _, _, w in self.trace]

    @property
    def children_uids(self) -> list[tuple[int, int, int]]:
        """Per-qubit (X, Y, Z) child-uid triples under the bottom-up numbering
        consumed by :func:`repro.mappings.tree.tree_from_uid_arrays`."""
        return list(self._children)


def hatt_mapping(
    hamiltonian: FermionOperator | MajoranaOperator,
    n_modes: int | None = None,
    vacuum: bool = True,
    cached: bool = True,
    memory_budget: int | None = None,
    graph=None,
    arch_weight: float | None = None,
) -> FermionQubitMapping:
    """Compile a Hamiltonian-adaptive ternary-tree fermion-to-qubit mapping.

    Parameters mirror :class:`HattConstruction`; passing ``graph`` selects
    the architecture-adaptive ``hatt-arch`` mode (see the module docstring).
    Returns a :class:`~repro.mappings.FermionQubitMapping` whose string
    ``S_i`` is assigned to Majorana ``M_i`` (leaf ``i`` of the constructed
    tree); the tree itself is attached as ``mapping.tree``.
    """
    majorana = majorana_form(hamiltonian)
    if n_modes is None:
        n_modes = majorana.n_modes
    construction = HattConstruction(
        majorana,
        n_modes,
        vacuum=vacuum,
        cached=cached,
        memory_budget=memory_budget,
        graph=graph,
        arch_weight=arch_weight,
    )
    started = time.perf_counter()
    tree = construction.run()
    from ..obs.metrics import get_registry

    get_registry().histogram(
        "repro_hatt_construction_seconds",
        help="Wall time of HATT tree construction runs.",
    ).observe(time.perf_counter() - started)
    strings = tree.strings_by_leaf_index()
    base = "HATT-arch" if graph is not None else "HATT"
    name = base if vacuum else base + "-unopt"
    mapping = FermionQubitMapping(strings[:-1], name=name, discarded=strings[-1])
    mapping.tree = tree
    mapping.construction = construction
    return mapping
