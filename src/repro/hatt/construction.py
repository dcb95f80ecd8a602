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
to its already-anchored children.  Both backends share the anchor state and
penalty table, so scalar and vector stay bit-identical in this mode too.

Construction backends
---------------------
``backend="vector"`` (default) stores the per-node masks as an
``(n_nodes, n_words)`` packed-uint64 matrix
(:func:`repro.paulis.table.incidence_from_masks`, the transpose of the
operator's monomial bitmasks) and evaluates **all** candidate
weights of a selection step in one broadcast NumPy kernel: the full
upper-triangular ``(A, B, C)`` grid for Algorithm 1 and the ``(O_X, O_Z)``
pair grid for Algorithms 2/3, chunked under ``memory_budget`` bytes of
intermediate arrays.  State is maintained incrementally — row-XOR reduction
into the matrix, ``mdown``/``mup`` as int arrays, O(1) swap-removal from the
working array — and candidates are always enumerated over the uid-sorted
working set, which reproduces the scalar backend's deterministic
first-minimum tie-breaking bit for bit (the scalar working list stays
uid-sorted by construction).  ``backend="scalar"`` keeps the original
per-candidate Python big-int scan as the cross-checked reference; the
property suite asserts identical traces and trees across the full
``vacuum``/``cached`` matrix.

Measured complexity (Fig. 12, ``HF = Σ_i M_i``)
-----------------------------------------------
Per selection step the paired scan evaluates ``O(N)`` candidate pairs times
``O(N)`` Z-choices and the free scan ``O(N³)`` triples, each costing
``O(terms/64)`` words; over ``N`` steps that is the paper's O(N³)
(Algorithm 3) and O(N⁴) (Algorithm 1) term-popcount totals.  The fitted
log-log slopes in ``BENCH_fig12.json`` sit *below* those exponents for both
backends (scalar ≈ N^2.7 vs vector ≈ N^1.2 for HATT, ≈ N^4.1 vs N^1.8–2.6
for the free variant on the bench sizes): the Fig. 12 Hamiltonian has only
``2N`` single-index terms, so the per-candidate popcount stays a word or
two throughout and fixed Python/NumPy per-step constants — not the
asymptotic word count — dominate at small ``N``, flattening the measured
curves.  The paper's exponents are upper bounds that the sweep approaches
from below as ``N`` (and the term count) grows — visibly so for the scalar
free scan, whose measured slope already matches the predicted N⁴.
"""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np

from ..fermion import FermionOperator, MajoranaOperator
from ..fermion.majorana import majorana_form
from ..mappings.base import FermionQubitMapping
from ..mappings.tree import TernaryTree, TreeNode, tree_from_uid_arrays
from ..paulis.table import incidence_from_masks

__all__ = [
    "HattConstruction",
    "hatt_mapping",
    "Selection",
    "BACKENDS",
    "DEFAULT_MEMORY_BUDGET",
    "ARCH_WEIGHT_SCALE",
    "DEFAULT_ARCH_WEIGHT",
]

#: One construction step: (qubit, (uid_X, uid_Y, uid_Z), weight_on_qubit).
Selection = tuple[int, tuple[int, int, int], int]

#: Supported construction backends.
BACKENDS = ("vector", "scalar")

#: Default cap on the vector backend's intermediate candidate-grid arrays.
DEFAULT_MEMORY_BUDGET = 128 * 1024 * 1024

#: Fixed-point grid for the architecture blend: candidate scores are the
#: integers ``ARCH_WEIGHT_SCALE·weight + round(arch_weight·SCALE)·penalty``,
#: so both backends compare identically and ``arch_weight`` is effectively
#: quantized to multiples of ``1/ARCH_WEIGHT_SCALE``.
ARCH_WEIGHT_SCALE = 64

#: Default distance-penalty blend when a coupling graph is supplied (the
#: Table IV bench sweep's best-measured setting).
DEFAULT_ARCH_WEIGHT = 0.5

#: Sentinel weight for masked-out candidates in the broadcast kernels.
_INF = np.iinfo(np.int64).max


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
    backend:
        ``"vector"`` (default) → packed-bitmask broadcast kernels evaluating
        every candidate of a step at once; ``"scalar"`` → the original
        per-candidate Python scan.  Both produce identical traces and trees
        (tested); only the speed differs.
    memory_budget:
        Approximate byte cap on the vector backend's per-step intermediate
        arrays; large candidate grids are chunked to stay under it.
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
        backend: str = "vector",
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
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.n = n_modes
        self.vacuum = vacuum
        self.cached = cached
        self.backend = backend
        self.memory_budget = (
            DEFAULT_MEMORY_BUDGET if memory_budget is None else int(memory_budget)
        )
        if self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        self.trace: list[Selection] = []
        #: Child-uid triples per qubit, appended by :meth:`_reduce`.
        self._children: list[tuple[int, int, int]] = []
        self._done = False

        n_leaves = 2 * n_modes + 1
        self._n_leaves = n_leaves
        if backend == "vector":
            self._init_vector(hamiltonian, n_leaves)
        else:
            self._init_scalar(hamiltonian, n_leaves)
        self._init_arch(graph, arch_weight)

    # ------------------------------------------------------------------
    # Backend state initialization
    # ------------------------------------------------------------------
    def _init_scalar(self, hamiltonian: MajoranaOperator, n_leaves: int) -> None:
        n_total = n_leaves + self.n
        self.nodes: list[TreeNode] = [TreeNode(leaf_index=i) for i in range(n_leaves)]
        # Term-membership bitmask per node (uid-indexed), as Python big-ints.
        self.masks: list[int] = [0] * n_leaves
        for t, term in enumerate(hamiltonian.support_terms()):
            bit = 1 << t
            for idx in term:
                self.masks[idx] |= bit
        # Working set U.  Removals preserve order and the new parent always
        # carries the largest uid, so the list stays uid-sorted throughout —
        # the invariant the vector backend relies on for identical
        # tie-breaking.
        self.working: list[int] = list(range(n_leaves))
        # Persistent membership flags (uid-indexed), maintained by _reduce so
        # the Algorithm-2 traversal never rebuilds a set per call.
        self._in_working = bytearray(n_total)
        for i in range(n_leaves):
            self._in_working[i] = 1
        # Algorithm 3 maps: uid -> descZ leaf uid, and inverse.
        self.mdown: dict[int, int] = {i: i for i in range(n_leaves)}
        self.mup: dict[int, int] = {i: i for i in range(n_leaves)}

    def _init_vector(self, hamiltonian: MajoranaOperator, n_leaves: int) -> None:
        n_total = n_leaves + self.n
        # Packed term-membership masks, one row per uid, transposed straight
        # from the non-identity monomial masks; parent rows are filled in
        # place by the row-XOR reduction.
        masks, _ = hamiltonian.bitmasks()
        rows = incidence_from_masks(masks[masks.any(axis=1)], n_leaves)
        self._rows = np.zeros((n_total, rows.shape[1]), dtype=np.uint64)
        self._rows[:n_leaves] = rows
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
        self._pen_list: list[list[int]] = pen.tolist()
        self._dist_list: list[list[int]] = dist.tolist()
        # Anchor placement rank: high degree first, node id breaking ties —
        # the same preference the router's initial_layout uses.
        self._free_rank = sorted(graph.nodes, key=lambda v: (-graph.degree[v], v))
        self._phys_used = [False] * n_phys
        self._anchor = [-1] * (self._n_leaves + self.n)

    # ------------------------------------------------------------------
    # Weight oracle (scalar)
    # ------------------------------------------------------------------
    def _weight_on_qubit(self, a: int, b: int, c: int) -> int:
        ma, mb, mc = self.masks[a], self.masks[b], self.masks[c]
        return ((ma | mb | mc) & ~(ma & mb & mc)).bit_count()

    # ------------------------------------------------------------------
    # Architecture penalty + anchor bookkeeping (backend-shared)
    # ------------------------------------------------------------------
    def _penalty3(self, a: int, b: int, c: int) -> int:
        """Summed pairwise anchor penalty of a candidate triple; anchor -1
        indexes the zero sentinel row, so unanchored nodes contribute 0."""
        anc = self._anchor
        pen = self._pen_list
        pa, pb, pc = anc[a], anc[b], anc[c]
        return pen[pa][pb] + pen[pa][pc] + pen[pb][pc]

    def _assign_anchor(self, parent_uid: int, children: tuple[int, int, int]) -> None:
        """Greedily pin the new internal node to a free physical qubit:
        closest (by summed distance) to its already-anchored children, or the
        highest-rank free node when all children are leaves.  Deterministic
        (rank order breaks all ties) and shared by both backends."""
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
    def _desc_z(self, uid: int) -> int:
        if self.cached:
            return self.mdown[uid]
        node = self.nodes[uid].desc_z()
        return node.leaf_index  # leaves have uid == leaf_index

    def _traverse_up(self, leaf_uid: int) -> int:
        if self.cached:
            return self.mup[leaf_uid]
        node = self.nodes[leaf_uid]
        uid = leaf_uid
        while not self._in_working[uid]:
            node = node.parent
            uid = self._uid_of[id(node)]
        return uid

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
    # Selection rules (scalar reference)
    # ------------------------------------------------------------------
    def _select_free(self, qubit: int) -> tuple[tuple[int, int, int], int]:
        """Algorithm 1: scan unordered triples (weight is symmetric in the
        children, so combinations suffice — the X/Y/Z roles follow U order).
        In arch mode the scan key is the blended integer score; without a
        graph the score *is* the weight, so plain behaviour is untouched."""
        arch = self._arch
        aw = self._aw_int
        best: tuple[int, int, int] | None = None
        best_w = None
        best_s = None
        for a, b, c in combinations(self.working, 3):
            w = self._weight_on_qubit(a, b, c)
            s = ARCH_WEIGHT_SCALE * w + aw * self._penalty3(a, b, c) if arch else w
            if best_s is None or s < best_s:
                best_s, best_w, best = s, w, (a, b, c)
                if s == 0:
                    break
        assert best is not None and best_w is not None
        return best, best_w

    def _select_paired(self, qubit: int) -> tuple[tuple[int, int, int], int]:
        """Algorithm 2: pick (O_X, O_Z); O_Y is forced by leaf pairing."""
        last_leaf = 2 * self.n
        arch = self._arch
        aw = self._aw_int
        best: tuple[int, int, int] | None = None
        best_w = None
        best_s = None
        for ox in self.working:
            x_leaf = self._desc_z(ox)
            if x_leaf == last_leaf:
                # S_2N is the discarded string and never pairs (paper §IV-B).
                continue
            y_leaf = x_leaf + 1 if x_leaf % 2 == 0 else x_leaf - 1
            oy = self._traverse_up(y_leaf)
            if oy == ox:
                continue
            # The (X, Y) roles must put the even leaf under the X branch.
            cx, cy = (ox, oy) if x_leaf % 2 == 0 else (oy, ox)
            for oz in self.working:
                if oz == ox or oz == oy:
                    continue
                w = self._weight_on_qubit(cx, cy, oz)
                s = (
                    ARCH_WEIGHT_SCALE * w + aw * self._penalty3(cx, cy, oz)
                    if arch
                    else w
                )
                if best_s is None or s < best_s:
                    best_s, best_w, best = s, w, (cx, cy, oz)
                    if s == 0:
                        break
            if best_s == 0:
                # Scores can't go below zero; the first zero-score candidate
                # in scan order is final, so skip the remaining evaluation.
                break
        if best is None or best_w is None:
            raise RuntimeError(
                "no valid (O_X, O_Z) selection found — tree state is corrupt"
            )
        return best, best_w

    # ------------------------------------------------------------------
    # Selection rules (vectorized broadcast kernels)
    # ------------------------------------------------------------------
    def _sorted_working(self) -> np.ndarray:
        """Live working-set uids in ascending order.

        The swap-managed array is unordered; sorting restores the scalar
        backend's (always uid-sorted) scan order so both backends break
        weight ties identically.
        """
        return np.sort(self._warr[: self._n_working])

    @staticmethod
    def _acc_dtype(n_words: int):
        """Smallest unsigned dtype that can hold a ``64 * n_words`` popcount."""
        return np.uint16 if n_words <= 1023 else np.uint32

    def _select_free_vector(self, qubit: int) -> tuple[tuple[int, int, int], int]:
        """Algorithm 1, one broadcast kernel over all C(m, 3) candidate triples.

        Enumerates exactly the upper-triangular ``a < b < c`` candidates: the
        ``(b, c)`` pairs come from ``np.triu_indices`` and each pair is
        repeated once per valid ``a`` (``a < b``) via arange arithmetic, so
        no dense cube is built and no sentinel masking is needed.  Pairs are
        chunked so the candidate arrays stay under ``memory_budget`` bytes.
        The winner is the minimum-weight candidate with the lexicographically
        smallest ``(a, b, c)`` — exactly the scalar scan's first strict
        minimum over ``combinations``.
        """
        uids = self._sorted_working()
        m = len(uids)
        rows = self._rows[uids]
        n_words = rows.shape[1]
        acc_dtype = self._acc_dtype(n_words)
        arch = self._arch
        if arch:
            anc = np.array(self._anchor, dtype=np.intp)[uids]
            pen = self._pen
            aw_int = self._aw_int
        # Per-word flat columns: every kernel pass stays 1-D, so popcounts
        # are plain uint8 vectors accumulated across words instead of a
        # (candidates, n_words) reduction.
        cols = [rows[:, k] for k in range(n_words)]
        b_all, c_all = np.triu_indices(m, k=1)
        # Pairs with b == 0 admit no a < b.
        has_a = b_all > 0
        b_all, c_all = b_all[has_a], c_all[has_a]
        # ~ (3 flat word temps per word pass + index/weight vectors, plus the
        # int64 score/penalty temps in arch mode) per candidate; a pair
        # contributes at most m candidates.  Each pair belongs to exactly one
        # chunk, so the per-chunk OR/AND pair grids below cost no extra
        # compute and keep peak memory under the budget.
        per_pair = m * (3 * n_words + 4 + (6 if arch else 0)) * 8
        chunk = max(1, self.memory_budget // per_pair)
        best_w = None
        best_s = _INF
        best_key = None
        best: tuple[int, int, int] | None = None
        m2 = m * m
        for p0 in range(0, len(b_all), chunk):
            p1 = min(p0 + chunk, len(b_all))
            b_chunk = b_all[p0:p1]
            c_chunk = c_all[p0:p1]
            counts = b_chunk  # number of valid a's per pair
            total = int(counts.sum())
            pair = np.repeat(np.arange(p1 - p0, dtype=np.intp), counts)
            a = np.arange(total, dtype=np.intp) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            w = None
            for col in cols:
                or_k = col[b_chunk] | col[c_chunk]
                and_k = col[b_chunk] & col[c_chunk]
                aw = col[a]
                wk = np.bitwise_count((aw | or_k[pair]) & ~(aw & and_k[pair]))
                if w is None:
                    w = wk if n_words == 1 else wk.astype(acc_dtype)
                else:
                    w += wk
            if arch:
                # Blended integer score; the per-pair (b, c) penalty is
                # computed once per pair and broadcast over the a's.
                pen_b = pen[anc[b_chunk], anc[c_chunk]]
                s = w.astype(np.int64) * ARCH_WEIGHT_SCALE + aw_int * (
                    pen[anc[a], anc[b_chunk][pair]]
                    + pen[anc[a], anc[c_chunk][pair]]
                    + pen_b[pair]
                )
            else:
                s = w
            s_min = int(s.min())
            if s_min < best_s or (best_key is not None and s_min == best_s):
                sel = np.flatnonzero(s == s_min)
                keys = a[sel] * m2 + b_chunk[pair[sel]] * m + c_chunk[pair[sel]]
                j = int(np.argmin(keys))
                k = int(keys[j])
                if s_min < best_s or k < best_key:
                    best_s = s_min
                    best_key = k
                    best_w = int(w[sel[j]])
                    best = (
                        int(uids[k // m2]),
                        int(uids[(k // m) % m]),
                        int(uids[k % m]),
                    )
            if best_s == 0 and p1 < len(b_all):
                # Score floor reached; remaining chunks hold pairs that are
                # lexicographically later, so their candidate keys all exceed
                # best_key once the pair prefix alone does — safe to stop.
                if best_key < int(b_all[p1]) * m + int(c_all[p1]):
                    break
        assert best is not None and best_w is not None
        return best, best_w

    def _select_paired_vector(self, qubit: int) -> tuple[tuple[int, int, int], int]:
        """Algorithms 2/3, one broadcast kernel over the (O_X, O_Z) grid.

        Valid ``O_X`` rows (pair partner exists and differs) are resolved via
        the int-array ``mdown``/``mup`` maps (or the explicit array
        traversals when ``cached=False``), then every ``O_Z`` column is
        scored at once; masked entries take a sentinel weight so the flat
        row-major argmin reproduces the scalar double loop's tie-breaking.
        """
        uids = self._sorted_working()
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
        even = (x_leaf[r_idx] & 1) == 0
        cx = np.where(even, ox_r, oy_r)
        cy = np.where(even, oy_r, ox_r)
        n_words = self._rows.shape[1]
        acc_dtype = self._acc_dtype(n_words)
        arch = self._arch
        if arch:
            anc_all = np.array(self._anchor, dtype=np.intp)
            anc_x = anc_all[cx]
            anc_y = anc_all[cy]
            anc_z = anc_all[uids]
            pen = self._pen
            aw_int = self._aw_int
            pen_xy = pen[anc_x, anc_y]
        # Per-word flat precomputations; see _select_free_vector.
        cols = [self._rows[:, k] for k in range(n_words)]
        pre_or = [(col[cx] | col[cy])[:, None] for col in cols]
        pre_and = [(col[cx] & col[cy])[:, None] for col in cols]
        z_rows = [col[uids][None, :] for col in cols]
        # Weights on one word never exceed 64, so the dtype max is a safe
        # larger-than-any-weight sentinel for the masked candidates.
        bad = np.uint8(255) if n_words == 1 else acc_dtype(np.iinfo(acc_dtype).max)
        per_row = m * (4 * n_words + 2 + (6 if arch else 0)) * 8
        chunk = max(1, self.memory_budget // per_row)
        best_w = None
        best_s = _INF
        best: tuple[int, int, int] | None = None
        for r0 in range(0, len(r_idx), chunk):
            r1 = min(r0 + chunk, len(r_idx))
            w = None
            for po_k, pa_k, z_k in zip(pre_or, pre_and, z_rows):
                po = po_k[r0:r1]
                pa = pa_k[r0:r1]
                wk = np.bitwise_count((po | z_k) & ~(pa & z_k))
                if w is None:
                    w = wk if n_words == 1 else wk.astype(acc_dtype)
                else:
                    w += wk
            mask = (uids[None, :] == ox_r[r0:r1, None]) | (
                uids[None, :] == oy_r[r0:r1, None]
            )
            if arch:
                # Blended score grid; w stays unmasked so the winner's pure
                # Pauli weight can be read back for the trace.
                s = w.astype(np.int64) * ARCH_WEIGHT_SCALE + aw_int * (
                    pen_xy[r0:r1, None]
                    + pen[anc_x[r0:r1, None], anc_z[None, :]]
                    + pen[anc_y[r0:r1, None], anc_z[None, :]]
                )
                s[mask] = _INF
            else:
                w[mask] = bad
                s = w
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
        if self.backend == "vector":
            self._reduce_vector(children)
        else:
            self._reduce_scalar(qubit, children)
        if self._arch:
            # Both backends number the new parent n_leaves + qubit.
            self._assign_anchor(self._n_leaves + qubit, children)

    def _reduce_scalar(self, qubit: int, children: tuple[int, int, int]) -> None:
        cx, cy, cz = children
        parent_uid = len(self.nodes)
        parent = TreeNode(qubit=qubit)
        for branch, uid in zip("XYZ", children):
            parent.attach(branch, self.nodes[uid])
        self.nodes.append(parent)
        self._uid_of[id(parent)] = parent_uid
        self.masks.append(self.masks[cx] ^ self.masks[cy] ^ self.masks[cz])
        for uid in children:
            self.working.remove(uid)
            self._in_working[uid] = 0
        self.working.append(parent_uid)
        self._in_working[parent_uid] = 1
        # Maintain the Algorithm-3 maps: the new parent inherits its Z child's
        # Z-descendant; (descZ(X), descZ(Y)) just became a Majorana pair.
        z_desc = self.mdown[cz]
        self.mdown[parent_uid] = z_desc
        self.mup[z_desc] = parent_uid

    def _reduce_vector(self, children: tuple[int, int, int]) -> None:
        cx, cy, cz = children
        parent_uid = self._n_nodes
        self._n_nodes += 1
        self._rows[parent_uid] = (
            self._rows[cx] ^ self._rows[cy] ^ self._rows[cz]
        )
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
        if self.backend == "vector":
            select = self._select_paired_vector if self.vacuum else self._select_free_vector
        else:
            self._uid_of = {id(node): uid for uid, node in enumerate(self.nodes)}
            select = self._select_paired if self.vacuum else self._select_free
        for qubit in range(self.n):
            children, w = select(qubit)
            self.trace.append((qubit, children, w))
            self._reduce(qubit, children)
        self._done = True
        if self.backend == "vector":
            tree = tree_from_uid_arrays(self._children, self.n)
            # The term-membership matrix is working state only; releasing
            # it keeps cached mappings (which hold this object) small.
            self._rows = None
        else:
            (root_uid,) = self.working
            tree = TernaryTree(self.nodes[root_uid], self.n)
            self.masks = None
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


def _to_majorana(
    hamiltonian: FermionOperator | MajoranaOperator,
) -> MajoranaOperator:
    if isinstance(hamiltonian, (FermionOperator, MajoranaOperator)):
        return majorana_form(hamiltonian)
    raise TypeError(f"cannot build HATT from {type(hamiltonian).__name__}")


def hatt_mapping(
    hamiltonian: FermionOperator | MajoranaOperator,
    n_modes: int | None = None,
    vacuum: bool = True,
    cached: bool = True,
    backend: str = "vector",
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
    majorana = _to_majorana(hamiltonian)
    if n_modes is None:
        n_modes = majorana.n_modes
    construction = HattConstruction(
        majorana,
        n_modes,
        vacuum=vacuum,
        cached=cached,
        backend=backend,
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
