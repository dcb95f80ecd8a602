"""Scalar HATT construction: the per-candidate Python big-int scan.

:class:`ScalarHattConstruction` is the oracle for the packed-bitmask kernels
of :class:`repro.hatt.HattConstruction`.  Each working-set node keeps its
term-membership mask as a Python int, the selection rules loop over every
candidate in uid order and keep the first strict minimum, and the tree is
grown node by node.  The kernels enumerate the uid-sorted working set and
break ties the same way, so both produce the same trace and tree; the
Hypothesis suites in ``test_hatt_backends.py`` and ``test_hatt_arch.py``
assert that across the ``vacuum``/``cached``/architecture matrix.

The subclass overrides only state setup, the selection rules, the
reduction and the driver; the architecture anchors and penalty table come
from the base class unchanged.
"""

from __future__ import annotations

from itertools import combinations

from repro.fermion.majorana import majorana_form
from repro.hatt.construction import ARCH_WEIGHT_SCALE, HattConstruction
from repro.mappings.base import FermionQubitMapping
from repro.mappings.tree import TernaryTree, TreeNode

__all__ = ["ScalarHattConstruction", "scalar_hatt_mapping"]


class ScalarHattConstruction(HattConstruction):
    """Bit-identical scalar reference for :class:`HattConstruction`."""

    def _init_vector(self, hamiltonian, n_leaves: int) -> None:
        # The scan keeps its own state; the kernel's packed rows are never built.
        self._init_scalar(hamiltonian, n_leaves)

    def _init_scalar(self, hamiltonian, n_leaves: int) -> None:
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
        # the invariant the kernels rely on for identical tie-breaking.
        self.working: list[int] = list(range(n_leaves))
        # Persistent membership flags (uid-indexed), maintained by _reduce so
        # the Algorithm-2 traversal never rebuilds a set per call.
        self._in_working = bytearray(n_total)
        for i in range(n_leaves):
            self._in_working[i] = 1
        # Algorithm 3 maps: uid -> descZ leaf uid, and inverse.
        self.mdown: dict[int, int] = {i: i for i in range(n_leaves)}
        self.mup: dict[int, int] = {i: i for i in range(n_leaves)}

    # ------------------------------------------------------------------
    # Weight oracle and architecture penalty
    # ------------------------------------------------------------------
    def _weight_on_qubit(self, a: int, b: int, c: int) -> int:
        ma, mb, mc = self.masks[a], self.masks[b], self.masks[c]
        return ((ma | mb | mc) & ~(ma & mb & mc)).bit_count()

    def _penalty3(self, a: int, b: int, c: int) -> int:
        """Summed pairwise anchor penalty of a candidate triple; anchor -1
        indexes the zero sentinel row, so unanchored nodes contribute 0."""
        anc = self._anchor
        pen = self._pen_list
        pa, pb, pc = anc[a], anc[b], anc[c]
        return pen[pa][pb] + pen[pa][pc] + pen[pb][pc]

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

    # ------------------------------------------------------------------
    # Selection rules
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
    # Reduction (paper Fig. 7 step 3)
    # ------------------------------------------------------------------
    def _reduce(self, qubit: int, children: tuple[int, int, int]) -> None:
        self._children.append(children)
        self._reduce_scalar(qubit, children)
        if self._arch:
            # Same numbering as the kernel: the new parent is n_leaves + qubit.
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

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> TernaryTree:
        if self._done:
            raise RuntimeError("construction already ran")
        self._uid_of = {id(node): uid for uid, node in enumerate(self.nodes)}
        if self._arch:
            self._pen_list: list[list[int]] = self._pen.tolist()
        select = self._select_paired if self.vacuum else self._select_free
        for qubit in range(self.n):
            children, w = select(qubit)
            self.trace.append((qubit, children, w))
            self._reduce(qubit, children)
        self._done = True
        (root_uid,) = self.working
        tree = TernaryTree(self.nodes[root_uid], self.n)
        self.masks = None
        tree.validate()
        return tree


def scalar_hatt_mapping(
    hamiltonian,
    n_modes: int | None = None,
    vacuum: bool = True,
    cached: bool = True,
    graph=None,
    arch_weight: float | None = None,
) -> FermionQubitMapping:
    """:func:`repro.hatt.hatt_mapping` built by the scalar scan."""
    majorana = majorana_form(hamiltonian)
    if n_modes is None:
        n_modes = majorana.n_modes
    construction = ScalarHattConstruction(
        majorana,
        n_modes,
        vacuum=vacuum,
        cached=cached,
        graph=graph,
        arch_weight=arch_weight,
    )
    tree = construction.run()
    strings = tree.strings_by_leaf_index()
    base = "HATT-arch" if graph is not None else "HATT"
    name = base if vacuum else base + "-unopt"
    mapping = FermionQubitMapping(strings[:-1], name=name, discarded=strings[-1])
    mapping.tree = tree
    mapping.construction = construction
    return mapping
