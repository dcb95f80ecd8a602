"""Molecular integrals over contracted Cartesian Gaussians.

McMurchie–Davidson scheme: products of Gaussians are expanded in Hermite
Gaussians via the E coefficients; Coulomb-type integrals reduce to the
Hermite Coulomb tensor R built on the Boys function.  The recursions take
any angular momentum; the paper's molecule set needs s and p shells.

The kernels are batched.  Overlap and kinetic run over all primitive pairs
of one pair of Cartesian components, the nuclear attraction over those
pairs × nuclei, and the ERIs over every primitive quartet of one angular
class (bra and ket Hermite extents and primitive counts), in chunks of at
most ``_CHUNK`` elements so transient memory stays small on larger
molecules.  Every element still goes through the operation sequence of the
scalar engine kept as the test oracle in ``tests/reference/integrals.py``:
the same E and R recurrences, the same accumulation order over Hermite
indices, primitives and nuclei, the zero-E skips as ``np.where`` masks and
the same Schwarz screening, so the results are bit-identical to it, sign
bits included.

Only IEEE-exact operations run as NumPy array arithmetic: ``+``, ``−``,
``×``, ``÷`` and ``sqrt``.  NumPy's SIMD ``exp`` and ``power`` differ from
libm in the last bit on a few percent of inputs (``np.power(x, 2)`` is not
even ``pow(x, 2)``), so ``exp`` and float ``**`` are applied element by
element with libm (:func:`_libm`, :func:`_pow`); ``gammainc`` is a SciPy
ufunc, the same code per element as its scalar call.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import repeat

import numpy as np
from scipy.special import gammainc, gammaln

from .basis import BasisFunction

__all__ = [
    "boys",
    "overlap_matrix",
    "kinetic_matrix",
    "nuclear_attraction_matrix",
    "eri_tensor",
    "core_hamiltonian",
    "overlap_and_core",
    "nuclear_repulsion",
]

# Elements (primitive quartets, or primitive pairs × nuclei) per batch.
_CHUNK = 4096


def _libm(fn, x: np.ndarray, *args) -> np.ndarray:
    """``fn(v, *args)``, a libm scalar function, applied element by element."""
    vals = map(fn, x.ravel().tolist(), *(repeat(a) for a in args))
    return np.fromiter(vals, float, count=x.size).reshape(x.shape)


def _pow(x: np.ndarray, y) -> np.ndarray:
    """``x ** y`` element by element with libm ``pow``."""
    return _libm(math.pow, x, float(y))


def boys(m: int, t):
    """Boys function ``F_m(t) = ∫₀¹ u^{2m} e^{-t u²} du``, elementwise over ``t``.

    A float ``t`` gives a float, an array an array.
    """
    arr = np.asarray(t, dtype=float)
    small = arr < 1e-12
    safe = np.where(small, 1.0, arr)
    a = m + 0.5
    # F_m(t) = Γ(a)·P(a, t) / (2 t^a) with P the regularized lower gamma.
    val = math.exp(gammaln(a)) * gammainc(a, safe) / (2.0 * _pow(safe, a))
    out = np.where(small, 1.0 / (2 * m + 1), val)
    return float(out) if out.ndim == 0 else out


def hermite_e_table(l1: int, l2: int, a, b, xab) -> np.ndarray:
    """E[i, j, t, ...] for i ≤ l1, j ≤ l2, t ≤ i+j (1D McMurchie–Davidson).

    ``a``, ``b`` and ``xab`` broadcast together; the trailing axes of the
    table are their shape.
    """
    a, b, xab = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, xab)))
    p = a + b
    q = a * b / p
    table = np.zeros((l1 + 1, l2 + 1, l1 + l2 + 2) + p.shape)
    table[0, 0, 0] = _libm(math.exp, -q * xab * xab)
    # Increment i: E(i+1,j,t) = E(i,j,t-1)/(2p) - (q·xab/a)·E(i,j,t) + (t+1)·E(i,j,t+1)
    for i in range(l1):
        for t in range(i + 1 + 1):
            table[i + 1, 0, t] = (
                (table[i, 0, t - 1] / (2 * p) if t > 0 else 0.0)
                - (q * xab / a) * table[i, 0, t]
                + (t + 1) * table[i, 0, t + 1]
            )
    for j in range(l2):
        for i in range(l1 + 1):
            for t in range(i + j + 1 + 1):
                table[i, j + 1, t] = (
                    (table[i, j, t - 1] / (2 * p) if t > 0 else 0.0)
                    + (q * xab / b) * table[i, j, t]
                    + (t + 1) * table[i, j, t + 1]
                )
    return table


def _hermite_r(tmax: int, umax: int, vmax: int, alpha, rpc) -> dict:
    """Hermite Coulomb tensor R⁰_{tuv} for all t ≤ tmax, u ≤ umax, v ≤ vmax.

    ``alpha`` has the batch shape and ``rpc`` that shape plus a last axis of
    3; each value of the dict is an array of the batch shape.
    """
    xyz = (rpc[..., 0], rpc[..., 1], rpc[..., 2])
    t2 = alpha * (_pow(xyz[0], 2) + _pow(xyz[1], 2) + _pow(xyz[2], 2))
    # R^n_000 = (-2α)^n F_n(t2); x ** 0 is 1.0 for every x, so n = 0 skips the pow.
    base = [
        (_pow(-2.0 * alpha, n) if n else 1.0) * boys(n, t2)
        for n in range(tmax + umax + vmax + 1)
    ]
    memo: dict[tuple[int, int, int, int], np.ndarray] = {}
    return {
        (t, u, v): _r(memo, base, xyz, 0, t, u, v)
        for t in range(tmax + 1)
        for u in range(umax + 1)
        for v in range(vmax + 1)
    }


def _r(memo: dict, base: list, xyz: tuple, n: int, t: int, u: int, v: int):
    """R^n_{tuv} by the downward recursion on the first nonzero index, memoized.

    A module function rather than a closure: a recursive closure is a
    reference cycle that would keep every memoized array alive until the
    cyclic collector runs.
    """
    if t < 0 or u < 0 or v < 0:
        return 0.0
    key = (n, t, u, v)
    if key in memo:
        return memo[key]
    if t == u == v == 0:
        val = base[n]
    elif t > 0:
        val = (t - 1) * _r(memo, base, xyz, n + 1, t - 2, u, v) + xyz[0] * _r(
            memo, base, xyz, n + 1, t - 1, u, v
        )
    elif u > 0:
        val = (u - 1) * _r(memo, base, xyz, n + 1, t, u - 2, v) + xyz[1] * _r(
            memo, base, xyz, n + 1, t, u - 1, v
        )
    else:
        val = (v - 1) * _r(memo, base, xyz, n + 1, t, u, v - 2) + xyz[2] * _r(
            memo, base, xyz, n + 1, t, u, v - 1
        )
    memo[key] = val
    return val


# ----------------------------------------------------------------------
# Primitive-pair data, batched over contracted pairs of one class
# ----------------------------------------------------------------------
class _PairBatch:
    """Primitive pairs of contracted pairs ``(f1, f2)`` that share ``lmn``s and primitive counts.

    Arrays run over (contracted pair, primitive pair), primitive pairs in
    the scalar loop order (``f1``'s primitive outer).  ``e[d]`` is the
    Hermite table ``E[i, j, t]`` of axis ``d`` with ``j`` up to ``l2 + reach``
    (the kinetic ladder reaches 2 past ``l2``).
    """

    def __init__(self, basis: list[BasisFunction], rows: list[int], cols: list[int], reach: int):
        f1, f2 = basis[rows[0]], basis[cols[0]]
        self.rows, self.cols = np.array(rows), np.array(cols)
        self.lmn1, self.lmn2 = f1.lmn, f2.lmn
        k1, k2 = len(f1.alphas), len(f2.alphas)
        a = np.repeat(np.array([basis[i].alphas for i in rows]), k2, axis=1)
        b = np.tile(np.array([basis[j].alphas for j in cols]), (1, k1))
        c1 = np.repeat(np.array([basis[i].coeffs for i in rows]), k2, axis=1)
        c2 = np.tile(np.array([basis[j].coeffs for j in cols]), (1, k1))
        ra = np.array([basis[i].center for i in rows])[:, None, :]
        rb = np.array([basis[j].center for j in cols])[:, None, :]
        self.b = b
        self.p = a + b
        self.rp = (a[..., None] * ra + b[..., None] * rb) / self.p[..., None]
        self.coeff = c1 * c2
        ab = ra[..., 0, :] - rb[..., 0, :]
        self.e = [
            hermite_e_table(self.lmn1[d], self.lmn2[d] + reach, a, b, ab[:, d : d + 1])
            for d in range(3)
        ]

    def e_row(self, d: int) -> np.ndarray:
        """``E[l1, l2, t]`` for ``t ≤ l1 + l2``, as (pair, primitive, t)."""
        l1, l2 = self.lmn1[d], self.lmn2[d]
        return np.moveaxis(self.e[d][l1, l2, : l1 + l2 + 1], 0, -1)


def _pair_batches(basis: list[BasisFunction], pairs, reach: int = 0) -> list[_PairBatch]:
    """Group ``(i, j)`` pairs by ``lmn`` and primitive counts, keeping their order."""
    groups: dict[tuple, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for i, j in pairs:
        f1, f2 = basis[i], basis[j]
        rows, cols = groups[(f1.lmn, f2.lmn, len(f1.alphas), len(f2.alphas))]
        rows.append(i)
        cols.append(j)
    return [_PairBatch(basis, rows, cols, reach) for rows, cols in groups.values()]


# ----------------------------------------------------------------------
# One-electron matrices
# ----------------------------------------------------------------------
def _contract_pairwise(basis: list[BasisFunction], *prim_fns) -> list[np.ndarray]:
    """One symmetric matrix of contractions per ``prim_fn(batch)`` (primitive
    values), all over one set of pair batches with E tables to the kinetic
    ladder's ``l2 + 2`` (an entry does not depend on the table's extent)."""
    n = len(basis)
    outs = [np.zeros((n, n)) for _ in prim_fns]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for batch in _pair_batches(basis, upper, reach=2):
        for out, prim_fn in zip(outs, prim_fns):
            prims = prim_fn(batch)
            val = np.zeros(len(batch.rows))
            for k in range(prims.shape[1]):
                val = val + batch.coeff[:, k] * prims[:, k]
            out[batch.rows, batch.cols] = val
            out[batch.cols, batch.rows] = val
    return outs


def _e0(batch: _PairBatch, d: int, shift: int = 0):
    """``E[l1, l2 + shift, 0]`` of axis ``d``; 0.0 below ``l2 + shift = 0``."""
    l2 = batch.lmn2[d] + shift
    if l2 < 0:
        return 0.0
    return batch.e[d][batch.lmn1[d], l2, 0]


def _overlap_prims(batch: _PairBatch) -> np.ndarray:
    out = _pow(math.pi / batch.p, 1.5)
    for d in range(3):
        out = out * _e0(batch, d)
    return out


def _kinetic_prims(batch: _PairBatch) -> np.ndarray:
    """⟨g1| -∇²/2 |g2⟩ via the 1D-overlap ladder formula."""
    b = batch.b
    pref = _pow(math.pi / batch.p, 1.5)
    dims = []
    for d in range(3):
        l2 = batch.lmn2[d]
        dims.append(
            -2.0 * b * b * _e0(batch, d, 2)
            + b * (2 * l2 + 1) * _e0(batch, d)
            - 0.5 * l2 * (l2 - 1) * _e0(batch, d, -2)
        )
    s = [_e0(batch, d) for d in range(3)]
    return pref * (dims[0] * s[1] * s[2] + s[0] * dims[1] * s[2] + s[0] * s[1] * dims[2])


def _nuclear_prims(atoms: list[tuple[int, np.ndarray]]):
    """Primitive values of ``-Σ_C Z_C ⟨g1| 1/|r-C| |g2⟩`` per batch."""
    charges = [z for z, _ in atoms]
    centers = np.array([np.asarray(rc, dtype=float) for _, rc in atoms]).reshape(-1, 3)

    def prims(batch: _PairBatch) -> np.ndarray:
        ex, ey, ez = (batch.e_row(d)[:, :, None, :] for d in range(3))
        tmax, umax, vmax = ex.shape[-1] - 1, ey.shape[-1] - 1, ez.shape[-1] - 1
        n_pairs, n_prims = batch.p.shape
        out = np.empty((n_pairs, n_prims))
        step = max(1, _CHUNK // (n_prims * max(1, len(charges))))
        for lo in range(0, n_pairs, step):
            sl = slice(lo, lo + step)
            p = batch.p[sl][..., None]
            rpc = batch.rp[sl][:, :, None, :] - centers
            rt = _hermite_r(tmax, umax, vmax, p, rpc)
            total = 0.0
            for t in range(tmax + 1):
                for u in range(umax + 1):
                    for v in range(vmax + 1):
                        total += ex[sl, ..., t] * ey[sl, ..., u] * ez[sl, ..., v] * rt[(t, u, v)]
            nuc = 2.0 * math.pi / p * total
            # The scalar ``sum`` over nuclei starts from 0 and adds in order.
            prim = 0.0
            for c, z in enumerate(charges):
                prim = prim + -z * nuc[..., c]
            out[sl] = prim
        return out

    return prims


def overlap_matrix(basis: list[BasisFunction]) -> np.ndarray:
    return _contract_pairwise(basis, _overlap_prims)[0]


def kinetic_matrix(basis: list[BasisFunction]) -> np.ndarray:
    return _contract_pairwise(basis, _kinetic_prims)[0]


def nuclear_attraction_matrix(
    basis: list[BasisFunction], atoms: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    """``V_{μν} = -Σ_C Z_C ⟨μ| 1/|r-C| |ν⟩``; atoms are (Z, coords-Bohr)."""
    return _contract_pairwise(basis, _nuclear_prims(atoms))[0]


def core_hamiltonian(
    basis: list[BasisFunction], atoms: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    t, v = _contract_pairwise(basis, _kinetic_prims, _nuclear_prims(atoms))
    return t + v


def overlap_and_core(
    basis: list[BasisFunction], atoms: list[tuple[int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """``(overlap_matrix, core_hamiltonian)`` from one set of pair batches."""
    s, t, v = _contract_pairwise(basis, _overlap_prims, _kinetic_prims, _nuclear_prims(atoms))
    return s, t + v


def nuclear_repulsion(atoms: list[tuple[int, np.ndarray]]) -> float:
    e = 0.0
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            zi, ri = atoms[i]
            zj, rj = atoms[j]
            e += zi * zj / float(np.linalg.norm(np.asarray(ri) - np.asarray(rj)))
    return e


# ----------------------------------------------------------------------
# Two-electron integrals
# ----------------------------------------------------------------------
_ERI_PREF = 2.0 * math.pi**2.5


class _EriClass:
    """Contracted pairs with one Hermite extent ``(tmax, umax, vmax)`` and primitive count."""

    def __init__(self, batches: list[_PairBatch]):
        # Position of pair (i, j), j ≤ i, in the sorted pair list.
        self.pos = np.concatenate([b.rows * (b.rows + 1) // 2 + b.cols for b in batches])
        self.p = np.concatenate([b.p for b in batches])
        self.rp = np.concatenate([b.rp for b in batches])
        self.coeff = np.concatenate([b.coeff for b in batches])
        self.e = [np.concatenate([b.e_row(d) for b in batches]) for d in range(3)]
        self.ext = tuple(e.shape[-1] - 1 for e in self.e)


def _eri_quartets(bra: _EriClass, ket: _EriClass, ib, ik) -> np.ndarray:
    """(ab|cd) for bra pairs ``ib`` of ``bra`` against ket pairs ``ik`` of ``ket``."""
    out = np.empty(len(ib))
    kb, kk = bra.p.shape[1], ket.p.shape[1]
    step = max(1, _CHUNK // (kb * kk))
    tmax, umax, vmax = bra.ext
    tk, uk, vk = ket.ext
    for lo in range(0, len(ib), step):
        b, k = ib[lo : lo + step], ik[lo : lo + step]
        p, q = bra.p[b][:, :, None], ket.p[k][:, None, :]
        alpha = p * q / (p + q)
        rpc = bra.rp[b][:, :, None, :] - ket.rp[k][:, None, :, :]
        rt = _hermite_r(tmax + tk, umax + uk, vmax + vk, alpha, rpc)
        pref = (
            _ERI_PREF
            / (p * q * np.sqrt(p + q))
            * bra.coeff[b][:, :, None]
            * ket.coeff[k][:, None, :]
        )
        bx, by, bz = (e[b][:, :, None, :] for e in bra.e)
        kx, ky, kz = (e[k][:, None, :, :] for e in ket.e)
        kets = [
            (tt, uu, vv, e_ket, e_ket != 0.0, -1.0 if (tt + uu + vv) % 2 else 1.0)
            for tt in range(tk + 1)
            for uu in range(uk + 1)
            for vv in range(vk + 1)
            for e_ket in [kx[..., tt] * ky[..., uu] * kz[..., vv]]
        ]
        acc = np.zeros(alpha.shape)
        for t in range(tmax + 1):
            for u in range(umax + 1):
                for v in range(vmax + 1):
                    e_bra = bx[..., t] * by[..., u] * bz[..., v]
                    live_bra = e_bra != 0.0
                    for tt, uu, vv, e_ket, live_ket, sign in kets:
                        term = e_bra * e_ket * sign * rt[(t + tt, u + uu, v + vv)]
                        # The scalar loop skips zero E products; adding their
                        # ±0 term would turn an acc of -0.0 into +0.0.
                        acc = np.where(live_bra & live_ket, acc + term, acc)
        total = np.zeros(len(b))
        for i in range(kb):
            for j in range(kk):
                total = total + pref[:, i, j] * acc[:, i, j]
        out[lo : lo + step] = total
    return out


def eri_tensor(basis: list[BasisFunction], screen: float = 1e-12) -> np.ndarray:
    """Chemist-notation two-electron tensor ``(μν|λσ)`` with 8-fold symmetry.

    Uses precomputed Hermite pair expansions and Cauchy–Schwarz screening
    ``|(μν|λσ)| ≤ sqrt((μν|μν)·(λσ|λσ))``.
    """
    n = len(basis)
    pair_keys = [(i, j) for i in range(n) for j in range(i + 1)]
    by_ext: dict[tuple, list[_PairBatch]] = defaultdict(list)
    for batch in _pair_batches(basis, pair_keys):
        ext = tuple(batch.lmn1[d] + batch.lmn2[d] for d in range(3))
        by_ext[ext + (batch.p.shape[1],)].append(batch)
    classes = [_EriClass(batches) for batches in by_ext.values()]
    n_pairs = len(pair_keys)
    cls_of = np.empty(n_pairs, dtype=np.intp)
    row_of = np.empty(n_pairs, dtype=np.intp)
    for c, ec in enumerate(classes):
        cls_of[ec.pos] = c
        row_of[ec.pos] = np.arange(len(ec.pos))
    # Schwarz bounds per pair, from the diagonal quartets.
    diag = np.empty(n_pairs)
    for ec in classes:
        rows = np.arange(len(ec.pos))
        diag[ec.pos] = _eri_quartets(ec, ec, rows, rows)
    schwarz = np.sqrt(np.abs(diag))
    bra, ket = np.tril_indices(n_pairs)
    # Written as the scalar ``if bound < screen: continue``, so a NaN bound is kept.
    keep = ~(schwarz[bra] * schwarz[ket] < screen)
    bra, ket = bra[keep], ket[keep]
    vals = np.empty(len(bra))
    on_diag = bra == ket
    vals[on_diag] = diag[bra[on_diag]]
    off = np.flatnonzero(~on_diag)
    group = cls_of[bra[off]] * len(classes) + cls_of[ket[off]]
    for g in np.unique(group):
        sel = off[group == g]
        cb, ck = divmod(int(g), len(classes))
        vals[sel] = _eri_quartets(classes[cb], classes[ck], row_of[bra[sel]], row_of[ket[sel]])
    keys = np.array(pair_keys, dtype=np.intp).reshape(-1, 2)
    i, j = keys[bra, 0], keys[bra, 1]
    k, m = keys[ket, 0], keys[ket, 1]
    eri = np.zeros((n, n, n, n))
    for p, q in ((i, j), (j, i)):
        for r, s in ((k, m), (m, k)):
            eri[p, q, r, s] = vals
            eri[r, s, p, q] = vals
    return eri
