"""Scalar McMurchie–Davidson integrals: the test oracle for :mod:`repro.chem.integrals`.

This is the pure-Python engine the batched NumPy kernels replaced, kept
unchanged: one primitive pair (or quartet) at a time, the Hermite Coulomb
tensor as a memoized recursion over scalars, and one ``boys`` call per
order.  The package kernels run the same operation sequence on arrays, so
their S, T, V and ERIs must equal these bit for bit, sign bits included.

Tests import it as ``from reference.integrals import eri_tensor, ...``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

from repro.chem.basis import BasisFunction

__all__ = [
    "boys",
    "overlap_matrix",
    "kinetic_matrix",
    "nuclear_attraction_matrix",
    "eri_tensor",
    "core_hamiltonian",
    "nuclear_repulsion",
]


def boys(m: int, t: float) -> float:
    """Boys function ``F_m(t) = ∫₀¹ u^{2m} e^{-t u²} du``."""
    if t < 1e-12:
        return 1.0 / (2 * m + 1)
    a = m + 0.5
    # F_m(t) = Γ(a)·P(a, t) / (2 t^a) with P the regularized lower gamma.
    return math.exp(gammaln(a)) * float(gammainc(a, t)) / (2.0 * t**a)


def hermite_e_table(l1: int, l2: int, a: float, b: float, xab: float) -> np.ndarray:
    """E[i, j, t] for i ≤ l1, j ≤ l2, t ≤ i+j (1D McMurchie–Davidson)."""
    p = a + b
    q = a * b / p
    table = np.zeros((l1 + 1, l2 + 1, l1 + l2 + 2))
    table[0, 0, 0] = math.exp(-q * xab * xab)
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


def _e_coeff(l1: int, l2: int, t: int, a: float, b: float, xab: float) -> float:
    if t < 0 or t > l1 + l2:
        return 0.0
    return float(hermite_e_table(l1, l2, a, b, xab)[l1, l2, t])


# ----------------------------------------------------------------------
# Primitive integrals
# ----------------------------------------------------------------------
def _overlap_prim(a, lmn1, ra, b, lmn2, rb) -> float:
    p = a + b
    pref = (math.pi / p) ** 1.5
    out = pref
    for d in range(3):
        out *= _e_coeff(lmn1[d], lmn2[d], 0, a, b, ra[d] - rb[d])
    return out


def _kinetic_prim(a, lmn1, ra, b, lmn2, rb) -> float:
    """⟨g1| -∇²/2 |g2⟩ via the 1D-overlap ladder formula."""

    def s1d(d: int, shift: int) -> float:
        l2 = lmn2[d] + shift
        if l2 < 0:
            return 0.0
        return _e_coeff(lmn1[d], l2, 0, a, b, ra[d] - rb[d])

    pref = (math.pi / (a + b)) ** 1.5
    dims = []
    for d in range(3):
        l2 = lmn2[d]
        term = (
            -2.0 * b * b * s1d(d, 2)
            + b * (2 * l2 + 1) * s1d(d, 0)
            - 0.5 * l2 * (l2 - 1) * s1d(d, -2)
        )
        dims.append(term)
    s = [_e_coeff(lmn1[d], lmn2[d], 0, a, b, ra[d] - rb[d]) for d in range(3)]
    return pref * (dims[0] * s[1] * s[2] + s[0] * dims[1] * s[2] + s[0] * s[1] * dims[2])


def _hermite_r(tmax: int, umax: int, vmax: int, alpha: float, rpc) -> dict:
    """Hermite Coulomb tensor R⁰_{tuv} for all t ≤ tmax, u ≤ umax, v ≤ vmax."""
    t2 = alpha * (rpc[0] ** 2 + rpc[1] ** 2 + rpc[2] ** 2)
    nmax = tmax + umax + vmax
    fm = [boys(m, t2) for m in range(nmax + 1)]
    memo: dict[tuple[int, int, int, int], float] = {}

    def r(n: int, t: int, u: int, v: int) -> float:
        if t < 0 or u < 0 or v < 0:
            return 0.0
        key = (n, t, u, v)
        if key in memo:
            return memo[key]
        if t == u == v == 0:
            val = (-2.0 * alpha) ** n * fm[n]
        elif t > 0:
            val = (t - 1) * r(n + 1, t - 2, u, v) + rpc[0] * r(n + 1, t - 1, u, v)
        elif u > 0:
            val = (u - 1) * r(n + 1, t, u - 2, v) + rpc[1] * r(n + 1, t, u - 1, v)
        else:
            val = (v - 1) * r(n + 1, t, u, v - 2) + rpc[2] * r(n + 1, t, u, v - 1)
        memo[key] = val
        return val

    return {
        (t, u, v): r(0, t, u, v)
        for t in range(tmax + 1)
        for u in range(umax + 1)
        for v in range(vmax + 1)
    }


def _nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc) -> float:
    p = a + b
    rp = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    ex = hermite_e_table(lmn1[0], lmn2[0], a, b, ra[0] - rb[0])[lmn1[0], lmn2[0]]
    ey = hermite_e_table(lmn1[1], lmn2[1], a, b, ra[1] - rb[1])[lmn1[1], lmn2[1]]
    ez = hermite_e_table(lmn1[2], lmn2[2], a, b, ra[2] - rb[2])[lmn1[2], lmn2[2]]
    tmax, umax, vmax = lmn1[0] + lmn2[0], lmn1[1] + lmn2[1], lmn1[2] + lmn2[2]
    rt = _hermite_r(tmax, umax, vmax, p, rp - np.asarray(rc))
    total = 0.0
    for t in range(tmax + 1):
        for u in range(umax + 1):
            for v in range(vmax + 1):
                total += ex[t] * ey[u] * ez[v] * rt[(t, u, v)]
    return 2.0 * math.pi / p * total


# ----------------------------------------------------------------------
# Contracted pair data (shared by nuclear + ERI assembly)
# ----------------------------------------------------------------------
class _PairData:
    """Precomputed per-primitive-pair Hermite expansions of a contraction pair."""

    __slots__ = ("p", "rp", "coeff", "ex", "ey", "ez", "tmax", "umax", "vmax")

    def __init__(self, f1: BasisFunction, f2: BasisFunction):
        self.tmax = f1.lmn[0] + f2.lmn[0]
        self.umax = f1.lmn[1] + f2.lmn[1]
        self.vmax = f1.lmn[2] + f2.lmn[2]
        self.p, self.rp, self.coeff = [], [], []
        self.ex, self.ey, self.ez = [], [], []
        ab = f1.center - f2.center
        for c1, a in zip(f1.coeffs, f1.alphas):
            for c2, b in zip(f2.coeffs, f2.alphas):
                p = a + b
                self.p.append(p)
                self.rp.append((a * f1.center + b * f2.center) / p)
                self.coeff.append(c1 * c2)
                self.ex.append(
                    hermite_e_table(f1.lmn[0], f2.lmn[0], a, b, ab[0])[f1.lmn[0], f2.lmn[0]]
                )
                self.ey.append(
                    hermite_e_table(f1.lmn[1], f2.lmn[1], a, b, ab[1])[f1.lmn[1], f2.lmn[1]]
                )
                self.ez.append(
                    hermite_e_table(f1.lmn[2], f2.lmn[2], a, b, ab[2])[f1.lmn[2], f2.lmn[2]]
                )


def _eri_contracted(bra: _PairData, ket: _PairData) -> float:
    """(ab|cd) assembled from two pair expansions."""
    total = 0.0
    for i in range(len(bra.p)):
        p, rp, cb = bra.p[i], bra.rp[i], bra.coeff[i]
        ext, eyt, ezt = bra.ex[i], bra.ey[i], bra.ez[i]
        for j in range(len(ket.p)):
            q, rq, ck = ket.p[j], ket.rp[j], ket.coeff[j]
            exk, eyk, ezk = ket.ex[j], ket.ey[j], ket.ez[j]
            alpha = p * q / (p + q)
            rt = _hermite_r(
                bra.tmax + ket.tmax,
                bra.umax + ket.umax,
                bra.vmax + ket.vmax,
                alpha,
                rp - rq,
            )
            pref = (
                2.0
                * math.pi**2.5
                / (p * q * math.sqrt(p + q))
                * cb
                * ck
            )
            acc = 0.0
            for t in range(bra.tmax + 1):
                for u in range(bra.umax + 1):
                    for v in range(bra.vmax + 1):
                        e_bra = ext[t] * eyt[u] * ezt[v]
                        if e_bra == 0.0:
                            continue
                        for tt in range(ket.tmax + 1):
                            for uu in range(ket.umax + 1):
                                for vv in range(ket.vmax + 1):
                                    e_ket = exk[tt] * eyk[uu] * ezk[vv]
                                    if e_ket == 0.0:
                                        continue
                                    sign = -1.0 if (tt + uu + vv) % 2 else 1.0
                                    acc += (
                                        e_bra
                                        * e_ket
                                        * sign
                                        * rt[(t + tt, u + uu, v + vv)]
                                    )
            total += pref * acc
    return total


# ----------------------------------------------------------------------
# Public matrix builders
# ----------------------------------------------------------------------
def _contract_pairwise(basis, prim_fn) -> np.ndarray:
    n = len(basis)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            f1, f2 = basis[i], basis[j]
            val = 0.0
            for c1, a in zip(f1.coeffs, f1.alphas):
                for c2, b in zip(f2.coeffs, f2.alphas):
                    val += c1 * c2 * prim_fn(a, f1.lmn, f1.center, b, f2.lmn, f2.center)
            out[i, j] = out[j, i] = val
    return out


def overlap_matrix(basis: list[BasisFunction]) -> np.ndarray:
    return _contract_pairwise(basis, _overlap_prim)


def kinetic_matrix(basis: list[BasisFunction]) -> np.ndarray:
    return _contract_pairwise(basis, _kinetic_prim)


def nuclear_attraction_matrix(
    basis: list[BasisFunction], atoms: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    """``V_{μν} = -Σ_C Z_C ⟨μ| 1/|r-C| |ν⟩``; atoms are (Z, coords-Bohr)."""

    def prim(a, lmn1, ra, b, lmn2, rb):
        return sum(
            -z * _nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc) for z, rc in atoms
        )

    return _contract_pairwise(basis, prim)


def core_hamiltonian(
    basis: list[BasisFunction], atoms: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    return kinetic_matrix(basis) + nuclear_attraction_matrix(basis, atoms)


def nuclear_repulsion(atoms: list[tuple[int, np.ndarray]]) -> float:
    e = 0.0
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            zi, ri = atoms[i]
            zj, rj = atoms[j]
            e += zi * zj / float(np.linalg.norm(np.asarray(ri) - np.asarray(rj)))
    return e


def eri_tensor(basis: list[BasisFunction], screen: float = 1e-12) -> np.ndarray:
    """Chemist-notation two-electron tensor ``(μν|λσ)`` with 8-fold symmetry.

    Uses precomputed Hermite pair expansions and Cauchy–Schwarz screening
    ``|(μν|λσ)| ≤ sqrt((μν|μν)·(λσ|λσ))``.
    """
    n = len(basis)
    pairs = {}
    for i in range(n):
        for j in range(i + 1):
            pairs[(i, j)] = _PairData(basis[i], basis[j])
    # Schwarz bounds per pair.
    schwarz = {
        key: math.sqrt(abs(_eri_contracted(pd, pd))) for key, pd in pairs.items()
    }
    eri = np.zeros((n, n, n, n))
    pair_keys = sorted(pairs)
    for a, (i, j) in enumerate(pair_keys):
        for i2, j2 in pair_keys[: a + 1]:
            if schwarz[(i, j)] * schwarz[(i2, j2)] < screen:
                continue
            val = _eri_contracted(pairs[(i, j)], pairs[(i2, j2)])
            for p, q in ((i, j), (j, i)):
                for r, s in ((i2, j2), (j2, i2)):
                    eri[p, q, r, s] = eri[r, s, p, q] = val
    return eri
