"""Restricted Hartree–Fock with DIIS and damping.

Produces canonical molecular orbitals and MO-basis integrals — the inputs the
paper obtains from PySCF before second quantization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisFunction
from .integrals import eri_tensor, nuclear_repulsion, overlap_and_core

__all__ = ["SCFResult", "restricted_hartree_fock", "mo_integrals"]


@dataclass
class SCFResult:
    """Converged (or best-effort) RHF state."""

    energy: float
    nuclear_repulsion: float
    mo_energies: np.ndarray
    mo_coeffs: np.ndarray  # columns are MOs over the AO basis
    n_electrons: int
    converged: bool
    n_iterations: int
    overlap: np.ndarray
    h_core: np.ndarray
    eri_ao: np.ndarray

    @property
    def n_orbitals(self) -> int:
        return self.mo_coeffs.shape[1]

    @property
    def electronic_energy(self) -> float:
        return self.energy - self.nuclear_repulsion


def _build_fock(h: np.ndarray, eri: np.ndarray, density: np.ndarray) -> np.ndarray:
    # Coulomb J_mn = (mn|ls) D_ls ; exchange K_mn = (ml|ns) D_ls.
    j = np.einsum("mnls,ls->mn", eri, density, optimize=True)
    k = np.einsum("mlns,ls->mn", eri, density, optimize=True)
    return h + j - 0.5 * k


def restricted_hartree_fock(
    basis: list[BasisFunction],
    atoms: list[tuple[int, np.ndarray]],
    n_electrons: int,
    max_iterations: int = 300,
    tol: float = 1e-9,
    diis_depth: int = 8,
    damping: float = 0.35,
) -> SCFResult:
    """Closed-shell RHF.  ``n_electrons`` must be even.

    DIIS acceleration with density damping during the first iterations; open
    π-shell cases (e.g. O2 forced closed-shell) may stop at ``max_iterations``
    with ``converged=False`` — the returned orbitals are still a well-defined
    Hermitian mean-field reference, which is all the mapping experiments need.
    """
    if n_electrons % 2 != 0:
        raise ValueError("restricted HF needs an even electron count")
    n_occ = n_electrons // 2
    if n_occ > len(basis):
        raise ValueError("more electron pairs than basis functions")

    s, h = overlap_and_core(basis, atoms)
    eri = eri_tensor(basis)
    e_nuc = nuclear_repulsion(atoms)

    # Symmetric orthogonalization with small-eigenvalue cutoff.
    evals, evecs = np.linalg.eigh(s)
    keep = evals > 1e-10
    x = evecs[:, keep] / np.sqrt(evals[keep])

    def diagonalize(f: np.ndarray):
        f_ortho = x.T @ f @ x
        eps, c_ortho = np.linalg.eigh(f_ortho)
        return eps, _align_degenerate_orbitals(x @ c_ortho, eps)

    eps, c = diagonalize(h)
    density = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T

    fock_history: list[np.ndarray] = []
    error_history: list[np.ndarray] = []
    energy = 0.0
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        fock = _build_fock(h, eri, density)
        # DIIS extrapolation on the commutator residual.
        error = fock @ density @ s - s @ density @ fock
        fock_history.append(fock)
        error_history.append(error)
        if len(fock_history) > diis_depth:
            fock_history.pop(0)
            error_history.pop(0)
        if len(fock_history) > 1:
            m = len(fock_history)
            b = -np.ones((m + 1, m + 1))
            b[m, m] = 0.0
            for i in range(m):
                for j in range(m):
                    b[i, j] = np.vdot(error_history[i], error_history[j])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            try:
                weights = np.linalg.solve(b, rhs)[:m]
                fock = sum(w * f for w, f in zip(weights, fock_history))
            except np.linalg.LinAlgError:
                pass

        eps, c = diagonalize(fock)
        new_density = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        if iteration <= 15 and damping > 0:
            new_density = (1 - damping) * new_density + damping * density

        new_energy = 0.5 * np.sum(new_density * (h + _build_fock(h, eri, new_density)))
        delta_e = abs(new_energy - energy)
        delta_d = float(np.max(np.abs(new_density - density)))
        density, energy = new_density, new_energy
        if delta_e < tol and delta_d < _density_tol(tol):
            converged = True
            break

    return SCFResult(
        energy=float(energy + e_nuc),
        nuclear_repulsion=float(e_nuc),
        mo_energies=eps,
        mo_coeffs=c,
        n_electrons=n_electrons,
        converged=converged,
        n_iterations=iteration,
        overlap=s,
        h_core=h,
        eri_ao=eri,
    )


def _density_tol(tol: float) -> float:
    """Density-matrix convergence threshold paired with an energy tolerance."""
    return max(tol**0.5, 1e-7)


def _align_degenerate_orbitals(
    c: np.ndarray, eps: np.ndarray, degeneracy_tol: float = 1e-6
) -> np.ndarray:
    """Fix the arbitrary rotation inside degenerate MO blocks.

    ``eigh`` returns a random orthogonal mixture within each degenerate
    eigenspace (e.g. π orbitals of O2/CO2, t2 of CH4); that mixture densifies
    the MO two-electron integrals and inflates every mapping's Pauli weight.
    Jacobi sweeps maximizing the quartic coefficient sum Σ_μi C_μi⁴ rotate
    each block back onto symmetry axes (the PySCF-canonical orientation),
    restoring the integral sparsity the paper's Hamiltonians have.
    """
    c = c.copy()
    n = len(eps)
    start = 0
    while start < n:
        end = start + 1
        while end < n and abs(eps[end] - eps[start]) < degeneracy_tol:
            end += 1
        block = list(range(start, end))
        if len(block) > 1:
            for _ in range(50):  # Jacobi sweeps to convergence
                improved = False
                for ai in range(len(block)):
                    for bi in range(ai + 1, len(block)):
                        i, j = block[ai], block[bi]
                        ci, cj = c[:, i], c[:, j]
                        thetas = np.linspace(0.0, np.pi / 2, 181, endpoint=False)
                        cos, sin = np.cos(thetas), np.sin(thetas)
                        u = cos[:, None] * ci + sin[:, None] * cj
                        v = -sin[:, None] * ci + cos[:, None] * cj
                        scores = (u**4).sum(axis=1) + (v**4).sum(axis=1)
                        best = int(np.argmax(scores))
                        if best != 0 and scores[best] > scores[0] + 1e-12:
                            c[:, i], c[:, j] = u[best], v[best]
                            improved = True
                if not improved:
                    break
        start = end
    # Deterministic sign convention: largest-magnitude coefficient positive.
    for k in range(n):
        pivot = np.argmax(np.abs(c[:, k]))
        if c[pivot, k] < 0:
            c[:, k] = -c[:, k]
    return c


def mo_integrals(result: SCFResult) -> tuple[np.ndarray, np.ndarray]:
    """Transform core Hamiltonian and ERIs to the MO basis.

    Returns ``(h_mo, eri_mo)`` with ``eri_mo`` in chemist notation (pq|rs).
    """
    c = result.mo_coeffs
    h_mo = c.T @ result.h_core @ c
    eri = result.eri_ao
    # Four quarter-transformations, O(N^5).
    eri = np.einsum("mp,mnls->pnls", c, eri, optimize=True)
    eri = np.einsum("nq,pnls->pqls", c, eri, optimize=True)
    eri = np.einsum("lr,pqls->pqrs", c, eri, optimize=True)
    eri = np.einsum("st,pqrs->pqrt", c, eri, optimize=True)
    return h_mo, eri
