"""Electronic-structure model Hamiltonians (paper §V-A benchmark 1).

    He = Σ_pq h_pq a†_p a_q + ½ Σ_pqrs h_pqrs a†_p a†_q a_r a_s

Pipeline: molecule catalog → RHF (our chem substrate) → MO integrals →
optional frozen-core / active-space reduction → second quantization over
spin orbitals (blocked ordering: all α then all β, matching Qiskit Nature).

Integral computation for the bigger molecules is cached on disk under
``<repo>/.cache/chem`` so repeated benchmark runs are fast.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..chem import (
    active_space_integrals,
    build_basis,
    molecule,
    mo_integrals,
    restricted_hartree_fock,
)
from ..fermion import FermionOperator

__all__ = [
    "fermion_hamiltonian_from_integrals",
    "electronic_case",
    "electronic_case_names",
    "ElectronicHamiltonian",
    "ELECTRONIC_CASES",
]

_CACHE_DIR = Path(
    os.environ.get(
        "REPRO_CACHE_DIR", Path(__file__).resolve().parents[3] / ".cache"
    )
) / "chem"


def fermion_hamiltonian_from_integrals(
    h: np.ndarray,
    eri: np.ndarray,
    constant: float = 0.0,
    tol: float = 1e-10,
) -> FermionOperator:
    """Second-quantize spatial MO integrals over blocked spin orbitals.

    ``h`` is the (effective) one-body matrix, ``eri`` the chemist-notation
    (pq|rs) tensor.  Spin orbital ``p + σ·M`` carries spatial orbital ``p``
    and spin ``σ``.  The two-body part is
    ``½ Σ_pqrs (pq|rs) Σ_στ a†_pσ a†_rτ a_sτ a_qσ``.
    """
    m = h.shape[0]
    op = FermionOperator()
    if constant:
        op.add_term((), constant)
    for p in range(m):
        for q in range(m):
            coeff = h[p, q]
            if abs(coeff) <= tol:
                continue
            for sigma in (0, 1):
                op.add_term(
                    ((p + sigma * m, True), (q + sigma * m, False)), coeff
                )
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    coeff = 0.5 * eri[p, q, r, s]
                    if abs(coeff) <= tol:
                        continue
                    for sigma in (0, 1):
                        for tau in (0, 1):
                            mp = p + sigma * m
                            mq = q + sigma * m
                            mr = r + tau * m
                            ms = s + tau * m
                            if mp == mr or ms == mq:
                                continue  # a†a† / aa on one mode vanish
                            op.add_term(
                                ((mp, True), (mr, True), (ms, False), (mq, False)),
                                coeff,
                            )
    return op


@dataclass
class ElectronicHamiltonian:
    """A paper benchmark case: Hamiltonian plus provenance metadata."""

    name: str
    hamiltonian: FermionOperator
    n_modes: int
    n_electrons: int
    core_energy: float
    scf_energy: float
    scf_converged: bool

    @property
    def hf_occupation(self) -> list[int]:
        """Blocked-ordering spin-orbital indices occupied in the HF state."""
        n_orb = self.n_modes // 2
        pairs = self.n_electrons // 2
        occ = list(range(pairs)) + [n_orb + p for p in range(pairs)]
        if self.n_electrons % 2:
            occ.append(pairs)
        return sorted(occ)


# name -> (molecule, basis, freeze, active orbital list or None)
ELECTRONIC_CASES: dict[str, tuple[str, str, int, list[int] | None]] = {
    "H2_sto3g": ("H2", "sto-3g", 0, None),
    "H2_631g": ("H2", "6-31g", 0, None),
    "LiH_sto3g": ("LiH", "sto-3g", 0, None),
    # Paper's 6-mode LiH frz: freeze the Li 1s core and keep three active
    # orbitals.  The set {σ, π_x, σ*} reproduces the paper's JW Pauli weight
    # of 192 exactly (dropping the LUMO and one π instead gives 188/384).
    "LiH_sto3g_frz": ("LiH", "sto-3g", 1, [1, 3, 5]),
    "NH_sto3g": ("NH", "sto-3g", 0, None),
    "NH_sto3g_frz": ("NH", "sto-3g", 1, None),
    "H2O_sto3g": ("H2O", "sto-3g", 0, None),
    "H2O_sto3g_frz": ("H2O", "sto-3g", 1, None),
    "CH4_sto3g": ("CH4", "sto-3g", 0, None),
    "CH4_sto3g_frz": ("CH4", "sto-3g", 1, None),
    "O2_sto3g": ("O2", "sto-3g", 0, None),
    "O2_sto3g_frz": ("O2", "sto-3g", 2, None),
    "BeH2_sto3g": ("BeH2", "sto-3g", 0, None),
    "BeH2_sto3g_frz": ("BeH2", "sto-3g", 1, None),
    "NaF_sto3g": ("NaF", "sto-3g", 0, None),
    "CO2_sto3g": ("CO2", "sto-3g", 0, None),
}


def electronic_case_names() -> list[str]:
    return list(ELECTRONIC_CASES)


def _load_cached(path: Path):
    """The integral tuple stored at ``path``, or ``None`` if it is missing or unreadable."""
    try:
        # Opened here: ``np.load`` leaks its own handle when the archive is torn.
        with open(path, "rb") as fh, np.load(fh) as data:
            return (
                data["h"],
                data["eri"],
                float(data["core_energy"]),
                int(data["n_electrons"]),
                float(data["scf_energy"]),
                bool(data["converged"]),
            )
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile, zlib.error):
        # Missing, truncated, garbage or a bare .npy (no context manager):
        # a miss, recomputed and rewritten.
        return None


def _save_cached(path: Path, **arrays) -> None:
    """Write ``arrays`` to ``path`` through a temp file, so no reader sees a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _integrals_for_case(name: str):
    """Active-space integrals for a case, with on-disk caching."""
    mol_name, basis_name, freeze, active = ELECTRONIC_CASES[name]
    cache_file = _CACHE_DIR / f"{name}.npz"
    cached = _load_cached(cache_file)
    if cached is not None:
        return cached
    mol = molecule(mol_name)
    basis = build_basis(mol.atoms, basis_name)
    scf = restricted_hartree_fock(basis, mol.charges, mol.n_electrons)
    h_mo, eri_mo = mo_integrals(scf)
    space = active_space_integrals(
        h_mo,
        eri_mo,
        scf.nuclear_repulsion,
        mol.n_electrons,
        freeze=freeze,
        active=active,
    )
    _save_cached(
        cache_file,
        h=space.h,
        eri=space.eri,
        core_energy=space.core_energy,
        n_electrons=space.n_electrons,
        scf_energy=scf.energy,
        converged=scf.converged,
    )
    return (
        space.h,
        space.eri,
        space.core_energy,
        space.n_electrons,
        scf.energy,
        scf.converged,
    )


def case_integrals(name: str):
    """Public integral access: ``(h, eri, core_energy, n_electrons)``.

    The cheap path for callers that need integrals without the
    second-quantized operator — the FCIDUMP exporter and the source
    layer's mode counting both use it.
    """
    if name not in ELECTRONIC_CASES:
        known = ", ".join(ELECTRONIC_CASES)
        raise ValueError(f"unknown electronic case {name!r}; known: {known}")
    h, eri, core_energy, n_electrons, _, _ = _integrals_for_case(name)
    return h, eri, core_energy, n_electrons


def electronic_case(name: str) -> ElectronicHamiltonian:
    """Build a paper electronic-structure benchmark case by name."""
    if name not in ELECTRONIC_CASES:
        known = ", ".join(ELECTRONIC_CASES)
        raise ValueError(f"unknown electronic case {name!r}; known: {known}")
    h, eri, core_energy, n_electrons, scf_energy, converged = _integrals_for_case(name)
    op = fermion_hamiltonian_from_integrals(h, eri, core_energy)
    return ElectronicHamiltonian(
        name=name,
        hamiltonian=op,
        n_modes=2 * h.shape[0],
        n_electrons=n_electrons,
        core_energy=core_energy,
        scf_energy=scf_energy,
        scf_converged=converged,
    )
