"""Benchmark Hamiltonian generators (paper §V-A)."""

from .hubbard import fermi_hubbard, hubbard_case, lattice_edges
from .neutrino import collective_neutrino, neutrino_case

__all__ = [
    "fermi_hubbard",
    "hubbard_case",
    "lattice_edges",
    "collective_neutrino",
    "neutrino_case",
]
