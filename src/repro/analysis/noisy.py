"""Noisy-simulation experiments (paper Figs. 10 and 11).

Protocol: prepare the Hartree–Fock determinant with the mapping-dependent
Pauli-gate circuit, apply one Trotter step of the mapped Hamiltonian,
estimate the system energy over many noisy trajectories, and report bias and
variance against the noiseless value.  Lower-weight mappings produce smaller
circuits and therefore lower bias/variance — the mechanism behind the
paper's Fig. 10 heatmaps and Fig. 11 hardware ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import to_cx_u3, trotter_circuit
from ..mappings import FermionQubitMapping
from ..models.electronic import ElectronicHamiltonian
from ..sim import NoiseModel, NoisyResult, noisy_expectations, occupation_state_circuit

__all__ = ["EnergyExperiment", "noisy_energy_experiment"]


@dataclass
class EnergyExperiment:
    """One cell of a Fig.-10 heatmap / one bar of Fig. 11."""

    mapping: str
    p1: float
    p2: float
    bias: float
    variance: float
    mean: float
    noiseless: float
    cx_count: int


def noisy_energy_experiment(
    case: ElectronicHamiltonian,
    mapping: FermionQubitMapping,
    noise: NoiseModel,
    shots: int = 1000,
    trotter_time: float = 0.1,
    seed: int = 0,
    backend: str = "batched",
    chunk: int | None = None,
) -> EnergyExperiment:
    """Run the paper's noisy-energy protocol for one mapping and noise point.

    ``backend``/``chunk`` are forwarded to
    :func:`repro.sim.noisy_expectations`: ``"batched"`` (default) runs the
    vectorized trajectory engine with bounded-memory chunking, ``"scalar"``
    the bit-identical per-trajectory reference.
    """
    hq = mapping.map(case.hamiltonian)
    prep = occupation_state_circuit(mapping, case.hf_occupation)
    evolution = trotter_circuit(hq, time=trotter_time)
    circuit = to_cx_u3(prep.compose(evolution))
    result: NoisyResult = noisy_expectations(
        circuit, hq, noise, shots=shots, seed=seed, backend=backend, chunk=chunk
    )
    return EnergyExperiment(
        mapping=mapping.name,
        p1=noise.p1,
        p2=noise.p2,
        bias=result.bias,
        variance=result.variance,
        mean=result.mean,
        noiseless=result.noiseless,
        cx_count=circuit.cx_count,
    )
