"""Scalar noisy trajectories and the per-string expectation loop.

The oracle for :func:`repro.sim.noisy_expectations` and
:meth:`repro.sim.Statevector.expectation`.  One trajectory at a time runs
through a per-gate :class:`~repro.sim.Statevector` loop, drawing its errors
from the generator as it goes, and every energy is a sum over Pauli strings
applied one by one.  The batched engine draws the same noise in another
order, so trajectories differ but the energy distributions agree;
``test_sim_batched.py`` pins this engine to golden values recorded from the
original implementation.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.noisy import EnergyExperiment
from repro.circuits import Circuit, Gate, to_cx_u3, trotter_circuit
from repro.paulis import QubitOperator
from repro.sim import NoiseModel, NoisyResult, Statevector, occupation_state_circuit
from repro.sim.noise import _ONE_QUBIT_PAULIS, _TWO_QUBIT_PAULIS

__all__ = [
    "strings_expectation",
    "scalar_noisy_expectations",
    "scalar_noisy_energy_experiment",
]


def strings_expectation(state: Statevector, op: QubitOperator) -> float:
    """⟨ψ|H|ψ⟩ as a loop over H's Pauli strings."""
    if op.n != state.n:
        raise ValueError("qubit count mismatch")
    total = 0.0 + 0j
    for string, coeff in op.terms():
        phi = state.copy()
        phi.apply_pauli(string)
        total += coeff * np.vdot(state.amplitudes, phi.amplitudes)
    return float(total.real)


def _run_trajectory(
    circuit: Circuit,
    noise: NoiseModel,
    rng: np.random.Generator,
    initial: Statevector,
) -> Statevector:
    """One trajectory through a per-gate loop."""
    state = initial.copy()
    for gate in circuit.gates:
        state.apply(gate)
        if gate.is_two_qubit:
            if noise.p2 > 0 and rng.random() < noise.p2:
                err = _TWO_QUBIT_PAULIS[rng.integers(len(_TWO_QUBIT_PAULIS))]
                for name, q in zip(err, gate.qubits):
                    if name != "i":
                        state.apply(Gate(name, (q,)))
        elif noise.p1 > 0 and rng.random() < noise.p1:
            err = _ONE_QUBIT_PAULIS[rng.integers(3)]
            state.apply(Gate(err, gate.qubits))
    return state


def scalar_noisy_expectations(
    circuit: Circuit,
    observable: QubitOperator,
    noise: NoiseModel,
    shots: int = 1000,
    seed: int = 0,
    initial: Statevector | None = None,
) -> NoisyResult:
    """:func:`repro.sim.noisy_expectations` through the per-trajectory loop."""
    noise.validate()
    if initial is None:
        initial = Statevector(circuit.n_qubits)
    rng = np.random.default_rng(seed)
    ideal = initial.copy().apply_circuit(circuit)
    noiseless = strings_expectation(ideal, observable)
    energies = np.empty(shots)
    for s in range(shots):
        state = _run_trajectory(circuit, noise, rng, initial)
        energies[s] = strings_expectation(state, observable)
    return NoisyResult(energies=energies, noiseless=noiseless)


def scalar_noisy_energy_experiment(
    case,
    mapping,
    noise: NoiseModel,
    shots: int = 1000,
    trotter_time: float = 0.1,
    seed: int = 0,
) -> EnergyExperiment:
    """:func:`repro.analysis.noisy_energy_experiment` (same circuit, same
    protocol) with its trajectories run by :func:`scalar_noisy_expectations`."""
    hq = mapping.map(case.hamiltonian)
    prep = occupation_state_circuit(mapping, case.hf_occupation)
    evolution = trotter_circuit(hq, time=trotter_time)
    circuit = to_cx_u3(prep.compose(evolution))
    result = scalar_noisy_expectations(circuit, hq, noise, shots=shots, seed=seed)
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
