"""Noisy circuit simulation: Monte-Carlo depolarizing trajectories.

The paper's noisy experiments (Fig. 10) apply depolarizing errors to single-
and two-qubit gates in Qiskit Aer; the hardware study (Fig. 11) runs on IonQ
Forte 1.  This module reproduces both with stochastic Pauli-twirl
trajectories: after every gate, with the gate-class error probability, a
uniformly random non-identity Pauli error hits the gate's qubits.

The trajectories run on the vectorized
:class:`~repro.sim.batched.BatchedStatevector` engine.  Noise is sampled
vectorially, one ``rng`` draw of shape ``(shots,)`` per noisy gate, errors
land as masked bit-flip/phase multiplications, every gate is applied once
across the whole batch, and energies come from the packed
:class:`~repro.paulis.PauliTable` expectation kernel.  Trajectories are
processed in chunks (``chunk=`` — default sized so the resident amplitude
batch stays around 64 MiB) so memory stays bounded at large shot counts;
because all randomness is drawn *before* chunking, results are exactly
independent of the chunk size.

The per-trajectory Python loop over :class:`~repro.sim.Statevector` is the
test oracle ``tests/reference/noise.py``.  It consumes the seed in a
different draw order, so individual trajectories differ; the energy
distributions agree, which the cross-engine tests assert statistically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from ..paulis import QubitOperator
from .batched import CHUNK_AMPLITUDE_BUDGET, BatchedStatevector
from .statevector import Statevector

__all__ = ["NoiseModel", "ionq_forte_noise_model", "noisy_expectations", "NoisyResult"]

_ONE_QUBIT_PAULIS = ["x", "y", "z"]
_TWO_QUBIT_PAULIS = [
    p for p in itertools.product(["i", "x", "y", "z"], repeat=2) if p != ("i", "i")
]

#: Canonical (x, z) bit pairs per single-qubit error letter.
_LETTER_BITS = {"i": (0, 0), "x": (1, 0), "y": (1, 1), "z": (0, 1)}


@dataclass
class NoiseModel:
    """Depolarizing error rates per gate class."""

    p1: float = 0.0  # single-qubit gate depolarizing probability
    p2: float = 0.0  # two-qubit gate depolarizing probability

    def validate(self) -> None:
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


def ionq_forte_noise_model() -> NoiseModel:
    """IonQ Forte 1 published gate fidelities (paper §V-B5): 99.98% 1q, 98.99% 2q."""
    return NoiseModel(p1=1 - 0.9998, p2=1 - 0.9899)


def _gate_error_masks(gate) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) masks of every non-identity Pauli error on the gate's qubits,
    ordered like the error alphabets above."""
    if gate.is_two_qubit:
        errors = _TWO_QUBIT_PAULIS
        qubits = gate.qubits
    else:
        errors = [(e,) for e in _ONE_QUBIT_PAULIS]
        qubits = gate.qubits
    xs = np.zeros(len(errors), dtype=np.uint64)
    zs = np.zeros(len(errors), dtype=np.uint64)
    for i, err in enumerate(errors):
        x = z = 0
        for name, q in zip(err, qubits):
            xb, zb = _LETTER_BITS[name]
            x |= xb << q
            z |= zb << q
        xs[i] = x
        zs[i] = z
    return xs, zs


def _sample_noise_plan(
    circuit: Circuit, noise: "NoiseModel", rng: np.random.Generator, shots: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Vectorized noise sampling: one ``(shots,)`` uniform draw per noisy gate.

    Returns one entry per circuit gate — ``None`` (no error hit anywhere) or
    ``(rows, x_masks, z_masks)`` giving the trajectories hit after that gate
    and the sampled error Paulis.  Drawing all randomness up front makes the
    chunked execution exactly chunk-size-invariant.
    """
    plan: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = []
    mask_cache: dict[tuple[bool, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}
    for gate in circuit.gates:
        p = noise.p2 if gate.is_two_qubit else noise.p1
        if p <= 0.0:
            plan.append(None)
            continue
        rows = np.flatnonzero(rng.random(shots) < p)
        if rows.size == 0:
            plan.append(None)
            continue
        key = (gate.is_two_qubit, gate.qubits)
        if key not in mask_cache:
            mask_cache[key] = _gate_error_masks(gate)
        xs, zs = mask_cache[key]
        which = rng.integers(len(xs), size=rows.size)
        plan.append((rows, xs[which], zs[which]))
    return plan


def _default_chunk(shots: int, n_qubits: int) -> int:
    return max(1, min(shots, CHUNK_AMPLITUDE_BUDGET >> n_qubits))


def _run_batched(
    circuit: Circuit,
    observable: QubitOperator,
    noise: "NoiseModel",
    rng: np.random.Generator,
    initial: Statevector,
    shots: int,
    chunk: int,
) -> tuple[np.ndarray, float]:
    """All trajectories through the batched engine; returns (energies, noiseless)."""
    table, coeffs = observable.to_table()
    ideal = BatchedStatevector.from_statevector(initial, 1).apply_circuit(circuit)
    noiseless = float(ideal.expectations(table, coeffs)[0])
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        # Every trajectory is the ideal one; the kernel is row-independent, so
        # this equals running the full batch.
        return np.full(shots, noiseless), noiseless
    plan = _sample_noise_plan(circuit, noise, rng, shots)
    energies = np.empty(shots)
    for lo in range(0, shots, chunk):
        hi = min(lo + chunk, shots)
        batch = BatchedStatevector.from_statevector(initial, hi - lo)
        for gate, errors in zip(circuit.gates, plan):
            batch.apply(gate)
            if errors is None:
                continue
            rows, xs, zs = errors
            sel = (rows >= lo) & (rows < hi)
            if sel.any():
                batch.apply_masked_paulis(rows[sel] - lo, xs[sel], zs[sel])
        energies[lo:hi] = batch.expectations(table, coeffs)
    return energies, noiseless


@dataclass
class NoisyResult:
    """Per-trajectory energies and their summary statistics."""

    energies: np.ndarray
    noiseless: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.energies))

    @property
    def bias(self) -> float:
        return float(abs(self.mean - self.noiseless))

    @property
    def variance(self) -> float:
        return float(np.var(self.energies))


def noisy_expectations(
    circuit: Circuit,
    observable: QubitOperator,
    noise: NoiseModel,
    shots: int = 1000,
    seed: int = 0,
    initial: Statevector | None = None,
    chunk: int | None = None,
) -> NoisyResult:
    """Paper-style experiment: ``shots`` noisy trajectories of ``circuit``,
    energy measured per trajectory (exact expectation in place of sampling;
    see DESIGN.md substitutions).  The noiseless value uses the same circuit
    without errors.

    ``shots`` must be at least 1.  ``chunk`` bounds how many trajectories
    the engine holds in memory at once; the default targets ~64 MiB of
    amplitudes and never changes the results (see module docstring).
    """
    noise.validate()
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    if initial is None:
        initial = Statevector(circuit.n_qubits)
    rng = np.random.default_rng(seed)
    energies, noiseless = _run_batched(
        circuit,
        observable,
        noise,
        rng,
        initial,
        shots,
        chunk or _default_chunk(shots, circuit.n_qubits),
    )
    return NoisyResult(energies=energies, noiseless=noiseless)
