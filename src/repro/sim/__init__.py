"""Simulation substrate: statevector engines, noise models, state preparation.

Two dense engines share the same amplitude convention: the single-state
:class:`Statevector` and the vectorized :class:`BatchedStatevector`, which
runs every noisy trajectory of :func:`noisy_expectations` (see
:mod:`repro.sim.batched` for the memory model).
"""

from .batched import BatchedStatevector
from .noise import NoiseModel, NoisyResult, ionq_forte_noise_model, noisy_expectations
from .state_prep import occupation_state_circuit, occupation_statevector
from .statevector import Statevector

__all__ = [
    "Statevector",
    "BatchedStatevector",
    "NoiseModel",
    "NoisyResult",
    "ionq_forte_noise_model",
    "noisy_expectations",
    "occupation_state_circuit",
    "occupation_statevector",
]
