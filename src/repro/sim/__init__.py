"""Simulation substrate: statevector engines, noise models, state preparation.

Two dense engines share the same amplitude convention: the scalar
:class:`Statevector` and the vectorized :class:`BatchedStatevector`, which
drives the ``backend="batched"`` noisy-trajectory path (see
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
