"""Ideal and noisy simulators, noise channels and noise models."""

from .channels import (
    amplitude_damping_kraus,
    bit_flip_kraus,
    coherent_z_kraus,
    coherent_zz_kraus,
    compose_channels,
    depolarizing_kraus,
    identity_kraus,
    is_valid_channel,
    kraus_from_superop,
    phase_damping_kraus,
    superop_from_kraus,
    thermal_relaxation_kraus,
)
from .density_matrix import DensityMatrix
from .noise_model import ChannelOp, NoiseModel
from .noisy_simulator import NoisySimulator
from .ptm import (
    PauliVectorState,
    PTMEvolver,
    kraus_to_ptm,
    pauli_basis,
    superop_to_ptm,
    unitary_to_ptm,
)
from .readout import (
    apply_readout_error,
    counts_to_probabilities,
    probabilities_to_counts,
    tensor_confusion_matrix,
)
from .statevector import StatevectorSimulator

__all__ = [
    "StatevectorSimulator",
    "DensityMatrix",
    "NoisySimulator",
    "NoiseModel",
    "ChannelOp",
    "identity_kraus",
    "amplitude_damping_kraus",
    "phase_damping_kraus",
    "thermal_relaxation_kraus",
    "depolarizing_kraus",
    "coherent_z_kraus",
    "coherent_zz_kraus",
    "bit_flip_kraus",
    "compose_channels",
    "superop_from_kraus",
    "kraus_from_superop",
    "is_valid_channel",
    "PauliVectorState",
    "PTMEvolver",
    "pauli_basis",
    "unitary_to_ptm",
    "kraus_to_ptm",
    "superop_to_ptm",
    "apply_readout_error",
    "tensor_confusion_matrix",
    "probabilities_to_counts",
    "counts_to_probabilities",
]
