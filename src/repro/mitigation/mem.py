"""Measurement error mitigation (MEM).

The paper's baseline applies MEM orthogonally to all configurations: a
calibration stage measures the confusion matrix of the read-out chain (by
preparing and measuring each computational basis state, or — as here —
tensoring the per-qubit confusion matrices) and the inverse of that matrix is
applied to measured count vectors before expectation values are computed.

Both the full-matrix inversion and the scalable tensored (per-qubit) variant
are implemented; for the <= 7 qubit circuits of the evaluation they coincide
because the underlying readout error model is uncorrelated.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..backends.device import DeviceModel
from ..exceptions import MitigationError
from ..simulators.readout import counts_to_probabilities, tensor_confusion_matrix


class MeasurementMitigator:
    """Inverts readout confusion to recover the true outcome distribution."""

    def __init__(self, confusion_matrices: Sequence[np.ndarray]):
        if not confusion_matrices:
            raise MitigationError("at least one confusion matrix is required")
        self.confusions: List[np.ndarray] = [np.asarray(m, dtype=float) for m in confusion_matrices]
        for matrix in self.confusions:
            if matrix.shape != (2, 2):
                raise MitigationError("confusion matrices must be 2x2")
            if not np.allclose(matrix.sum(axis=0), 1.0, atol=1e-6):
                raise MitigationError("confusion matrices must be column stochastic")
        self._inverses = [np.linalg.inv(m) for m in self.confusions]

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_device(cls, device: DeviceModel, physical_qubits: Sequence[int]) -> "MeasurementMitigator":
        """Build the mitigator from the device's calibrated readout errors.

        ``physical_qubits[i]`` is the device qubit measured into classical bit
        ``i`` of the count bitstrings.
        """
        return cls([device.readout_confusion_matrix(q) for q in physical_qubits])

    @classmethod
    def from_calibration_counts(
        cls, zero_counts: Dict[str, int], one_counts_per_qubit: Sequence[Dict[str, int]]
    ) -> "MeasurementMitigator":
        """Build per-qubit confusion matrices from calibration-circuit counts.

        ``zero_counts`` are counts of measuring the all-|0> preparation;
        ``one_counts_per_qubit[i]`` are counts of the preparation with qubit
        ``i`` flipped to |1>.
        """
        num_qubits = len(next(iter(zero_counts)))
        if len(one_counts_per_qubit) != num_qubits:
            raise MitigationError("need one |1>-preparation count set per qubit")
        confusions = []
        zero_probs = counts_to_probabilities(zero_counts, num_qubits)
        for qubit in range(num_qubits):
            p1_given_0 = _marginal_one_probability(zero_probs, qubit, num_qubits)
            one_probs = counts_to_probabilities(one_counts_per_qubit[qubit], num_qubits)
            p1_given_1 = _marginal_one_probability(one_probs, qubit, num_qubits)
            confusions.append(
                np.array(
                    [[1.0 - p1_given_0, 1.0 - p1_given_1], [p1_given_0, p1_given_1]]
                )
            )
        return cls(confusions)

    # -- application ---------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.confusions)

    def full_inverse(self) -> np.ndarray:
        """Inverse of the tensored confusion matrix of the whole register."""
        return np.linalg.inv(tensor_confusion_matrix(self.confusions))

    def mitigate_probabilities(self, probabilities: np.ndarray, clip: bool = True) -> np.ndarray:
        """Apply the inverse confusion matrix to an outcome distribution.

        The raw inverse can produce small negative entries; they are clipped
        to zero and the vector re-normalised (the standard least-disturbance
        correction) unless ``clip`` is disabled.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        expected = 2 ** self.num_qubits
        if probabilities.size != expected:
            raise MitigationError(f"expected a distribution of length {expected}")
        mitigated = self.full_inverse() @ probabilities
        if clip:
            mitigated = np.clip(mitigated, 0.0, None)
            total = mitigated.sum()
            if total <= 0:
                raise MitigationError("mitigation removed all probability mass")
            mitigated = mitigated / total
        return mitigated

    def mitigate_counts(self, counts: Dict[str, int]) -> Dict[str, float]:
        """Apply mitigation to a counts dictionary, returning quasi-counts."""
        probs = counts_to_probabilities(counts, self.num_qubits)
        total = sum(counts.values())
        mitigated = self.mitigate_probabilities(probs)
        out: Dict[str, float] = {}
        for index, value in enumerate(mitigated):
            if value > 1e-12:
                out[format(index, f"0{self.num_qubits}b")] = float(value * total)
        return out


def _marginal_one_probability(probabilities: np.ndarray, qubit: int, num_qubits: int) -> float:
    """P(bit ``qubit`` == 1) of a distribution over ``num_qubits`` bits."""
    total = 0.0
    for index, p in enumerate(probabilities):
        if (index >> (num_qubits - 1 - qubit)) & 1:
            total += p
    return float(min(max(total, 0.0), 1.0))
