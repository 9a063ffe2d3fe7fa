"""Tests for measurement error mitigation."""

import numpy as np
import pytest

from repro.exceptions import MitigationError
from repro.mitigation import MeasurementMitigator
from repro.simulators import apply_readout_error


class TestMeasurementMitigator:
    def test_requires_confusion_matrices(self):
        with pytest.raises(MitigationError):
            MeasurementMitigator([])

    def test_rejects_non_stochastic_matrices(self):
        with pytest.raises(MitigationError):
            MeasurementMitigator([np.array([[0.9, 0.3], [0.2, 0.7]])])

    def test_rejects_wrong_shape(self):
        with pytest.raises(MitigationError):
            MeasurementMitigator([np.eye(4)])

    def test_from_device(self, device):
        mitigator = MeasurementMitigator.from_device(device, [0, 1, 2])
        assert mitigator.num_qubits == 3
        assert np.allclose(mitigator.confusions[0], device.readout_confusion_matrix(0))

    def test_inverts_readout_distortion_exactly(self, device):
        confusions = [device.readout_confusion_matrix(q) for q in (0, 1)]
        true = np.array([0.5, 0.0, 0.1, 0.4])
        distorted = apply_readout_error(true, confusions)
        recovered = MeasurementMitigator(confusions).mitigate_probabilities(distorted)
        assert np.allclose(recovered, true, atol=1e-9)

    def test_mitigate_counts_returns_quasi_counts(self, device):
        mitigator = MeasurementMitigator.from_device(device, [0])
        counts = {"0": 950, "1": 50}
        mitigated = mitigator.mitigate_counts(counts)
        assert sum(mitigated.values()) == pytest.approx(1000, rel=1e-6)
        assert mitigated["0"] > 950

    def test_clipping_keeps_distribution_normalised(self):
        confusion = np.array([[0.95, 0.1], [0.05, 0.9]])
        mitigator = MeasurementMitigator([confusion])
        # A distribution more extreme than the confusion allows -> negative raw inverse.
        mitigated = mitigator.mitigate_probabilities(np.array([1.0, 0.0]))
        assert mitigated.sum() == pytest.approx(1.0)
        assert (mitigated >= 0).all()

    def test_wrong_distribution_length(self, device):
        mitigator = MeasurementMitigator.from_device(device, [0, 1])
        with pytest.raises(MitigationError):
            mitigator.mitigate_probabilities(np.array([1.0, 0.0]))

    def test_from_calibration_counts(self):
        zero_counts = {"00": 920, "01": 40, "10": 38, "11": 2}
        one_counts = [
            {"10": 900, "00": 80, "11": 18, "01": 2},   # qubit 0 prepared in |1>
            {"01": 890, "00": 95, "11": 14, "10": 1},   # qubit 1 prepared in |1>
        ]
        mitigator = MeasurementMitigator.from_calibration_counts(zero_counts, one_counts)
        assert mitigator.num_qubits == 2
        # P(measure 1 | prepared 0) for qubit 0 is roughly (38 + 2) / 1000.
        assert mitigator.confusions[0][1, 0] == pytest.approx(0.04, abs=0.01)
        assert mitigator.confusions[0][1, 1] > 0.9

    def test_from_calibration_counts_wrong_arity(self):
        with pytest.raises(MitigationError):
            MeasurementMitigator.from_calibration_counts({"00": 10}, [{"10": 10}])
