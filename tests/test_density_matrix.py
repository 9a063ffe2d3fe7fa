"""Tests for the density-matrix state representation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import ghz_circuit
from repro.exceptions import SimulationError
from repro.simulators import DensityMatrix, StatevectorSimulator, amplitude_damping_kraus, depolarizing_kraus

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


class TestConstruction:
    def test_initial_state_is_zero(self):
        rho = DensityMatrix(2)
        assert rho.data[0, 0] == 1.0
        assert rho.trace() == pytest.approx(1.0)

    def test_from_statevector(self):
        state = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = DensityMatrix.from_statevector(state)
        assert rho.num_qubits == 2
        assert rho.purity() == pytest.approx(1.0)

    def test_bad_dimensions(self):
        with pytest.raises(SimulationError):
            DensityMatrix(2, data=np.eye(3))
        with pytest.raises(SimulationError):
            DensityMatrix.from_statevector(np.ones(3))
        with pytest.raises(SimulationError):
            DensityMatrix(0)

    def test_copy_is_independent(self):
        rho = DensityMatrix(1)
        copy = rho.copy()
        copy.apply_unitary(_X, (0,))
        assert rho.data[0, 0] == 1.0


class TestEvolution:
    def test_single_qubit_unitary(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(_H, (0,))
        assert rho.probabilities() == pytest.approx([0.5, 0.5])

    def test_unitary_on_selected_qubit(self):
        rho = DensityMatrix(2)
        rho.apply_unitary(_X, (1,))
        assert rho.probabilities() == pytest.approx([0, 1, 0, 0])

    def test_two_qubit_unitary_builds_bell_state(self):
        rho = DensityMatrix(2)
        rho.apply_unitary(_H, (0,))
        rho.apply_unitary(_CX, (0, 1))
        probs = rho.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)
        assert rho.purity() == pytest.approx(1.0)

    def test_matches_statevector_simulator(self):
        circuit = ghz_circuit(3)
        statevector = StatevectorSimulator().run_statevector(circuit)
        rho = DensityMatrix(3)
        for inst in circuit.instructions:
            rho.apply_unitary(inst.gate.matrix(), inst.qubits)
        assert rho.fidelity_with_pure_state(statevector) == pytest.approx(1.0)

    def test_kraus_reduces_purity(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(_H, (0,))
        rho.apply_kraus(depolarizing_kraus(0.2), (0,))
        assert rho.purity() < 1.0
        assert rho.trace() == pytest.approx(1.0)
        assert rho.is_physical()

    def test_amplitude_damping_on_excited_state(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(_X, (0,))
        rho.apply_kraus(amplitude_damping_kraus(0.25), (0,))
        assert rho.probabilities() == pytest.approx([0.25, 0.75])

    def test_operator_dimension_check(self):
        rho = DensityMatrix(2)
        with pytest.raises(SimulationError):
            rho.apply_unitary(_H, (0, 1))

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(0, 0.5, allow_nan=False), angle=st.floats(0, 2 * math.pi, allow_nan=False))
    def test_states_stay_physical_under_noise(self, p, angle):
        rho = DensityMatrix(2)
        ry = np.array(
            [[math.cos(angle / 2), -math.sin(angle / 2)], [math.sin(angle / 2), math.cos(angle / 2)]],
            dtype=complex,
        )
        rho.apply_unitary(ry, (0,))
        rho.apply_unitary(_CX, (0, 1))
        rho.apply_kraus(depolarizing_kraus(p), (0,))
        rho.apply_kraus(amplitude_damping_kraus(p), (1,))
        assert rho.is_physical()
        assert rho.trace() == pytest.approx(1.0)


class TestMeasurement:
    def test_marginal_probabilities_order(self):
        rho = DensityMatrix(2)
        rho.apply_unitary(_X, (1,))  # state |01>
        assert rho.marginal_probabilities([1]) == pytest.approx([0, 1])
        assert rho.marginal_probabilities([0]) == pytest.approx([1, 0])
        assert rho.marginal_probabilities([1, 0]) == pytest.approx([0, 0, 1, 0])

    def test_expectation(self):
        rho = DensityMatrix(1)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert rho.expectation(z) == pytest.approx(1.0)
        rho.apply_unitary(_X, (0,))
        assert rho.expectation(z) == pytest.approx(-1.0)

    def test_expectation_dimension_check(self):
        rho = DensityMatrix(2)
        with pytest.raises(SimulationError):
            rho.expectation(np.eye(2))

    def test_fidelity_with_pure_state(self):
        rho = DensityMatrix(1)
        assert rho.fidelity_with_pure_state([1, 0]) == pytest.approx(1.0)
        assert rho.fidelity_with_pure_state([0, 1]) == pytest.approx(0.0)
