"""Shared fixtures for the test-suite.

Fixtures are deliberately small (2-4 qubit circuits, the 7-qubit Casablanca
model) so the whole suite stays fast; the heavier end-to-end paths are
exercised once in the integration tests with reduced tuning budgets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backends import fake_casablanca
from repro.circuits import QuantumCircuit, efficient_su2
from repro.operators import tfim_hamiltonian
from repro.simulators import NoiseModel
from repro.transpiler import transpile


@pytest.fixture(scope="session")
def device():
    """A deterministic 7-qubit Casablanca-like device."""
    return fake_casablanca()


@pytest.fixture(scope="session")
def calibration_noise(device):
    return NoiseModel.from_calibration(device)


@pytest.fixture(scope="session")
def device_noise(device):
    return NoiseModel.from_device(device)


@pytest.fixture(scope="session")
def ideal_noise(device):
    return NoiseModel.ideal(device)


@pytest.fixture
def bell():
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def bound_su2_4q():
    """A 4-qubit SU2 ansatz with reproducible bound angles."""
    ansatz = efficient_su2(4, reps=2, entanglement="circular")
    rng = np.random.default_rng(42)
    return ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))


@pytest.fixture(scope="session")
def tfim4():
    return tfim_hamiltonian(4)


@pytest.fixture(scope="session")
def scheduled_su2_4q(device):
    """A transpiled, scheduled 4-qubit SU2 circuit with measurements."""
    ansatz = efficient_su2(4, reps=2, entanglement="circular")
    rng = np.random.default_rng(7)
    bound = ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))
    bound.measure_all()
    return transpile(bound, device)


@pytest.fixture(scope="session")
def sequential_objective():
    """The window tuner's sequential reference objective.

    ``sequential_objective(estimator, hamiltonian)`` evaluates each schedule
    with its own :meth:`ExpectationEstimator.estimate` call.
    """

    def make(estimator, hamiltonian):
        def objective(schedules):
            return [estimator.estimate(s, hamiltonian).value for s in schedules]

        return objective

    return make


@pytest.fixture(scope="session")
def blocking_batch_objective():
    """The window tuner fed by the estimator's blocking batch path.

    ``blocking_batch_objective(estimator, hamiltonian)`` evaluates each
    candidate batch with one :meth:`ExpectationEstimator.estimate_batch` call.
    """

    def make(estimator, hamiltonian):
        def objective(schedules):
            return [r.value for r in estimator.estimate_batch(schedules, hamiltonian)]

        return objective

    return make
