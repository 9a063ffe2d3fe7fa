"""Tests for the soundness properties (paper §V) and the fidelity metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReproError, VAQEMError
from repro.metrics import geometric_mean, hellinger_distance, hellinger_fidelity
from repro.operators import tfim_hamiltonian
from repro.simulators import DensityMatrix, depolarizing_kraus
from repro.vaqem import (
    check_energy_soundness,
    energy_gap_to_optimal,
    mixed_state_energy_bound,
    pure_state_energy_bound,
)


def _random_state(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


class TestSoundness:
    def test_ground_state_saturates_property_one(self, tfim4):
        _, ground_state = tfim4.ground_state()
        assert pure_state_energy_bound(tfim4, ground_state)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_one_for_random_pure_states(self, seed):
        ham = tfim_hamiltonian(3)
        state = _random_state(np.random.default_rng(seed), 8)
        assert pure_state_energy_bound(ham, state)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), error=st.floats(0, 0.5, allow_nan=False))
    def test_property_two_for_random_mixed_states(self, seed, error):
        ham = tfim_hamiltonian(2)
        rho = DensityMatrix.from_statevector(_random_state(np.random.default_rng(seed), 4))
        rho.apply_kraus(depolarizing_kraus(error), (0,))
        rho.apply_kraus(depolarizing_kraus(error / 2), (1,))
        assert mixed_state_energy_bound(ham, rho)

    def test_maximally_mixed_state_respects_bound(self, tfim4):
        rho = np.eye(16) / 16.0
        assert mixed_state_energy_bound(tfim4, rho)

    def test_check_energy_soundness_passes_above_bound(self, tfim4):
        check_energy_soundness(tfim4.ground_energy() + 0.5, tfim4)

    def test_check_energy_soundness_raises_below_bound(self, tfim4):
        with pytest.raises(VAQEMError):
            check_energy_soundness(tfim4.ground_energy() - 1.0, tfim4, context="unit-test")

    def test_energy_gap(self, tfim4):
        assert energy_gap_to_optimal(tfim4.ground_energy() + 0.3, tfim4) == pytest.approx(0.3)


class TestHellinger:
    def test_identical_distributions(self):
        dist = {"00": 0.5, "11": 0.5}
        assert hellinger_distance(dist, dist) == pytest.approx(0.0)
        assert hellinger_fidelity(dist, dist) == pytest.approx(1.0)

    def test_disjoint_distributions(self):
        assert hellinger_fidelity({"00": 1.0}, {"11": 1.0}) == pytest.approx(0.0)
        assert hellinger_distance({"00": 1.0}, {"11": 1.0}) == pytest.approx(1.0)

    def test_counts_and_arrays_accepted(self):
        counts = {"0": 512, "1": 512}
        array = np.array([0.5, 0.5])
        assert hellinger_fidelity(counts, array) == pytest.approx(1.0)

    def test_known_value(self):
        # H^2 = 1 - (sqrt(0.5*1.0)) for p={0:0.5,1:0.5}, q={0:1}.
        fidelity = hellinger_fidelity({"0": 0.5, "1": 0.5}, {"0": 1.0})
        assert fidelity == pytest.approx((math.sqrt(0.5)) ** 2, abs=1e-12)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ReproError):
            hellinger_fidelity({}, {"0": 1.0})

    def test_non_power_of_two_array_rejected(self):
        with pytest.raises(ReproError):
            hellinger_fidelity(np.array([0.3, 0.3, 0.4]), np.array([1.0, 0.0]))

    @settings(max_examples=30, deadline=None)
    @given(p=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           q=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    def test_fidelity_bounds_and_symmetry(self, p, q):
        p = np.array(p) / sum(p)
        q = np.array(q) / sum(q)
        fidelity = hellinger_fidelity(p, q)
        assert 0.0 <= fidelity <= 1.0 + 1e-9
        assert fidelity == pytest.approx(hellinger_fidelity(q, p))


class TestOtherMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.19, 2.19]) == pytest.approx(2.19)

    def test_geometric_mean_requires_positive_values(self):
        with pytest.raises(ReproError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(ReproError):
            geometric_mean([])
