"""Differential tests: engine-batched VQE objectives vs their serial twins.

The contract under test (``docs/algorithms.md``): a batch objective submitted
through the engine's batch path must produce the *same optimization
trajectory* as element-wise evaluation.  At ``shots=None`` (exact noisy
expectation) this is bit-for-bit; with sampling the batched path follows the
engine's content-derived seeding, so repeated batched runs agree bit-for-bit
with each other.
"""

import numpy as np
import pytest

from repro.operators import h2_hamiltonian, tfim_hamiltonian
from repro.optimizers import SPSA, BatchObjective
from repro.circuits import efficient_su2, qaoa_ansatz
from repro.vqe import VQE


@pytest.fixture(scope="module")
def tfim_vqe():
    ansatz = efficient_su2(4, reps=1, entanglement="linear")
    return VQE(ansatz, tfim_hamiltonian(4), seed=3)


class TestIdealBatchObjective:
    def test_protocol(self, tfim_vqe):
        assert isinstance(tfim_vqe.ideal_batch_objective(), BatchObjective)

    def test_matches_serial_objective_bitwise(self, tfim_vqe):
        batch = tfim_vqe.ideal_batch_objective()
        rng = np.random.default_rng(1)
        points = [rng.normal(0, 0.5, tfim_vqe.num_parameters()) for _ in range(4)]
        assert batch.evaluate_batch(points) == [
            tfim_vqe.ideal_objective(point) for point in points
        ]

    def test_call_is_single_point_batch(self, tfim_vqe):
        batch = tfim_vqe.ideal_batch_objective()
        point = np.full(tfim_vqe.num_parameters(), 0.2)
        assert batch(point) == batch.evaluate_batch([point])[0]

    def test_batched_spsa_identical_to_serial_spsa(self, tfim_vqe):
        # The tentpole differential: SPSA driving the BatchObjective must
        # reproduce SPSA driving the plain callable bit for bit.
        batch = tfim_vqe.ideal_batch_objective()
        initial = tfim_vqe.initial_point()
        serial = SPSA(maxiter=25, seed=11).minimize(tfim_vqe.ideal_objective, initial)
        batched = SPSA(maxiter=25, seed=11).minimize(batch, initial)
        assert batched.history == serial.history
        assert np.array_equal(batched.optimal_parameters, serial.optimal_parameters)
        assert batched.optimal_value == serial.optimal_value
        assert batched.num_evaluations == serial.num_evaluations


class TestNoisyBatchObjective:
    @pytest.fixture(scope="class")
    def h2_vqe(self):
        ansatz = efficient_su2(4, reps=1, entanglement="linear")
        return VQE(ansatz, h2_hamiltonian(), seed=5)

    def test_exact_batched_spsa_identical_to_serial(self, h2_vqe, device):
        # shots=None: the batched noisy objective equals the serial
        # noisy_objective_factory bit for bit (no sampling, so the stateful
        # vs content-derived rng distinction vanishes) — and therefore so do
        # the SPSA trajectories driving them.
        from repro.engine import NoisyDensityMatrixEngine
        from repro.simulators import NoiseModel

        noise_model = NoiseModel.from_device(device)
        initial = h2_vqe.initial_point()

        engine_a = NoisyDensityMatrixEngine(noise_model, seed=11)
        serial_objective = h2_vqe.noisy_objective_factory(
            device, noise_model=noise_model, shots=None, engine=engine_a
        )
        serial = SPSA(maxiter=4, seed=11).minimize(serial_objective, initial)
        engine_a.close()

        engine_b = NoisyDensityMatrixEngine(noise_model, seed=11)
        batch_objective = h2_vqe.noisy_batch_objective_factory(
            device, noise_model=noise_model, shots=None, engine=engine_b
        )
        batched = SPSA(maxiter=4, seed=11).minimize(batch_objective, initial)
        engine_b.close()

        assert batched.history == serial.history
        assert np.array_equal(batched.optimal_parameters, serial.optimal_parameters)
        assert batched.optimal_value == serial.optimal_value

    def test_sampled_batches_are_reproducible(self, h2_vqe, device):
        # With shots, the batched path draws content-derived samples: the
        # same points through the same seeded engine give identical values,
        # independent of batch shape.
        from repro.engine import NoisyDensityMatrixEngine
        from repro.simulators import NoiseModel

        noise_model = NoiseModel.from_device(device)
        rng = np.random.default_rng(2)
        points = [rng.normal(0, 0.3, h2_vqe.num_parameters()) for _ in range(3)]

        def evaluate(batch_shapes):
            engine = NoisyDensityMatrixEngine(noise_model, seed=11)
            objective = h2_vqe.noisy_batch_objective_factory(
                device, noise_model=noise_model, shots=128, engine=engine
            )
            values = []
            index = 0
            for size in batch_shapes:
                values.extend(objective.evaluate_batch(points[index : index + size]))
                index += size
            engine.close()
            return values

        assert evaluate([3]) == evaluate([1, 2])

    def test_protocol(self, h2_vqe, device):
        objective = h2_vqe.noisy_batch_objective_factory(device, shots=64)
        assert isinstance(objective, BatchObjective)


class TestQAOAWorkload:
    def test_batched_qaoa_matches_serial(self, device):
        from repro.operators import ring_maxcut_hamiltonian

        hamiltonian = ring_maxcut_hamiltonian(4)
        ansatz = qaoa_ansatz(4, [(0, 1), (1, 2), (2, 3), (3, 0)], reps=1)
        vqe = VQE(ansatz, hamiltonian, seed=9)
        batch = vqe.ideal_batch_objective()
        initial = vqe.initial_point()
        serial = SPSA(maxiter=20, seed=9).minimize(vqe.ideal_objective, initial)
        batched = SPSA(maxiter=20, seed=9).minimize(batch, initial)
        assert batched.history == serial.history
        # The optimizer actually makes progress on the MaxCut objective.
        assert batched.optimal_value < batch(initial)
