"""Tests for the unified execution-engine subsystem (:mod:`repro.engine`).

Covers the engine parity guarantees the architecture promises:

* statevector and density-matrix engines agree on noise-free models,
* ``run_batch`` is order-stable and identical to sequential ``run`` calls,
  including under the content cache and the prefix-reuse fast path,
* the seeding contract (content-derived sampling randomness),
* the gate-matrix cache and the deterministic-counts satellite features,
* the engine-backed frontends (estimator batch path, window tuner batch
  sweeps); that no library caller starts its engine's scheduler is checked
  in ``tests/test_futures.py``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, efficient_su2
from repro.circuits.gates import Gate
from repro.engine import (
    FakeDeviceEngine,
    NoisyDensityMatrixEngine,
    StatevectorEngine,
    circuit_fingerprint,
    schedule_fingerprint,
)
from repro.exceptions import ParameterError
from repro.mitigation import DDConfig, insert_dd_sequences
from repro.mitigation.gate_scheduling import GSConfig, reschedule_gate
from repro.simulators import NoisySimulator, StatevectorSimulator
from repro.transpiler import transpile
from repro.vaqem import IndependentWindowTuner, TuningBudget
from repro.vqe import ExpectationEstimator


@pytest.fixture(scope="module")
def candidate_schedules(device):
    """A transpiled ansatz plus mitigation candidates differing inside windows."""
    ansatz = efficient_su2(4, reps=2, entanglement="circular")
    rng = np.random.default_rng(12)
    bound = ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))
    bound.measure_all()
    compiled = transpile(bound, device)
    schedules = [compiled.scheduled]
    for window in compiled.idle_windows[:4]:
        schedules.append(reschedule_gate(compiled.scheduled, window, GSConfig(0.5)))
        try:
            schedules.append(insert_dd_sequences(compiled.scheduled, window, DDConfig("xy4", 1)))
        except Exception:
            pass
    return compiled, schedules


class TestFingerprints:
    def test_identical_circuits_share_fingerprints(self, bell):
        other = QuantumCircuit(2, name="other")
        other.h(0)
        other.cx(0, 1)
        assert circuit_fingerprint(bell) == circuit_fingerprint(other)

    def test_different_parameters_differ(self):
        a = QuantumCircuit(1)
        a.rx(0.5, 0)
        b = QuantumCircuit(1)
        b.rx(0.6, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_schedule_fingerprint_sensitive_to_content(self, candidate_schedules):
        compiled, schedules = candidate_schedules
        baseline = schedule_fingerprint(compiled.scheduled)
        assert schedule_fingerprint(compiled.scheduled.copy()) == baseline
        window = compiled.idle_windows[0]
        modified = insert_dd_sequences(compiled.scheduled, window, DDConfig("xx", 1))
        assert schedule_fingerprint(modified) != baseline


class TestStatevectorEngine:
    def test_expectation_matches_simulator(self, bound_su2_4q, tfim4):
        engine = StatevectorEngine(seed=3)
        expected = StatevectorSimulator().expectation(bound_su2_4q, tfim4)
        assert engine.expectation(bound_su2_4q, tfim4) == pytest.approx(expected, abs=1e-12)

    def test_state_cache_hits_on_identical_content(self, bound_su2_4q):
        engine = StatevectorEngine()
        first = engine.run(bound_su2_4q)
        second = engine.run(bound_su2_4q.copy())
        assert second.from_cache
        assert np.array_equal(first.state, second.state)

    def test_state_cache_evicts_least_recently_used(self, monkeypatch):
        from repro.engine import statevector_engine

        # Room for two one-qubit states.
        monkeypatch.setattr(statevector_engine, "STATE_CACHE_BYTES", 2 * 32)
        engine = StatevectorEngine()
        circuits = []
        for angle in (0.1, 0.2, 0.3):
            circuit = QuantumCircuit(1)
            circuit.rx(angle, 0)
            circuits.append(circuit)
        for circuit in circuits:
            assert not engine.run(circuit).from_cache
        assert engine.run(circuits[2]).from_cache
        assert not engine.run(circuits[0]).from_cache

    def test_counts_deterministic_under_engine_seed(self, bell):
        bell_measured = bell.copy()
        bell_measured.measure_all()
        a = StatevectorEngine(seed=5).counts(bell_measured, shots=300)
        b = StatevectorEngine(seed=5).counts(bell_measured, shots=300)
        assert a == b
        assert sum(a.values()) == 300

    def test_one_fingerprint_per_expectation_miss_and_counts_call(
        self, monkeypatch, bell, bound_su2_4q, tfim4
    ):
        from repro.engine import statevector_engine

        calls = []

        def counting(circuit):
            calls.append(circuit)
            return circuit_fingerprint(circuit)

        monkeypatch.setattr(statevector_engine, "circuit_fingerprint", counting)
        engine = StatevectorEngine(seed=5)
        engine.expectation(bound_su2_4q, tfim4)
        assert len(calls) == 1
        bell_measured = bell.copy()
        bell_measured.measure_all()
        engine.counts(bell_measured, shots=100)
        assert len(calls) == 2


class TestDensityEngineParity:
    def test_matches_simulator_bit_for_bit(self, device_noise, candidate_schedules):
        _, schedules = candidate_schedules
        # The reference is the raw dense simulator, so the engine must run the
        # dense kernel regardless of REPRO_ENGINE_KERNEL (the PTM kernel only
        # matches to float tolerance; tests/test_ptm_differential.py covers it).
        engine = NoisyDensityMatrixEngine(device_noise, seed=0, kernel="dense")
        simulator = NoisySimulator(device_noise)
        for scheduled in schedules:
            assert np.array_equal(
                engine.density_matrix(scheduled).data, simulator.run(scheduled).data
            )
        assert engine.stats.prefix_resumes > 0
        assert engine.stats.instructions_reused > 0

    def test_statevector_vs_density_on_noise_free_model(self, ideal_noise, bound_su2_4q, tfim4):
        """The two backends must agree when every noise process is disabled."""
        measured = bound_su2_4q.copy()
        measured.measure_all()
        compiled = transpile(measured, ideal_noise.device)
        noisy_value = NoisyDensityMatrixEngine(ideal_noise).expectation(compiled.scheduled, tfim4)
        ideal_value = StatevectorEngine().expectation(bound_su2_4q, tfim4)
        assert noisy_value == pytest.approx(ideal_value, abs=1e-8)

    def test_run_batch_order_stable_and_equals_sequential(self, device_noise, candidate_schedules):
        _, schedules = candidate_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        batch = engine.run_batch(schedules)
        sequential = [NoisyDensityMatrixEngine(device_noise, seed=1).run(s) for s in schedules]
        for batched, single in zip(batch, sequential):
            assert batched.fingerprint == single.fingerprint
            assert np.array_equal(batched.state.data, single.state.data)
            assert np.array_equal(batched.probabilities, single.probabilities)

    def test_batch_identical_under_threads_and_reversal(self, device_noise, candidate_schedules):
        # Four caller threads share one engine: its lock (and, on the PTM
        # kernel, the segment cache's single-flight claims) keep every state
        # bit-identical.
        _, schedules = candidate_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        forward = engine.run_batch(schedules)
        reverse_engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        with ThreadPoolExecutor(max_workers=4) as pool:
            reversed_results = list(pool.map(reverse_engine.run, reversed(schedules)))[::-1]
        for a, b in zip(forward, reversed_results):
            assert np.array_equal(a.state.data, b.state.data)

    def test_result_cache_hit_is_bit_identical(self, device_noise, scheduled_su2_4q):
        engine = NoisyDensityMatrixEngine(device_noise)
        first = engine.run(scheduled_su2_4q.scheduled)
        second = engine.run(scheduled_su2_4q.scheduled.copy())
        assert not first.from_cache and second.from_cache
        assert np.array_equal(first.state.data, second.state.data)

    def test_prefix_reuse_matches_cold_runs(self, device_noise, candidate_schedules):
        _, schedules = candidate_schedules
        warm = NoisyDensityMatrixEngine(device_noise)
        # The cold baseline disables *both* reuse axes (prefix snapshots and
        # segment replay) so it genuinely re-simulates every instruction.
        cold = NoisyDensityMatrixEngine(
            device_noise, enable_prefix_reuse=False, enable_segment_reuse=False
        )
        for scheduled in schedules:
            assert np.array_equal(
                warm.density_matrix(scheduled).data, cold.density_matrix(scheduled).data
            )
        assert warm.stats.instructions_reused > 0
        assert cold.stats.instructions_reused == 0
        assert cold.stats.segment_hits == 0 and cold.stats.segment_misses == 0

    def test_expectation_batch_equals_sequential(self, device_noise, candidate_schedules, tfim4):
        _, schedules = candidate_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=2)
        exact_batch = engine.expectation_batch(schedules, tfim4)
        assert exact_batch == [engine.expectation(s, tfim4) for s in schedules]
        sampled_batch = engine.expectation_batch(schedules, tfim4, shots=512)
        assert sampled_batch == [engine.expectation(s, tfim4, shots=512) for s in schedules]

    def test_unseeded_engine_draws_fresh_entropy(self, device_noise, scheduled_su2_4q):
        scheduled = scheduled_su2_4q.scheduled
        engine = NoisyDensityMatrixEngine(device_noise)  # no seed
        samples = {tuple(sorted(engine.counts(scheduled, shots=64).items())) for _ in range(6)}
        assert len(samples) > 1  # independent draws, not content-frozen

    def test_cache_misses_after_noise_flag_toggle(self, device, scheduled_su2_4q):
        """Toggling the noise model's flags is supported; caches must not
        serve pre-toggle states."""
        from repro.simulators import NoiseModel

        noise = NoiseModel.from_device(device)
        # Pinned dense: the post-toggle reference below is the raw dense
        # simulator compared bit for bit.
        engine = NoisyDensityMatrixEngine(noise, kernel="dense")
        with_relaxation, _ = engine.measured_probabilities(scheduled_su2_4q.scheduled)
        noise.include_relaxation = False
        toggled, _ = engine.measured_probabilities(scheduled_su2_4q.scheduled)
        fresh, _ = NoisySimulator(noise).measured_probabilities(scheduled_su2_4q.scheduled)
        assert np.array_equal(toggled, fresh)
        assert not np.array_equal(toggled, with_relaxation)

    def test_counts_follow_seeding_contract(self, device_noise, scheduled_su2_4q):
        scheduled = scheduled_su2_4q.scheduled
        a = NoisyDensityMatrixEngine(device_noise, seed=4).counts(scheduled, shots=256)
        b = NoisyDensityMatrixEngine(device_noise, seed=4).counts(scheduled, shots=256)
        c = NoisyDensityMatrixEngine(device_noise, seed=5).counts(scheduled, shots=256)
        assert a == b
        assert sum(a.values()) == 256
        assert a != c  # different engine seed, different samples


class TestFakeDeviceEngine:
    def test_transpile_cache_and_deterministic_counts(self, device, bound_su2_4q):
        measured = bound_su2_4q.copy()
        measured.measure_all()
        engine = FakeDeviceEngine(device, seed=6, shots=400)
        first = engine.run(measured)
        second = engine.run(measured.copy())
        assert engine.stats.transpile_cache_hits == 1
        assert second.from_cache
        assert first.counts == second.counts
        assert sum(first.counts.values()) == 400

    def test_expectation_matches_schedule_level_engine(self, device, bound_su2_4q, tfim4):
        measured = bound_su2_4q.copy()
        measured.measure_all()
        engine = FakeDeviceEngine(device, seed=6, shots=512)
        compiled = engine.transpile(measured)
        # Default sampling uses the engine's configured shots...
        sampled = engine.noisy_engine.expectation(compiled.scheduled, tfim4, shots=512)
        assert engine.expectation(measured, tfim4) == sampled
        # ...and an explicit shots=None requests the exact value.
        exact = engine.noisy_engine.expectation(compiled.scheduled, tfim4, shots=None)
        assert engine.expectation(measured, tfim4, shots=None) == exact

    def test_run_counts_sample_the_reported_probabilities(self, device, bound_su2_4q):
        measured = bound_su2_4q.copy()
        measured.measure_all()
        engine = FakeDeviceEngine(device, seed=2, shots=2000)
        result = engine.run(measured)
        empirical = np.zeros_like(result.probabilities)
        for bitstring, count in result.counts.items():
            empirical[int(bitstring, 2)] = count / 2000
        assert np.abs(empirical - result.probabilities).max() < 0.05
        # One submission registers exactly one schedule-level execution.
        assert engine.noisy_engine.stats.executions == 1

    def test_expectation_batch_matches_single_calls_with_default_shots(
        self, device, bound_su2_4q, tfim4
    ):
        measured = bound_su2_4q.copy()
        measured.measure_all()
        engine = FakeDeviceEngine(device, seed=7, shots=256)
        assert engine.expectation_batch([measured], tfim4) == [engine.expectation(measured, tfim4)]
        assert engine.expectation_batch([measured], tfim4, shots=None) == [
            engine.expectation(measured, tfim4, shots=None)
        ]

    def test_accepts_device_names(self, bell):
        engine = FakeDeviceEngine("fake_casablanca", seed=1, shots=64)
        measured = bell.copy()
        measured.measure_all()
        counts = engine.run(measured).counts
        assert sum(counts.values()) == 64


class TestEstimatorAndTunerBatchPaths:
    def test_estimate_batch_exact_equals_sequential(self, device_noise, candidate_schedules, tfim4):
        _, schedules = candidate_schedules
        estimator = ExpectationEstimator(device_noise, seed=9)
        sequential = [estimator.estimate(s, tfim4).value for s in schedules]
        batch = [r.value for r in estimator.estimate_batch(schedules, tfim4)]
        assert batch == sequential  # shots=None: bit-identical

    def test_tuner_batch_path_matches_sequential_path(
        self,
        device_noise,
        candidate_schedules,
        tfim4,
        sequential_objective,
        blocking_batch_objective,
    ):
        compiled, _ = candidate_schedules
        budget = TuningBudget(dd_resolution=2, gs_resolution=2, max_windows=3)

        def tuned(batched: bool):
            estimator = ExpectationEstimator(device_noise, seed=9)
            make_objective = blocking_batch_objective if batched else sequential_objective
            tuner = IndependentWindowTuner(make_objective(estimator, tfim4), budget=budget)
            return tuner.tune(compiled.scheduled, compiled.idle_windows)

        sequential = tuned(batched=False)
        batched = tuned(batched=True)
        assert batched.baseline_value == sequential.baseline_value
        assert batched.tuned_value == sequential.tuned_value
        assert batched.num_evaluations == sequential.num_evaluations
        assert batched.chosen_configurations() == sequential.chosen_configurations()


class TestSatellites:
    def test_gate_matrix_cache_returns_shared_readonly_arrays(self):
        a = Gate("h", 1).matrix()
        b = Gate("h", 1).matrix()
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
        rx = Gate("rx", 1, (0.25,)).matrix()
        assert rx is Gate("rx", 1, (0.25,)).matrix()
        assert rx is not Gate("rx", 1, (0.5,)).matrix()

    def test_parameterized_matrix_still_raises(self):
        from repro.circuits.parameter import Parameter

        theta = Parameter("t")
        with pytest.raises(ParameterError):
            Gate("rx", 1, (theta,)).matrix()

    def test_statevector_counts_deterministic_with_explicit_seed(self, bell):
        measured = bell.copy()
        measured.measure_all()
        simulator = StatevectorSimulator(seed=1)
        simulator.counts(measured, shots=50)  # consume the stateful generator
        a = simulator.counts(measured, shots=200, seed=77)
        b = StatevectorSimulator(seed=99).counts(measured, shots=200, seed=77)
        assert a == b

    def test_noisy_counts_deterministic_with_explicit_seed(self, device_noise, scheduled_su2_4q):
        scheduled = scheduled_su2_4q.scheduled
        simulator = NoisySimulator(device_noise, seed=1)
        simulator.counts(scheduled, shots=50)  # consume the stateful generator
        a = simulator.counts(scheduled, shots=200, seed=77)
        b = NoisySimulator(device_noise, seed=99).counts(scheduled, shots=200, seed=77)
        assert a == b
