"""Tests for the multi-core process tier (:mod:`repro.engine.parallel`).

Covers the guarantees the parallel subsystem promises:

* serial / process parity — bit-identical results at ``shots=None`` and
  seed-deterministic sampled values otherwise, on all three engines;
* cache merge-on-return — a process batch leaves the parent engine's
  content-hash caches as warm as a serial one, and stats deltas fold back;
* the prefix-aware shard scheduler — common-prefix grouping, duplicate
  co-location, cost balancing, degenerate sizes;
* the ``(parallelism, max_workers)`` knob resolution: two tiers, and a
  ``max_workers``-only request selects none;
* pool lifecycle — persistent pools, stale-context retirement, and the
  serial answer of an engine that cannot cross the process boundary;
* frontend routing — estimator batches and window-tuner sweeps produce
  identical outcomes on every tier.

The suite deliberately uses ``max_workers=2``: the CI container may expose a
single core, and two workers exercise every protocol path (sharding, payload
dedup, merge-back) without oversubscribing it.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.circuits import efficient_su2
from repro.engine import (
    FakeDeviceEngine,
    NoisyDensityMatrixEngine,
    StatevectorEngine,
    circuit_hash_chain,
    plan_shards,
    resolve_parallelism,
)
from repro.engine.parallel import ParallelismPlan, common_prefix_length
from repro.exceptions import EngineError, VAQEMError
from repro.mitigation import DDConfig, insert_dd_sequences
from repro.mitigation.gate_scheduling import GSConfig, reschedule_gate
from repro.transpiler import transpile
from repro.vaqem import IndependentWindowTuner, TuningBudget, VAQEMConfig
from repro.vqe import ExpectationEstimator

WORKERS = 2

MODES = ("serial", "process")


@pytest.fixture(scope="module")
def sweep_schedules(device):
    """A compiled ansatz plus window-tuner-style candidates (with duplicates)."""
    ansatz = efficient_su2(4, reps=2, entanglement="circular")
    rng = np.random.default_rng(21)
    bound = ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))
    bound.measure_all()
    compiled = transpile(bound, device)
    schedules = [compiled.scheduled]
    for window in compiled.idle_windows[:3]:
        schedules.append(reschedule_gate(compiled.scheduled, window, GSConfig(0.5)))
        try:
            schedules.append(insert_dd_sequences(compiled.scheduled, window, DDConfig("xy4", 1)))
        except Exception:
            pass
    schedules.append(compiled.scheduled.copy())  # content-identical duplicate
    return compiled, schedules


@pytest.fixture(scope="module")
def logical_circuits():
    """Distinct bound ansatz circuits plus a duplicate."""
    ansatz = efficient_su2(4, reps=1, entanglement="linear")
    rng = np.random.default_rng(8)
    circuits = [
        ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))
        for _ in range(5)
    ]
    circuits.append(circuits[0].copy())
    return circuits


# ----------------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------------

class TestResolveParallelism:
    def test_legacy_max_workers_semantics(self):
        assert resolve_parallelism(None, None, 8) == ParallelismPlan("serial", 1)
        assert resolve_parallelism(None, 1, 8) == ParallelismPlan("serial", 1)
        # A sizing knob never selects a tier: the error points callers at
        # docs/api.md.
        with pytest.raises(EngineError, match="docs/api.md"):
            resolve_parallelism(None, 4, 8)

    def test_removed_implied_threads_raises_from_batch_calls(self, logical_circuits):
        engine = StatevectorEngine(seed=1)
        with pytest.raises(EngineError, match="parallelism='process'"):
            engine.run_batch(logical_circuits, max_workers=4)

    def test_explicit_modes(self):
        assert resolve_parallelism("serial", 16, 8).mode == "serial"
        assert resolve_parallelism("process", 3, 8) == ParallelismPlan("process", 3)

    def test_degenerate_requests_collapse_to_serial(self):
        assert resolve_parallelism("process", 4, 1).mode == "serial"
        assert resolve_parallelism("process", 1, 8).mode == "serial"
        assert resolve_parallelism("process", 4, 0).mode == "serial"

    def test_workers_clamped_to_items(self):
        assert resolve_parallelism("process", 16, 3).workers == 3

    def test_unknown_mode_raises(self):
        for mode in ("gpu", "thread"):
            with pytest.raises(EngineError, match="expected one of"):
                resolve_parallelism(mode, 2, 4)


# ----------------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------------

class TestPlanShards:
    def test_common_prefix_length(self):
        assert common_prefix_length(["a", "b", "c"], ["a", "b", "d"]) == 2
        assert common_prefix_length(["a"], ["a", "b"]) == 1
        assert common_prefix_length(["x"], ["y"]) == 0

    def test_every_item_assigned_exactly_once(self):
        chains = [[f"root{i % 3}", f"leaf{i}"] for i in range(10)]
        shards = plan_shards(chains, 3)
        flattened = sorted(index for shard in shards for index in shard)
        assert flattened == list(range(10))
        assert all(shard for shard in shards)

    def test_prefix_families_stay_contiguous(self):
        # Two families sharing long prefixes; the cut must fall between them.
        family_a = [["r", "a", f"a{i}"] for i in range(4)]
        family_b = [["r", "b", f"b{i}"] for i in range(4)]
        chains = family_a + family_b
        shards = plan_shards(chains, 2)
        assert len(shards) == 2
        for shard in shards:
            families = {chains[index][1] for index in shard}
            assert len(families) == 1

    def test_duplicates_never_split(self):
        chains = [["r", "x"]] * 6 + [["r", "y"]] * 2
        shards = plan_shards(chains, 4)
        by_content = {}
        for shard_number, shard in enumerate(shards):
            for index in shard:
                by_content.setdefault(chains[index][-1], set()).add(shard_number)
        assert all(len(shard_numbers) == 1 for shard_numbers in by_content.values())

    def test_degenerate_sizes(self):
        assert plan_shards([], 4) == []
        assert plan_shards([["a"]], 4) == [[0]]
        shards = plan_shards([["a"], ["b"], ["c"]], 10)
        assert sorted(index for shard in shards for index in shard) == [0, 1, 2]


# ----------------------------------------------------------------------------
# Engine parity across tiers
# ----------------------------------------------------------------------------

class TestNoisyEngineParity:
    def _engines(self, device_noise, seed=1):
        return {mode: NoisyDensityMatrixEngine(device_noise, seed=seed) for mode in MODES}

    def test_run_batch_bit_identical_across_modes(self, device_noise, sweep_schedules):
        _, schedules = sweep_schedules
        engines = self._engines(device_noise)
        results = {
            mode: engine.run_batch(schedules, max_workers=WORKERS, parallelism=mode)
            for mode, engine in engines.items()
        }
        for reference, other in zip(results["serial"], results["process"]):
            assert reference.fingerprint == other.fingerprint
            assert np.array_equal(reference.state.data, other.state.data)
            assert np.array_equal(reference.probabilities, other.probabilities)
        for engine in engines.values():
            engine.close()

    def test_expectation_batch_exact_and_sampled(self, device_noise, sweep_schedules, tfim4):
        _, schedules = sweep_schedules
        engines = self._engines(device_noise, seed=3)
        exact = {
            mode: engine.expectation_batch(
                schedules, tfim4, max_workers=WORKERS, parallelism=mode
            )
            for mode, engine in engines.items()
        }
        assert exact["serial"] == exact["process"]
        sampled = {
            mode: engine.expectation_batch(
                schedules, tfim4, shots=256, max_workers=WORKERS, parallelism=mode
            )
            for mode, engine in engines.items()
        }
        # Seed-deterministic: content-derived randomness is identical across
        # tiers and across engines constructed with the same seed.
        assert sampled["serial"] == sampled["process"]
        for engine in engines.values():
            engine.close()

    def test_process_batch_merges_results_into_parent_cache(
        self, device_noise, sweep_schedules
    ):
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        engine.run_batch(schedules, max_workers=WORKERS, parallelism="process")
        hits_before = engine.stats.cache_hits
        # Every schedule must now be served from the parent's own cache
        # without a process round-trip (run() is the serial path).
        for scheduled in schedules:
            assert engine.run(scheduled).from_cache
        assert engine.stats.cache_hits >= hits_before + len(schedules)
        engine.close()

    def test_worker_stats_fold_into_parent(self, device_noise, sweep_schedules):
        _, schedules = sweep_schedules
        serial = NoisyDensityMatrixEngine(device_noise, seed=1)
        serial.run_batch(schedules, parallelism="serial")
        process = NoisyDensityMatrixEngine(device_noise, seed=1)
        process.run_batch(schedules, max_workers=WORKERS, parallelism="process")
        # Executions: one per batch item on both paths (local + worker-side).
        assert process.stats.executions == serial.stats.executions
        assert process.stats.cache_misses >= 1
        assert process.stats.instructions_simulated >= 1
        serial.close()
        process.close()

    def test_unseeded_engine_process_path_executes(self, device_noise, sweep_schedules, tfim4):
        """Without a seed the process tier still works; sampled values are
        simply fresh entropy (no cross-tier determinism is promised)."""
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise)
        values = engine.expectation_batch(
            schedules[:3], tfim4, shots=64, max_workers=WORKERS, parallelism="process"
        )
        assert len(values) == 3
        assert all(np.isfinite(v) for v in values)
        engine.close()


class TestStatevectorEngineParity:
    def test_run_and_expectation_across_modes(self, logical_circuits, tfim4):
        engines = {mode: StatevectorEngine(seed=5) for mode in MODES}
        runs = {
            mode: engine.run_batch(logical_circuits, max_workers=WORKERS, parallelism=mode)
            for mode, engine in engines.items()
        }
        for reference, other in zip(runs["serial"], runs["process"]):
            assert np.array_equal(reference.state, other.state)
        values = {
            mode: engine.expectation_batch(
                logical_circuits, tfim4, max_workers=WORKERS, parallelism=mode
            )
            for mode, engine in engines.items()
        }
        assert values["serial"] == values["process"]
        for engine in engines.values():
            engine.close()

    def test_process_batch_populates_state_cache(self, logical_circuits):
        engine = StatevectorEngine(seed=5)
        engine.run_batch(logical_circuits, max_workers=WORKERS, parallelism="process")
        for circuit in logical_circuits:
            assert engine.run(circuit).from_cache
        # Merged statevectors keep the engine's read-only contract.
        result = engine.run(logical_circuits[0])
        assert not result.state.flags.writeable
        engine.close()


class TestFakeDeviceEngineParity:
    def test_counts_and_expectations_across_modes(self, device, logical_circuits, tfim4):
        measured = [c.copy() for c in logical_circuits]
        for circuit in measured:
            circuit.measure_all()
        engines = {mode: FakeDeviceEngine(device, seed=6, shots=300) for mode in MODES}
        runs = {
            mode: engine.run_batch(measured, max_workers=WORKERS, parallelism=mode)
            for mode, engine in engines.items()
        }
        for reference, other in zip(runs["serial"], runs["process"]):
            assert reference.counts == other.counts
            assert np.array_equal(reference.probabilities, other.probabilities)
        exact = {
            mode: engine.expectation_batch(
                measured, tfim4, shots=None, max_workers=WORKERS, parallelism=mode
            )
            for mode, engine in engines.items()
        }
        assert exact["serial"] == exact["process"]
        sampled = {
            mode: engine.expectation_batch(
                measured, tfim4, max_workers=WORKERS, parallelism=mode
            )
            for mode, engine in engines.items()
        }
        assert sampled["serial"] == sampled["process"]
        for engine in engines.values():
            engine.close()

    def test_process_batch_merges_transpile_cache(self, device, logical_circuits):
        measured = [c.copy() for c in logical_circuits]
        for circuit in measured:
            circuit.measure_all()
        engine = FakeDeviceEngine(device, seed=6, shots=100)
        engine.run_batch(measured, max_workers=WORKERS, parallelism="process")
        misses_before = engine.stats.transpile_cache_misses
        engine.run_batch(measured, parallelism="serial")
        # The merged transpilations serve the serial re-run without recompiling.
        assert engine.stats.transpile_cache_misses == misses_before
        engine.close()


# ----------------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------------

class TestPoolLifecycle:
    def test_pool_persists_across_batches_and_close_is_reentrant(
        self, device_noise, sweep_schedules, tfim4
    ):
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=2)
        engine.expectation_batch(schedules[:3], tfim4, max_workers=WORKERS, parallelism="process")
        (first_pool,) = engine._pools.handles()
        engine.clear_caches()  # must not kill the pool
        engine.expectation_batch(schedules[3:], tfim4, max_workers=WORKERS, parallelism="process")
        assert engine._pools.handles() == [first_pool]
        engine.close()
        assert engine._pools.handles() == []
        engine.close()  # idempotent
        # Engine is usable again after close (a fresh pool spins up).
        values = engine.expectation_batch(
            schedules[:2], tfim4, max_workers=WORKERS, parallelism="process"
        )
        assert len(values) == 2
        engine.close()

    def test_noise_flag_toggle_retires_stale_pool(self, device, sweep_schedules):
        from repro.simulators import NoiseModel

        _, schedules = sweep_schedules
        noise = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise, seed=2)
        engine.run_batch(schedules[:3], max_workers=WORKERS, parallelism="process")
        (first_pool,) = engine._pools.handles()
        noise.include_relaxation = False
        toggled = engine.run_batch(schedules[:3], max_workers=WORKERS, parallelism="process")
        assert engine._pools.handles() != [first_pool]
        fresh = NoisyDensityMatrixEngine(noise, seed=2).run_batch(schedules[:3])
        for a, b in zip(toggled, fresh):
            assert np.array_equal(a.state.data, b.state.data)
        engine.close()

    def test_engine_without_process_spec_runs_process_requests_serially(
        self, logical_circuits, tfim4
    ):
        class InProcessEngine(StatevectorEngine):
            def _process_spec(self):
                return None

            def _serial_call(self, kind, item, kwargs):
                callers.add(threading.get_ident())
                return super()._serial_call(kind, item, kwargs)

        callers = set()
        engine = InProcessEngine(seed=5)
        values = engine.expectation_batch(
            logical_circuits, tfim4, max_workers=WORKERS, parallelism="process"
        )
        assert values == StatevectorEngine(seed=5).expectation_batch(logical_circuits, tfim4)
        assert callers == {threading.get_ident()}
        # The scheduler accounts the batch on the process tier's slots and
        # runs it serially on one of its own threads.
        callers.clear()
        futures = engine.submit_expectation_batch(
            logical_circuits, tfim4, max_workers=WORKERS, parallelism="process"
        )
        assert [future.result() for future in futures] == values
        assert len(callers) == 1 and threading.get_ident() not in callers
        assert engine._pools.handles() == []
        engine.close()


# ----------------------------------------------------------------------------
# Frontend routing
# ----------------------------------------------------------------------------

class TestFrontendRouting:
    def test_estimator_batch_identical_across_tiers(self, device_noise, sweep_schedules, tfim4):
        _, schedules = sweep_schedules
        values = {}
        for mode in MODES:
            estimator = ExpectationEstimator(device_noise, seed=9)
            results = estimator.estimate_batch(
                schedules, tfim4, max_workers=WORKERS, parallelism=mode
            )
            values[mode] = [r.value for r in results]
            estimator.engine.close()
        assert values["serial"] == values["process"]

    def test_tuner_sweeps_identical_across_tiers(self, device_noise, sweep_schedules, tfim4):
        compiled, _ = sweep_schedules
        budget = TuningBudget(dd_resolution=2, gs_resolution=2, max_windows=3)
        outcomes = {}
        for mode in MODES:
            estimator = ExpectationEstimator(device_noise, seed=9)
            tuner = IndependentWindowTuner(
                objective=lambda ss: [
                    future.map(lambda r: r.value)
                    for future in estimator.submit_batch(
                        ss, tfim4, max_workers=WORKERS, parallelism=mode
                    )
                ],
                budget=budget,
            )
            outcomes[mode] = tuner.tune(compiled.scheduled, compiled.idle_windows)
            estimator.engine.close()
        serial, process = outcomes["serial"], outcomes["process"]
        assert process.baseline_value == serial.baseline_value
        assert process.tuned_value == serial.tuned_value
        assert process.num_evaluations == serial.num_evaluations
        assert process.chosen_configurations() == serial.chosen_configurations()

    def test_vaqem_config_validates_parallelism(self):
        # Checked at construction, not at a tuning run's first submission.
        for knobs in ({"parallelism": "warp"}, {"parallelism": "thread"}, {"max_workers": 4}):
            with pytest.raises(VAQEMError):
                VAQEMConfig(**knobs)
        assert VAQEMConfig(parallelism="process", max_workers=2).parallelism == "process"

    def test_noisy_objective_factory_accepts_engine_only(self, device, device_noise, tfim4):
        """Injecting an engine without an explicit noise model must adopt the
        engine's model instead of failing the estimator's shared-model check."""
        from repro.vqe import VQE

        ansatz = efficient_su2(4, reps=1, entanglement="linear")
        vqe = VQE(ansatz, tfim4, seed=4)
        engine = NoisyDensityMatrixEngine(device_noise, seed=4)
        objective = vqe.noisy_objective_factory(device, engine=engine)
        value = objective(np.zeros(ansatz.num_parameters))
        assert np.isfinite(value)
        engine.close()

    def test_fake_engine_recompiles_after_context_change(self, device, logical_circuits):
        measured = logical_circuits[0].copy()
        measured.measure_all()
        engine = FakeDeviceEngine(device, seed=3, shots=64)
        alap = engine.transpile(measured)
        engine.scheduling_policy = "asap"
        asap = engine.transpile(measured)
        # A changed compilation context must miss the transpile cache.
        assert engine.stats.transpile_cache_misses == 2
        assert asap is not alap
        engine.close()

    def test_vqe_trajectory_batches_match_pointwise(self, device, device_noise, tfim4):
        from repro.vqe import VQE

        ansatz = efficient_su2(4, reps=1, entanglement="linear")
        vqe = VQE(ansatz, tfim4, seed=4)
        rng = np.random.default_rng(4)
        points = [rng.uniform(-0.5, 0.5, ansatz.num_parameters) for _ in range(3)]
        batched = vqe.evaluate_trajectory_ideal(points)
        assert batched == [vqe.ideal_objective(p) for p in points]
        noisy_serial = vqe.evaluate_trajectory_noisy(points, device)
        noisy_process = vqe.evaluate_trajectory_noisy(
            points, device, max_workers=WORKERS, parallelism="process"
        )
        assert noisy_serial == noisy_process
