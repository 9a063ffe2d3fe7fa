"""Tests for the process tier (:mod:`repro.engine.parallel`).

Covers the guarantees it promises:

* the strategy map — ``VAQEMPipeline.run`` under
  ``VAQEMConfig(parallelism="process")`` equals a serial run bit for bit,
  its folded counters repeat, a failing strategy raises the serial run's
  exception type, and a one-strategy run starts no pool;
* values across the process boundary — a fresh engine in a
  :func:`~repro.engine.parallel.process_map` worker returns what the same
  call returns here, bit for bit at ``shots=None`` and seed-deterministic
  otherwise, on all three engines, and its counters fold into another
  engine's stats;
* batches — every engine executes a batch on the calling thread, fills its
  own caches, and equals element-wise calls;
* the ``(parallelism, max_workers)`` knob resolution: two tiers, and a
  ``max_workers``-only request selects none;
* the prefix-aware shard planner, which nothing calls but the benchmark's
  tracer still wraps.

The suite uses ``max_workers=2``: the CI container may expose a single core,
and two workers exercise the map without oversubscribing it.
"""

from __future__ import annotations

import math
import threading
from functools import partial

import numpy as np
import pytest

import in_worker
from repro.circuits import efficient_su2
from repro.engine import (
    FakeDeviceEngine,
    NoisyDensityMatrixEngine,
    StatevectorEngine,
    plan_shards,
    resolve_parallelism,
)
from repro.engine.parallel import ParallelismPlan, common_prefix_length
from repro.exceptions import EngineError, VAQEMError
from repro.mitigation import DDConfig, insert_dd_sequences
from repro.mitigation.gate_scheduling import GSConfig, reschedule_gate
from repro.simulators import NoiseModel
from repro.transpiler import transpile
from repro.vaqem import (
    IndependentWindowTuner,
    TuningBudget,
    VAQEMConfig,
    VAQEMPipeline,
    framework,
)
from repro.vqe import ExpectationEstimator, get_application

WORKERS = 2


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
        # Batch calls take no tier knobs: the process tier maps strategies,
        # above the engines.
        engine = StatevectorEngine(seed=1)
        with pytest.raises(TypeError):
            engine.run_batch(logical_circuits, max_workers=4)
        with pytest.raises(TypeError):
            engine.expectation_batch(logical_circuits, None, parallelism="process")

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
# The strategy map
# ----------------------------------------------------------------------------

SMALL_BUDGET = TuningBudget(dd_resolution=2, gs_resolution=2, max_windows=2)


def _h2_run(parallelism=None, strategies=framework.STANDARD_STRATEGIES):
    config = VAQEMConfig(
        angle_tuning_iterations=20,
        budget=SMALL_BUDGET,
        seed=5,
        parallelism=parallelism,
        max_workers=WORKERS if parallelism else None,
    )
    pipeline = VAQEMPipeline(get_application("UCCSD_H2"), config)
    try:
        return pipeline.run(strategies=strategies)
    finally:
        pipeline.engine.close()


@pytest.fixture(scope="module")
def h2_runs():
    return {
        "serial": _h2_run(),
        "process": [_h2_run("process") for _ in range(2)],
    }


class TestStrategyMap:
    def test_process_run_equals_serial_bit_for_bit(self, h2_runs):
        serial, process = h2_runs["serial"], h2_runs["process"][0]
        assert process.energies == serial.energies
        assert list(process.energies) == list(serial.energies)
        assert process.evaluation_counts == serial.evaluation_counts
        assert set(process.tuning_results) == set(serial.tuning_results)
        for strategy, tuning in serial.tuning_results.items():
            other = process.tuning_results[strategy]
            assert other.tuned_value == tuning.tuned_value
            assert other.chosen_configurations() == tuning.chosen_configurations()

    def test_engine_stats_repeat_across_process_runs(self, h2_runs):
        first, second = h2_runs["process"]
        assert first.engine_stats == second.engine_stats
        # The strategies' engines did the work: their counters folded into
        # the pipeline engine, which ran nothing itself.
        assert first.engine_stats["executions"] > 0

    def test_worker_exception_has_the_serial_type(self):
        strategies = ("mem", "not_a_strategy")
        with pytest.raises(VAQEMError) as serial:
            _h2_run(strategies=strategies)
        with pytest.raises(VAQEMError) as process:
            _h2_run("process", strategies=strategies)
        assert str(process.value) == str(serial.value)

    def test_one_strategy_run_starts_no_pool(self, h2_runs, monkeypatch):
        def refuse(*args):
            raise AssertionError("a one-strategy run started a pool")

        monkeypatch.setattr(framework, "process_map", refuse)
        result = _h2_run("process", strategies=("mem",))
        assert result.energies == {"mem": h2_runs["serial"].energies["mem"]}


# ----------------------------------------------------------------------------
# Values across the process boundary
# ----------------------------------------------------------------------------

def _noisy(device, seed=None):
    """A fresh noise model's engine (an empty channel memo pickles small)."""
    return partial(NoisyDensityMatrixEngine, NoiseModel.from_device(device), seed=seed)


class TestNoisyEngineParity:
    def test_run_batch_bit_identical_across_modes(self, device, device_noise, sweep_schedules):
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        local = engine.run_batch(schedules)
        remote, _ = in_worker.call(_noisy(device, seed=1), "run_batch", schedules)
        for reference, other in zip(local, remote):
            assert reference.fingerprint == other.fingerprint
            assert np.array_equal(reference.state.data, other.state.data)
            assert np.array_equal(reference.probabilities, other.probabilities)
        engine.close()

    def test_expectation_batch_exact_and_sampled(self, device, device_noise, sweep_schedules, tfim4):
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=3)
        exact, _ = in_worker.call(_noisy(device, seed=3), "expectation_batch", schedules, tfim4)
        assert exact == engine.expectation_batch(schedules, tfim4)
        # Seed-deterministic: content-derived randomness is identical in any
        # process for engines constructed with the same seed.
        sampled, _ = in_worker.call(
            _noisy(device, seed=3), "expectation_batch", schedules, tfim4, shots=256
        )
        assert sampled == engine.expectation_batch(schedules, tfim4, shots=256)
        engine.close()

    def test_process_batch_merges_results_into_parent_cache(
        self, device_noise, sweep_schedules
    ):
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        engine.run_batch(schedules)
        hits_before = engine.stats.cache_hits
        # The batch filled the engine's own cache: every schedule is now a hit.
        for scheduled in schedules:
            assert engine.run(scheduled).from_cache
        assert engine.stats.cache_hits >= hits_before + len(schedules)
        engine.close()

    def test_worker_stats_fold_into_parent(self, device, device_noise, sweep_schedules, tfim4):
        _, schedules = sweep_schedules
        serial = NoisyDensityMatrixEngine(device_noise, seed=1)
        serial.expectation_batch(schedules, tfim4)
        _, counters = in_worker.call(_noisy(device, seed=1), "expectation_batch", schedules, tfim4)
        # A process VAQEM run folds each strategy engine's counters the same
        # way; the same work on a fresh engine counts the same.
        parent = NoisyDensityMatrixEngine(device_noise, seed=1)
        parent.stats.add_counters(counters)
        assert parent.stats == serial.stats
        parent.stats.add_counters(counters)
        assert parent.stats.executions == 2 * serial.stats.executions
        assert parent.stats.batch_width == serial.stats.batch_width
        serial.close()
        parent.close()

    def test_unseeded_engine_process_path_executes(self, device, sweep_schedules, tfim4):
        """Without a seed an engine in a worker still works; sampled values
        are simply fresh entropy (no cross-process determinism is promised)."""
        _, schedules = sweep_schedules
        values, _ = in_worker.call(
            _noisy(device), "expectation_batch", schedules[:3], tfim4, shots=64
        )
        assert len(values) == 3
        assert all(np.isfinite(v) for v in values)


class TestStatevectorEngineParity:
    def test_run_and_expectation_across_modes(self, logical_circuits, tfim4):
        engine = StatevectorEngine(seed=5)
        build = partial(StatevectorEngine, seed=5)
        runs, _ = in_worker.call(build, "run_batch", logical_circuits)
        for reference, other in zip(engine.run_batch(logical_circuits), runs):
            assert np.array_equal(reference.state, other.state)
        values, _ = in_worker.call(build, "expectation_batch", logical_circuits, tfim4)
        assert values == engine.expectation_batch(logical_circuits, tfim4)
        engine.close()

    def test_process_batch_populates_state_cache(self, logical_circuits):
        engine = StatevectorEngine(seed=5)
        engine.run_batch(logical_circuits)
        # The batch fills the engine's own state cache; the cached
        # statevectors stay read-only.
        for circuit in logical_circuits:
            assert engine.run(circuit).from_cache
        result = engine.run(logical_circuits[0])
        assert not result.state.flags.writeable
        engine.close()


class TestFakeDeviceEngineParity:
    def test_counts_and_expectations_across_modes(self, device, logical_circuits, tfim4):
        measured = [c.copy() for c in logical_circuits]
        for circuit in measured:
            circuit.measure_all()
        engine = FakeDeviceEngine(device, seed=6, shots=300)
        build = partial(FakeDeviceEngine, device, seed=6, shots=300)
        runs, _ = in_worker.call(build, "run_batch", measured)
        for reference, other in zip(engine.run_batch(measured), runs):
            assert reference.counts == other.counts
            assert np.array_equal(reference.probabilities, other.probabilities)
        exact, _ = in_worker.call(build, "expectation_batch", measured, tfim4, shots=None)
        assert exact == engine.expectation_batch(measured, tfim4, shots=None)
        sampled, _ = in_worker.call(build, "expectation_batch", measured, tfim4)
        assert sampled == engine.expectation_batch(measured, tfim4)
        engine.close()

    def test_process_batch_merges_transpile_cache(self, device, logical_circuits):
        measured = [c.copy() for c in logical_circuits]
        for circuit in measured:
            circuit.measure_all()
        engine = FakeDeviceEngine(device, seed=6, shots=100)
        engine.run_batch(measured)
        misses_before = engine.stats.transpile_cache_misses
        engine.run_batch(measured)
        # The first batch filled the engine's own transpile cache, so the
        # re-run recompiles nothing.
        assert engine.stats.transpile_cache_misses == misses_before
        engine.close()


# ----------------------------------------------------------------------------
# Engine lifecycle
# ----------------------------------------------------------------------------

class TestPoolLifecycle:
    def test_pool_persists_across_batches_and_close_is_reentrant(
        self, device_noise, sweep_schedules, tfim4
    ):
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=2)
        first = engine.expectation_batch(schedules[:3], tfim4)
        engine.close()
        engine.close()  # idempotent
        # The engine is usable again after close.
        assert engine.expectation_batch(schedules[:3], tfim4) == first
        engine.close()

    def test_noise_flag_toggle_retires_stale_pool(self, device, sweep_schedules):
        _, schedules = sweep_schedules
        noise = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise, seed=2)
        engine.run_batch(schedules[:3])
        noise.include_relaxation = False
        toggled = engine.run_batch(schedules[:3])
        # The toggle salts every cache key: the engine recomputes instead of
        # serving pre-toggle states.
        assert not any(result.from_cache for result in toggled)
        fresh = NoisyDensityMatrixEngine(noise, seed=2).run_batch(schedules[:3])
        for a, b in zip(toggled, fresh):
            assert np.array_equal(a.state.data, b.state.data)
        engine.close()

    def test_engine_without_process_spec_runs_process_requests_serially(
        self, device, logical_circuits, tfim4, monkeypatch
    ):
        # Every engine answers a blocking batch on the calling thread, and a
        # submitted batch on one scheduler thread, with the same values.
        measured = [c.copy() for c in logical_circuits]
        for circuit in measured:
            circuit.measure_all()

        def check(engine, reference, circuits):
            callers = set()
            serial_call = engine._serial_call

            def recording_call(kind, item, kwargs):
                callers.add(threading.get_ident())
                return serial_call(kind, item, kwargs)

            monkeypatch.setattr(engine, "_serial_call", recording_call)
            values = engine.expectation_batch(circuits, tfim4)
            assert values == reference.expectation_batch(circuits, tfim4)
            assert callers == {threading.get_ident()}
            callers.clear()
            futures = engine.submit_expectation_batch(circuits, tfim4)
            assert [future.result() for future in futures] == values
            assert len(callers) == 1 and threading.get_ident() not in callers
            engine.close()
            reference.close()

        check(StatevectorEngine(seed=5), StatevectorEngine(seed=5), logical_circuits)
        check(
            FakeDeviceEngine(device, seed=6, shots=300),
            FakeDeviceEngine(device, seed=6, shots=300),
            measured,
        )


# ----------------------------------------------------------------------------
# Frontend routing
# ----------------------------------------------------------------------------

def _estimates(device, schedules, hamiltonian):
    estimator = ExpectationEstimator(NoiseModel.from_device(device), seed=9)
    return [r.value for r in estimator.estimate_batch(schedules, hamiltonian)]


def _tune(device, compiled, hamiltonian, budget):
    estimator = ExpectationEstimator(NoiseModel.from_device(device), seed=9)
    tuner = IndependentWindowTuner(
        objective=lambda ss: [
            future.map(lambda r: r.value)
            for future in estimator.submit_batch(ss, hamiltonian)
        ],
        budget=budget,
    )
    return tuner.tune(compiled.scheduled, compiled.idle_windows)


class TestFrontendRouting:
    def test_estimator_batch_identical_across_tiers(self, device, sweep_schedules, tfim4):
        _, schedules = sweep_schedules
        local = _estimates(device, schedules, tfim4)
        assert in_worker.run(_estimates, device, schedules, tfim4) == local

    def test_tuner_sweeps_identical_across_tiers(self, device, sweep_schedules, tfim4):
        compiled, _ = sweep_schedules
        budget = TuningBudget(dd_resolution=2, gs_resolution=2, max_windows=3)
        serial = _tune(device, compiled, tfim4, budget)
        process = in_worker.run(_tune, device, compiled, tfim4, budget)
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
        noisy = vqe.evaluate_trajectory_noisy(points, device)
        # Where the trajectory is cut into batches cannot change a value.
        split = vqe.evaluate_trajectory_noisy(
            points[:1], device
        ) + vqe.evaluate_trajectory_noisy(points[1:], device)
        assert noisy == split
