"""Tests for the asynchronous submission layer (:mod:`repro.engine.futures`).

Covers the guarantees ``docs/async.md`` promises:

* blocking-vs-async parity — bit-identical results on the serial and
  process tiers, on all three engines;
* exception propagation — a failing batch re-raises from
  ``EngineFuture.result()`` and is returned by ``exception()``;
* cancellation — futures of not-yet-started batches cancel (and are pruned
  from their batch), running/resolved futures refuse;
* stats/cache merge correctness with two batches in flight on one engine;
* the pipelined window tuner — identical tuning outcome, including the
  per-window candidate/value traces, versus the sequential reference
  (already resolved futures over ``ExpectationEstimator.estimate``) and,
  at pipeline depths 1, 2 and 4, versus the blocking batch path (already
  resolved futures over ``ExpectationEstimator.estimate_batch``);
* scheduler lifecycle — close() drains pending batches, engines are
  reusable afterwards.

The slot scheduler's own policies (per-tier slots, fingerprint-overlap
serialization, fairness, priority, pool sharing) are covered in
``tests/test_scheduler.py``.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.circuits import efficient_su2
from repro.engine import (
    BatchScheduler,
    FakeDeviceEngine,
    NoisyDensityMatrixEngine,
    StatevectorEngine,
    gather,
)
from repro.engine.futures import EngineFuture
from repro.exceptions import EngineError, SimulationError
from repro.mitigation import DDConfig, insert_dd_sequences
from repro.mitigation.gate_scheduling import GSConfig, reschedule_gate
from repro.transpiler import transpile
from repro.vaqem import IndependentWindowTuner, TuningBudget, window_tuner
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
    ansatz = efficient_su2(4, reps=1, entanglement="linear")
    rng = np.random.default_rng(8)
    circuits = [
        ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))
        for _ in range(4)
    ]
    circuits.append(circuits[0].copy())
    return circuits


# ----------------------------------------------------------------------------
# EngineFuture unit behaviour
# ----------------------------------------------------------------------------

class TestEngineFuture:
    def test_result_and_done(self):
        future = EngineFuture()
        assert not future.done()
        future._set_result(41)
        assert future.done() and not future.cancelled()
        assert future.result() == 41
        assert future.exception() is None

    def test_exception_propagates(self):
        future = EngineFuture()
        future._set_exception(ValueError("boom"))
        assert isinstance(future.exception(), ValueError)
        with pytest.raises(ValueError, match="boom"):
            future.result()

    def test_cancel_only_before_running(self):
        pending = EngineFuture()
        assert pending.cancel()
        assert pending.cancelled()
        with pytest.raises(CancelledError):
            pending.result()
        running = EngineFuture()
        assert running._set_running()
        assert not running.cancel()
        running._set_result(1)
        assert not running.cancel()
        assert running.result() == 1

    def test_result_timeout_raises(self):
        future = EngineFuture()
        with pytest.raises(EngineError):
            future.result(timeout=0.01)

    def test_map_transforms_and_chains_errors(self):
        future = EngineFuture()
        doubled = future.map(lambda v: 2 * v)
        future._set_result(21)
        assert doubled.result() == 42
        failing = EngineFuture()
        mapped = failing.map(lambda v: v)
        failing._set_exception(KeyError("missing"))
        assert isinstance(mapped.exception(), KeyError)
        bad_transform = EngineFuture().map(lambda v: 1 / v)
        bad_transform._source._set_result(0)
        assert isinstance(bad_transform.exception(), ZeroDivisionError)

    def test_cancel_of_mapped_future_forwards_to_source(self):
        source = EngineFuture()
        mapped = source.map(lambda v: v)
        assert mapped.cancel()
        assert source.cancelled() and mapped.cancelled()

    def test_add_done_callback_fires_immediately_when_done(self):
        future = EngineFuture()
        future._set_result("x")
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]

    def test_raising_callback_does_not_break_resolution(self):
        future = EngineFuture()
        seen = []
        future.add_done_callback(lambda f: 1 / 0)
        future.add_done_callback(seen.append)
        future._set_result(7)  # must not raise out of the resolver
        assert seen == [future]
        assert future.result() == 7


# ----------------------------------------------------------------------------
# Scheduler behaviour (driven through a controllable fake engine)
# ----------------------------------------------------------------------------

class _SlowEngine:
    """Minimal engine stand-in whose batches block on an event.

    All items share one fingerprint chain, so every batch conflicts with
    every other and the scheduler drains them strictly one at a time — the
    serial-drain behaviour the cancellation tests rely on.
    """

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.executed: list = []

    def _shard_chain(self, kind, item):
        return ("root", "shared-prefix")

    def _dispatch_batch(self, kind, items, kwargs, max_workers, parallelism, chains=None):
        self.started.set()
        if not self.release.wait(timeout=10):  # pragma: no cover - deadlock guard
            raise EngineError("test gate never opened")
        self.executed.append(list(items))
        if kwargs.get("fail"):
            raise RuntimeError("batch exploded")
        return [item * 2 for item in items]


class TestBatchScheduler:
    def test_cancellation_of_queued_batch_and_item_pruning(self):
        engine = _SlowEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        first = scheduler.submit("run", [1, 2], {})
        engine.started.wait(timeout=10)
        # The first batch is now running (uncancellable); the second and
        # third conflict with it, so they are queued — fully cancellable for
        # the second, partially for the third.
        second = scheduler.submit("run", [3, 4], {})
        third = scheduler.submit("run", [5, 6], {})
        assert all(future.cancel() for future in second)
        assert third[0].cancel()
        assert not first[0].cancel()
        engine.release.set()
        assert gather(first) == [2, 4]
        assert third[1].result() == 12
        with pytest.raises(CancelledError):
            second[0].result()
        # The cancelled batch never executed; the pruned item never shipped.
        scheduler.shutdown()
        assert [1, 2] in engine.executed
        assert [3, 4] not in engine.executed
        assert [6] in engine.executed

    def test_batch_exception_lands_on_every_future(self):
        engine = _SlowEngine()
        engine.release.set()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        futures = scheduler.submit("run", [1, 2], {"fail": True})
        for future in futures:
            assert isinstance(future.exception(), RuntimeError)
        scheduler.shutdown()

    def test_submit_after_shutdown_raises(self):
        engine = _SlowEngine()
        engine.release.set()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        scheduler.shutdown()
        with pytest.raises(EngineError):
            scheduler.submit("run", [1], {})

    def test_shutdown_drains_queued_batches(self):
        engine = _SlowEngine()
        engine.release.set()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        futures = scheduler.submit("run", [7], {})
        scheduler.shutdown(wait=True)
        assert futures[0].result() == 14

    def test_shutdown_is_idempotent_with_futures_pending(self):
        engine = _SlowEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        first = scheduler.submit("run", [1], {})
        second = scheduler.submit("run", [2], {})
        engine.started.wait(timeout=10)
        closer = threading.Thread(target=scheduler.shutdown)
        closer.start()
        engine.release.set()
        # A second shutdown racing the first must drain, not raise.
        scheduler.shutdown()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert gather(first) + gather(second) == [2, 4]

    def test_raising_done_callback_does_not_kill_scheduler(self):
        engine = _SlowEngine()
        engine.release.set()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        poisoned = scheduler.submit("run", [1], {})[0]
        poisoned.add_done_callback(lambda f: 1 / 0)
        assert poisoned.result() == 2
        # The scheduler survived the raising callback.
        assert scheduler.submit("run", [2], {})[0].result() == 4
        scheduler.shutdown()


# ----------------------------------------------------------------------------
# Blocking-vs-async parity on the real engines
# ----------------------------------------------------------------------------

class TestAsyncParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_noisy_expectations_bit_identical(self, device_noise, sweep_schedules, tfim4, mode):
        _, schedules = sweep_schedules
        blocking_engine = NoisyDensityMatrixEngine(device_noise, seed=3)
        async_engine = NoisyDensityMatrixEngine(device_noise, seed=3)
        blocking = blocking_engine.expectation_batch(
            schedules, tfim4, max_workers=WORKERS, parallelism=mode
        )
        futures = async_engine.submit_expectation_batch(
            schedules, tfim4, max_workers=WORKERS, parallelism=mode
        )
        assert gather(futures) == blocking
        sampled_blocking = blocking_engine.expectation_batch(
            schedules, tfim4, shots=256, max_workers=WORKERS, parallelism=mode
        )
        sampled_async = gather(
            async_engine.submit_expectation_batch(
                schedules, tfim4, shots=256, max_workers=WORKERS, parallelism=mode
            )
        )
        assert sampled_async == sampled_blocking
        blocking_engine.close()
        async_engine.close()

    def test_noisy_run_submit_matches_run_batch(self, device_noise, sweep_schedules):
        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        blocking = engine.run_batch(schedules)
        fresh = NoisyDensityMatrixEngine(device_noise, seed=1)
        futures = fresh.submit_batch(schedules, max_workers=WORKERS, parallelism="process")
        for reference, result in zip(blocking, gather(futures)):
            assert reference.fingerprint == result.fingerprint
            assert np.array_equal(reference.state.data, result.state.data)
        engine.close()
        fresh.close()

    def test_statevector_and_fake_device_parity(self, device, logical_circuits, tfim4):
        ideal = StatevectorEngine(seed=5)
        assert gather(ideal.submit_expectation_batch(logical_circuits, tfim4)) == (
            ideal.expectation_batch(logical_circuits, tfim4)
        )
        single = ideal.submit(logical_circuits[0]).result()
        assert np.array_equal(single.state, ideal.run(logical_circuits[0]).state)
        ideal.close()

        measured = [c.copy() for c in logical_circuits]
        for circuit in measured:
            circuit.measure_all()
        machine = FakeDeviceEngine(device, seed=6, shots=300)
        blocking = machine.expectation_batch(measured, tfim4)  # configured shots
        async_values = gather(machine.submit_expectation_batch(measured, tfim4))
        assert async_values == blocking
        machine.close()

    def test_two_batches_in_flight_merge_stats_and_caches(
        self, device_noise, sweep_schedules, tfim4
    ):
        _, schedules = sweep_schedules
        split = len(schedules) // 2
        engine = NoisyDensityMatrixEngine(device_noise, seed=2)
        first = engine.submit_expectation_batch(
            schedules[:split], tfim4, max_workers=WORKERS, parallelism="process"
        )
        second = engine.submit_expectation_batch(
            schedules[split:], tfim4, max_workers=WORKERS, parallelism="process"
        )
        values = gather(first) + gather(second)
        reference_engine = NoisyDensityMatrixEngine(device_noise, seed=2)
        reference = reference_engine.expectation_batch(schedules, tfim4)
        assert values == reference
        # Merge-back correctness: every schedule's state and expectation is
        # now in the parent's caches, so the blocking re-query is all hits.
        executions_before = engine.stats.executions
        requery = engine.expectation_batch(schedules, tfim4)
        assert requery == reference
        assert engine.stats.executions == executions_before
        assert engine.stats.expectation_cache_hits >= len(schedules)
        for scheduled in schedules:
            assert engine.run(scheduled).from_cache
        engine.close()
        reference_engine.close()

    def test_exception_propagates_through_engine_future(self, logical_circuits):
        from repro.operators import tfim_hamiltonian

        engine = StatevectorEngine(seed=1)
        mismatched = tfim_hamiltonian(3)  # circuits have 4 qubits
        future = engine.submit_expectation_batch([logical_circuits[0]], mismatched)[0]
        assert isinstance(future.exception(), SimulationError)
        with pytest.raises(SimulationError):
            future.result()
        # The engine survives a failed batch: later submissions still work.
        from repro.operators import tfim_hamiltonian as make

        value = engine.submit_expectation_batch([logical_circuits[0]], make(4))[0].result()
        assert np.isfinite(value)
        engine.close()

    def test_close_is_reentrant_and_engine_reusable(self, logical_circuits, tfim4):
        engine = StatevectorEngine(seed=5)
        engine.submit_batch(logical_circuits)
        engine.close()
        engine.close()
        values = gather(engine.submit_expectation_batch(logical_circuits, tfim4))
        assert len(values) == len(logical_circuits)
        engine.close()


# ----------------------------------------------------------------------------
# The pipelined window tuner
# ----------------------------------------------------------------------------

class TestPipelinedTuner:
    @pytest.mark.parametrize(
        "tune_gate_scheduling, dd_resolution", ((True, 2), (False, 3)), ids=("gs_dd", "dd_only")
    )
    def test_engine_objective_matches_sequential_reference(
        self,
        device_noise,
        sweep_schedules,
        tfim4,
        sequential_objective,
        tune_gate_scheduling,
        dd_resolution,
    ):
        """Engine futures, pipelined over the slot scheduler, tune exactly as
        sequential ``estimate`` calls do.  Without a GS phase the DD
        candidates submit eagerly; the outcome must still match."""
        compiled, _ = sweep_schedules
        budget = TuningBudget(dd_resolution=dd_resolution, gs_resolution=2, max_windows=3)
        outcomes = {}
        for protocol in ("sequential", "engine"):
            estimator = ExpectationEstimator(device_noise, seed=9)
            objective = {
                "sequential": sequential_objective(estimator, tfim4),
                "engine": lambda ss: [
                    future.map(lambda r: r.value) for future in estimator.submit_batch(ss, tfim4)
                ],
            }[protocol]
            tuner = IndependentWindowTuner(
                objective, tune_gate_scheduling=tune_gate_scheduling, budget=budget
            )
            outcomes[protocol] = tuner.tune(compiled.scheduled, compiled.idle_windows)
            estimator.engine.close()
        engine, sequential = outcomes["engine"], outcomes["sequential"]
        assert engine.baseline_value == sequential.baseline_value
        assert engine.tuned_value == sequential.tuned_value
        assert engine.num_evaluations == sequential.num_evaluations
        assert engine.chosen_configurations() == sequential.chosen_configurations()
        assert len(engine.window_records) == len(sequential.window_records)
        for engine_record, sequential_record in zip(
            engine.window_records, sequential.window_records
        ):
            assert engine_record.window.index == sequential_record.window.index
            assert engine_record.candidates == sequential_record.candidates
            assert engine_record.values == sequential_record.values

    @pytest.mark.parametrize("depth", (1, 2, 4))
    def test_pipelined_tuner_matches_blocking(
        self,
        device_noise,
        sweep_schedules,
        tfim4,
        blocking_batch_objective,
        monkeypatch,
        depth,
    ):
        """At any pipeline depth, engine futures resolved out of submission
        order tune exactly as the estimator's blocking batch path does."""
        monkeypatch.setattr(window_tuner, "PIPELINE_DEPTH", depth)
        compiled, _ = sweep_schedules
        budget = TuningBudget(dd_resolution=2, gs_resolution=2, max_windows=3)
        outcomes = {}
        for protocol in ("blocking", "pipelined"):
            estimator = ExpectationEstimator(device_noise, seed=9)
            objective = {
                "blocking": blocking_batch_objective(estimator, tfim4),
                "pipelined": lambda ss: [
                    future.map(lambda r: r.value) for future in estimator.submit_batch(ss, tfim4)
                ],
            }[protocol]
            tuner = IndependentWindowTuner(objective, budget=budget)
            outcomes[protocol] = tuner.tune(compiled.scheduled, compiled.idle_windows)
            estimator.engine.close()
        pipelined, blocking = outcomes["pipelined"], outcomes["blocking"]
        assert pipelined.baseline_value == blocking.baseline_value
        assert pipelined.tuned_value == blocking.tuned_value
        assert pipelined.num_evaluations == blocking.num_evaluations
        assert pipelined.chosen_configurations() == blocking.chosen_configurations()
        for pipe_record, block_record in zip(pipelined.window_records, blocking.window_records):
            assert pipe_record.window.index == block_record.window.index
            assert pipe_record.candidates == block_record.candidates
            assert pipe_record.values == block_record.values


# ----------------------------------------------------------------------------
# Frontend async routing
# ----------------------------------------------------------------------------

class TestFrontendAsyncRouting:
    def test_estimator_submit_batch_matches_estimate_batch(
        self, device_noise, sweep_schedules, tfim4
    ):
        _, schedules = sweep_schedules
        estimator = ExpectationEstimator(device_noise, seed=9)
        blocking = [r.value for r in estimator.estimate_batch(schedules, tfim4)]
        async_results = gather(estimator.submit_batch(schedules, tfim4))
        assert [r.value for r in async_results] == blocking
        assert all(r.shots_per_group is None for r in async_results)
        estimator.engine.close()

    def test_vqe_trajectories_pipeline_bit_identical(self, device, device_noise, tfim4):
        from repro.vqe import VQE

        ansatz = efficient_su2(4, reps=1, entanglement="linear")
        vqe = VQE(ansatz, tfim4, seed=4)
        rng = np.random.default_rng(4)
        points = [rng.uniform(-0.5, 0.5, ansatz.num_parameters) for _ in range(5)]
        ideal = vqe.evaluate_trajectory_ideal(points)
        assert ideal == [vqe.ideal_objective(p) for p in points]
        # Chunked async submission (chunk size 2 via max_workers) equals the
        # default chunking and the blocking reference, bit for bit.
        noisy_default = vqe.evaluate_trajectory_noisy(points, device)
        noisy_chunked = vqe.evaluate_trajectory_noisy(
            points, device, max_workers=2, parallelism="process"
        )
        assert noisy_default == noisy_chunked

    def test_runtime_session_submit_charges_and_executes(self, device_noise, sweep_schedules):
        from repro.runtime import RuntimeSession

        _, schedules = sweep_schedules
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        session = RuntimeSession(engine=engine, machine_name="test")
        results = session.submit(schedules[:3])
        assert len(results) == 3
        assert session.num_circuits == 3
        assert session.num_jobs >= 1
        engine.close()
