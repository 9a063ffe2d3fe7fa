"""Tests for the batch scheduler (:mod:`repro.engine.scheduler`).

Covers the policies ``docs/scheduler.md`` promises:

* one batch at a time — batches submitted from different threads never
  execute at once, so a batch sharing a deep prefix with, or repeating,
  another submitter's batch resumes from its checkpoints or its cache;
* fairness — round-robin across submitters keeps a saturating submitter from
  starving an occasional one; a priority hint overrides round-robin order,
  never a submitter's own FIFO;
* concurrent-frontend parity — two estimators sharing one engine get
  bit-identical values to a serial drain, here and in a process-map worker,
  with stats and caches intact under racing submissions;
* teardown — ``engine.close()`` is idempotent, drains pending futures, and
  is safe from inside a done-callback.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

import in_worker
from repro.circuits import efficient_su2
from repro.engine import BatchScheduler, NoisyDensityMatrixEngine, gather
from repro.exceptions import EngineError
from repro.mitigation.gate_scheduling import GSConfig, reschedule_gate
from repro.simulators import NoiseModel
from repro.transpiler import transpile
from repro.vqe import ExpectationEstimator


# ----------------------------------------------------------------------------
# A controllable probe engine for scheduling-policy tests
# ----------------------------------------------------------------------------

class _ProbeEngine:
    """Engine stand-in that records batch concurrency and execution order.

    Each batch carries a ``tag`` in its kwargs and can be gated on an event
    to hold it in its executing state.
    """

    def __init__(self):
        self.condition = threading.Condition()
        self.active: list = []
        self.started: list = []
        self.finished: list = []
        self.max_active = 0
        self.gates: dict = {}

    def _dispatch_batch(self, kind, items, kwargs):
        tag = kwargs["tag"]
        with self.condition:
            self.active.append(tag)
            self.started.append(tag)
            self.max_active = max(self.max_active, len(self.active))
            self.condition.notify_all()
        gate = self.gates.get(tag)
        if gate is not None and not gate.wait(timeout=10):  # pragma: no cover
            raise EngineError("test gate never opened")
        with self.condition:
            self.active.remove(tag)
            self.finished.append(tag)
            self.condition.notify_all()
        return [None] * len(items)

    def wait_started(self, count: int, timeout: float = 10.0) -> bool:
        with self.condition:
            return self.condition.wait_for(lambda: len(self.started) >= count, timeout)


def _items(prefix: str, count: int = 2):
    return [f"{prefix}-{index}" for index in range(count)]


def _submit(scheduler, tag, items, *, submitter=None, priority=0):
    return scheduler.submit(
        "run", items, {"tag": tag},
        submitter=submitter if submitter is not None else tag[0], priority=priority,
    )


class TestSlotPolicy:
    def test_serial_tier_never_overlaps(self):
        """Two threads' batches never execute at once."""
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        engine.gates["B1"] = gate
        futures = []

        def frontend(tag, prefix):
            futures.extend(_submit(scheduler, tag, _items(prefix)))

        threads = [
            threading.Thread(target=frontend, args=args) for args in (("A1", "a"), ("B1", "b"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert engine.wait_started(1)
        assert not engine.wait_started(2, timeout=0.25)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 1
        assert sorted(engine.started) == ["A1", "B1"]

    def test_deep_prefix_conflicts_serialize(self, device_noise, prefix_family, tfim4):
        """A batch sharing a deep prefix with another submitter's batch runs
        after it and resumes from its checkpoints."""
        base, late_candidate = prefix_family
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        first = engine.submit_expectation_batch([base], tfim4, submitter="A")
        second = engine.submit_expectation_batch([late_candidate], tfim4, submitter="B")
        gather(first + second)
        assert engine.stats.prefix_resumes == 1
        assert engine.stats.instructions_reused > 0
        engine.close()

    def test_identical_schedules_always_conflict(self, device_noise, prefix_family, tfim4):
        """Content-identical schedules from two submitters simulate once: the
        second batch runs after the first and is answered from the cache."""
        base, _ = prefix_family
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        futures = engine.submit_expectation_batch([base], tfim4, submitter="A")
        futures += engine.submit_expectation_batch([base.copy()], tfim4, submitter="B")
        values = gather(futures)
        assert values[0] == values[1]
        assert engine.stats.executions == engine.stats.cache_misses == 1
        assert engine.stats.expectation_cache_hits == 1
        engine.close()


class TestItemLevelDependencies:
    def test_conflicting_items_never_run_concurrently(self):
        """Three submitters' batches carrying the same item run one at a
        time, the first submitted first."""
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        shared = ["shared-item"]
        futures = _submit(scheduler, "A1", shared)
        assert engine.wait_started(1)
        futures += _submit(scheduler, "B1", shared)
        futures += _submit(scheduler, "C1", shared)
        assert not engine.wait_started(2, timeout=0.25)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 1
        assert engine.started[0] == "A1"
        assert sorted(engine.started[1:]) == ["B1", "C1"]


class TestFairnessAndPriority:
    def _single_slot_scheduler(self, engine):
        return BatchScheduler(engine, name="test-scheduler")

    def test_round_robin_across_submitters(self):
        engine = _ProbeEngine()
        scheduler = self._single_slot_scheduler(engine)
        gate = threading.Event()
        engine.gates["A1"] = gate
        futures = _submit(scheduler, "A1", _items("a1"), submitter="A")
        assert engine.wait_started(1)
        # A saturates the queue, then B submits one batch.
        for index in range(2, 5):
            futures += _submit(scheduler, f"A{index}", _items(f"a{index}"), submitter="A")
        futures += _submit(scheduler, "B1", _items("b1"), submitter="B")
        gate.set()
        gather(futures)
        scheduler.shutdown()
        # Round-robin: B's single batch runs right after A's in-flight one,
        # not behind A's whole backlog.
        assert engine.finished.index("B1") < engine.finished.index("A3")

    def test_priority_overrides_round_robin(self):
        engine = _ProbeEngine()
        scheduler = self._single_slot_scheduler(engine)
        gate = threading.Event()
        engine.gates["A1"] = gate
        futures = _submit(scheduler, "A1", _items("a1"), submitter="A")
        assert engine.wait_started(1)
        futures += _submit(scheduler, "A2", _items("a2"), submitter="A")
        futures += _submit(scheduler, "B1", _items("b1"), submitter="B")
        futures += _submit(scheduler, "C1", _items("c1"), submitter="C", priority=5)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        # C outranks both queued heads despite submitting last.
        assert engine.started.index("C1") == 1

    def test_rotation_survives_emptied_queues(self):
        """Picking a submitter whose queue then empties must not skip the
        next submitter in rotation (the cursor is tracked by key, not by
        index into the mutating key list)."""
        engine = _ProbeEngine()
        scheduler = self._single_slot_scheduler(engine)
        gate = threading.Event()
        engine.gates["A1"] = gate
        futures = _submit(scheduler, "A1", _items("a1"), submitter="A")
        assert engine.wait_started(1)
        # One single-batch queue per submitter: each pick empties a queue.
        futures += _submit(scheduler, "A2", _items("a2"), submitter="A")
        futures += _submit(scheduler, "B1", _items("b1"), submitter="B")
        futures += _submit(scheduler, "C1", _items("c1"), submitter="C")
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.started == ["A1", "B1", "C1", "A2"]

    def test_submitters_keep_fifo_among_themselves(self):
        engine = _ProbeEngine()
        scheduler = self._single_slot_scheduler(engine)
        gate = threading.Event()
        engine.gates["A1"] = gate
        futures = _submit(scheduler, "A1", _items("a1"), submitter="A")
        assert engine.wait_started(1)
        # A higher-priority later batch of the *same* submitter must not
        # leapfrog its own earlier batch (per-submitter FIFO).
        futures += _submit(scheduler, "A2", _items("a2"), submitter="A")
        futures += _submit(scheduler, "A3", _items("a3"), submitter="A", priority=9)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.started == ["A1", "A2", "A3"]


# ----------------------------------------------------------------------------
# Real-engine fingerprints
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_frontend_workloads(device):
    """Two disjoint schedule families, as two independent frontends produce."""
    ansatz = efficient_su2(4, reps=2, entanglement="circular")
    rng = np.random.default_rng(33)
    families = []
    for _ in range(2):
        bound = ansatz.bind_parameters(
            rng.uniform(-math.pi, math.pi, ansatz.num_parameters)
        )
        bound.measure_all()
        compiled = transpile(bound, device)
        schedules = [compiled.scheduled]
        for window in compiled.idle_windows[:2]:
            schedules.append(reschedule_gate(compiled.scheduled, window, GSConfig(0.5)))
        families.append(schedules)
    return families


@pytest.fixture(scope="module")
def prefix_family(device):
    """A compiled circuit and a candidate that moves a gate in its *last*
    idle window, so the two share a deep simulated prefix."""
    ansatz = efficient_su2(4, reps=2, entanglement="circular")
    rng = np.random.default_rng(44)
    bound = ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))
    bound.measure_all()
    compiled = transpile(bound, device)
    candidate = reschedule_gate(compiled.scheduled, compiled.idle_windows[-1], GSConfig(0.5))
    return compiled.scheduled, candidate


@pytest.fixture(scope="module")
def overlapping_workloads(device):
    """Two families sharing exactly one schedule (the base): what two
    frontends sweeping different windows of one compiled circuit submit."""
    ansatz = efficient_su2(4, reps=2, entanglement="circular")
    rng = np.random.default_rng(55)
    bound = ansatz.bind_parameters(
        rng.uniform(-math.pi, math.pi, ansatz.num_parameters)
    )
    bound.measure_all()
    compiled = transpile(bound, device)
    base = compiled.scheduled
    first = [base, reschedule_gate(base, compiled.idle_windows[0], GSConfig(0.3))]
    second = [base, reschedule_gate(base, compiled.idle_windows[1], GSConfig(0.7))]
    return [first, second]


# ----------------------------------------------------------------------------
# Two frontends sharing one engine (the multi-tenant story)
# ----------------------------------------------------------------------------

def _run_frontends_concurrently(engine, workloads, hamiltonian):
    """Each workload runs on its own thread through its own estimator."""
    estimators = [
        ExpectationEstimator(engine.noise_model, seed=9, engine=engine) for _ in workloads
    ]
    results: dict = {}
    errors: list = []

    def frontend(index):
        try:
            futures = []
            for schedules in workloads[index]:
                futures.extend(estimators[index].submit_batch(schedules, hamiltonian))
            results[index] = [r.value for r in gather(futures)]
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=frontend, args=(i,)) for i in range(len(workloads))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    return [results[index] for index in range(len(workloads))]


def _concurrent_values(device, workloads, hamiltonian):
    """Two racing frontends on a fresh shared engine (seed 3)."""
    engine = NoisyDensityMatrixEngine(NoiseModel.from_device(device), seed=3)
    try:
        return _run_frontends_concurrently(engine, workloads, hamiltonian)
    finally:
        engine.close()


def _racing(device, workloads, hamiltonian, where):
    """``_concurrent_values`` here (``"serial"``) or in a process-map worker."""
    if where == "process":
        return in_worker.run(_concurrent_values, device, workloads, hamiltonian)
    return _concurrent_values(device, workloads, hamiltonian)


class TestConcurrentFrontendParity:
    @pytest.mark.parametrize("tier", ("serial", "process"))
    def test_bit_identical_to_serial_drain(
        self, device, device_noise, two_frontend_workloads, tfim4, tier
    ):
        # Each frontend submits its family in two batches to exercise
        # per-submitter FIFO alongside cross-submitter interleaving.
        workloads = [
            [family[:2], family[2:]] for family in two_frontend_workloads
        ]
        concurrent = _racing(device, workloads, tfim4, tier)
        # Reference: a fresh engine draining the same schedules serially.
        reference_engine = NoisyDensityMatrixEngine(device_noise, seed=3)
        reference_estimator = ExpectationEstimator(
            device_noise, seed=9, engine=reference_engine
        )
        for family, values in zip(two_frontend_workloads, concurrent):
            blocking = [
                r.value for r in reference_estimator.estimate_batch(family, tfim4)
            ]
            assert values == blocking
        reference_engine.close()

    @pytest.mark.parametrize("tier", ("serial", "process"))
    def test_overlapping_batches_bit_identical_to_serial_drain(
        self, device, device_noise, overlapping_workloads, tfim4, tier
    ):
        """The two frontends' batches share exactly one item (the base
        schedule), and whichever runs second is served it from the cache:
        the values still match a serial drain bit for bit."""
        workloads = [[family] for family in overlapping_workloads]
        concurrent = _racing(device, workloads, tfim4, tier)
        reference_engine = NoisyDensityMatrixEngine(device_noise, seed=3)
        reference_estimator = ExpectationEstimator(
            device_noise, seed=9, engine=reference_engine
        )
        for family, values in zip(overlapping_workloads, concurrent):
            blocking = [
                r.value for r in reference_estimator.estimate_batch(family, tfim4)
            ]
            assert values == blocking
        # Both frontends agree on the shared base schedule exactly.
        assert concurrent[0][0] == concurrent[1][0]
        reference_engine.close()

    def test_stats_and_caches_merge_under_racing_completions(
        self, device_noise, two_frontend_workloads, tfim4
    ):
        workloads = [[family] for family in two_frontend_workloads]
        shared = NoisyDensityMatrixEngine(device_noise, seed=3)
        _run_frontends_concurrently(shared, workloads, tfim4)
        # The racing submissions lost no counter updates: the totals match a
        # serial drain of the same batches.
        drain = NoisyDensityMatrixEngine(device_noise, seed=3)
        drain_estimator = ExpectationEstimator(device_noise, seed=9, engine=drain)
        for family in two_frontend_workloads:
            drain_estimator.estimate_batch(family, tfim4)
        assert shared.stats.as_dict() == drain.stats.as_dict()
        # Every schedule's expectation landed in the caches exactly once: a
        # blocking re-query is all hits, no simulation.
        simulated = shared.stats.instructions_simulated
        executions = shared.stats.executions
        all_schedules = [s for family in two_frontend_workloads for s in family]
        requery = shared.expectation_batch(all_schedules, tfim4)
        assert shared.stats.instructions_simulated == simulated
        assert shared.stats.executions == executions
        assert requery == drain.expectation_batch(all_schedules, tfim4)
        shared.close()
        drain.close()


# ----------------------------------------------------------------------------
# Engine teardown through the scheduler
# ----------------------------------------------------------------------------

class TestEngineClose:
    def test_close_is_idempotent_with_futures_pending(self, two_frontend_workloads, tfim4, device_noise):
        engine = NoisyDensityMatrixEngine(device_noise, seed=5)
        futures = engine.submit_expectation_batch(two_frontend_workloads[0], tfim4)
        engine.close()
        engine.close()  # second close with (now resolved) futures: no raise
        assert all(future.done() for future in futures)
        values = gather(futures)
        assert values == engine.expectation_batch(two_frontend_workloads[0], tfim4)
        engine.close()

    def test_concurrent_closes_both_drain(self, two_frontend_workloads, tfim4, device_noise):
        engine = NoisyDensityMatrixEngine(device_noise, seed=6)
        futures = engine.submit_expectation_batch(two_frontend_workloads[1], tfim4)
        threads = [threading.Thread(target=engine.close) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert all(future.done() for future in futures)
        gather(futures)

    def test_shutdown_during_partial_slice_drains_residual_items(self):
        """A shutdown issued while one batch runs and another waits returns
        only after both ran: nothing queued is dropped."""
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        futures = _submit(scheduler, "A1", ["a"])
        assert engine.wait_started(1)
        futures += _submit(scheduler, "B1", ["b", "c"])
        done = threading.Event()

        def close_now():
            scheduler.shutdown(wait=True)
            done.set()

        closer = threading.Thread(target=close_now)
        closer.start()
        assert not done.wait(0.25)  # blocked on the running batch
        gate.set()
        assert done.wait(10)
        closer.join(timeout=10)
        gather(futures)  # every item resolved — the queued batch was not dropped
        assert engine.finished == ["A1", "B1"]

    def test_close_from_done_callback_does_not_deadlock(self, logical_circuits_sched, tfim4, device_noise):
        engine = NoisyDensityMatrixEngine(device_noise, seed=7)
        closed = threading.Event()

        def close_engine(_future):
            engine.close()
            closed.set()

        futures = engine.submit_expectation_batch(logical_circuits_sched, tfim4)
        futures[-1].add_done_callback(close_engine)
        gather(futures)
        assert closed.wait(timeout=30)
        # The engine stays usable afterwards.
        assert gather(engine.submit_expectation_batch(logical_circuits_sched, tfim4)) == gather(futures)
        engine.close()


@pytest.fixture(scope="module")
def logical_circuits_sched(device):
    ansatz = efficient_su2(4, reps=1, entanglement="linear")
    rng = np.random.default_rng(12)
    bound = ansatz.bind_parameters(rng.uniform(-math.pi, math.pi, ansatz.num_parameters))
    bound.measure_all()
    return [transpile(bound, device).scheduled]
