"""Tests for the slot-based batch scheduler (:mod:`repro.engine.scheduler`).

Covers the policies ``docs/scheduler.md`` promises:

* per-tier slots — independent batches overlap up to the tier's slot limit,
  the serial tier never overlaps;
* dependency detection — item-level edges: only items whose deep hash-chain
  entries overlap a running slice wait; batches sharing one item overlap on
  the rest, disjoint ones run concurrently, and the chain root (shared
  device/layout context) never counts as a conflict;
* fairness — round-robin across submitters keeps a saturating submitter from
  starving an occasional one; a priority hint overrides round-robin order;
* concurrent-frontend parity — two estimators sharing one engine get
  bit-identical values to a serial drain, with stats and caches merged
  correctly under racing completions;
* pool sharing — concurrent process-tier batches share one worker pool and
  never retire each other's workers;
* teardown — ``engine.close()`` is idempotent, drains pending futures, and
  is safe from inside a done-callback.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.circuits import efficient_su2
from repro.engine import (
    BatchScheduler,
    NoisyDensityMatrixEngine,
    StatevectorEngine,
    gather,
)
from repro.engine.parallel import EngineWorkerSpec, ProcessPoolRegistry
from repro.engine.scheduler import DEFAULT_SLOTS, job_chains, job_fingerprints
from repro.exceptions import EngineError
from repro.mitigation.gate_scheduling import GSConfig, reschedule_gate
from repro.transpiler import transpile
from repro.vqe import ExpectationEstimator

WORKERS = 2


# ----------------------------------------------------------------------------
# A controllable probe engine for scheduling-policy tests
# ----------------------------------------------------------------------------

class _ProbeEngine:
    """Engine stand-in that records batch concurrency and execution order.

    Batch items *are* their hash chains (tuples of strings), so tests inject
    conflicts directly; each batch carries a ``tag`` in its kwargs and can be
    gated on an event to hold it in its executing state.
    """

    def __init__(self):
        self.condition = threading.Condition()
        self.active: list = []
        self.started: list = []
        self.finished: list = []
        self.max_active = 0
        self.gates: dict = {}

    def _shard_chain(self, kind, item):
        return item

    def _dispatch_batch(self, kind, items, kwargs, max_workers, parallelism, chains=None):
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
    """Disjoint two-entry chains rooted in a shared (excluded) root."""
    return [("root", f"{prefix}-{index}") for index in range(count)]


def _submit(scheduler, tag, items, *, tier="process", submitter=None, priority=0, gated=None):
    if gated is not None:
        gated.engine.gates.setdefault(tag, gated.event)
    return scheduler.submit(
        "run", items, {"tag": tag}, max_workers=WORKERS, parallelism=tier,
        submitter=submitter if submitter is not None else tag[0], priority=priority,
    )


class TestSlotPolicy:
    def test_disjoint_thread_batches_overlap_up_to_slot_limit(self):
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        for tag in ("A1", "B1", "C1"):
            engine.gates[tag] = gate
        futures = []
        futures += _submit(scheduler, "A1", _items("a"))
        futures += _submit(scheduler, "B1", _items("b"))
        futures += _submit(scheduler, "C1", _items("c"))
        assert engine.wait_started(2)
        # The third disjoint batch must wait: the process tier has two slots.
        assert not engine.wait_started(3, timeout=0.25)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == DEFAULT_SLOTS["process"] == 2

    def test_serial_tier_never_overlaps(self):
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        engine.gates["B1"] = gate
        futures = _submit(scheduler, "A1", _items("a"), tier="serial")
        futures += _submit(scheduler, "B1", _items("b"), tier="serial")
        assert engine.wait_started(1)
        assert not engine.wait_started(2, timeout=0.25)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 1

    def test_deep_prefix_conflicts_serialize(self):
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        # The shared prefix covers 3 of 4 instructions — deep enough that
        # serializing preserves real checkpoint reuse.
        shared = [("root", "s1", "s2", "s3", "a-tail"), ("root", "other-1", "other-2")]
        overlapping = [("root", "s1", "s2", "s3", "b-tail")]
        futures = _submit(scheduler, "A1", shared)
        assert engine.wait_started(1)
        futures += _submit(scheduler, "B1", overlapping)
        assert not engine.wait_started(2, timeout=0.25)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 1
        assert engine.started == ["A1", "B1"]

    def test_shallow_shared_prefix_does_not_serialize(self):
        # Same-ansatz frontends share their parameter-independent leading
        # instructions; that shallow prefix (1 of 4 here) is not worth
        # serializing for — the batches must overlap.
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        engine.gates["B1"] = gate
        futures = _submit(
            scheduler,
            "A1",
            [("root", "prep", "a2", "a3", "a4"), ("root", "prep", "a2x", "a3x", "a4x")],
        )
        futures += _submit(
            scheduler,
            "B1",
            [("root", "prep", "b2", "b3", "b4"), ("root", "prep", "b2x", "b3x", "b4x")],
        )
        assert engine.wait_started(2)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 2

    def test_identical_schedules_always_conflict(self):
        # Content-identical items share the full fingerprint, which is always
        # part of the conflict key no matter the chain length.
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        same = [("root", "x1", "x2", "x3", "x4")]
        futures = _submit(scheduler, "A1", same)
        assert engine.wait_started(1)
        futures += _submit(scheduler, "B1", list(same))
        assert not engine.wait_started(2, timeout=0.25)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 1

    def test_chain_roots_do_not_conflict(self):
        # Same root, disjoint instruction entries: must overlap.
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        engine.gates["B1"] = gate
        futures = _submit(scheduler, "A1", [("root", "a-1"), ("root", "a-2")])
        futures += _submit(scheduler, "B1", [("root", "b-1"), ("root", "b-2")])
        assert engine.wait_started(2)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 2


class TestItemLevelDependencies:
    """Conflicts are item-level edges, not whole-batch keys: a batch sharing
    one item with a running batch dispatches everything else immediately and
    holds back only the conflicting item (``docs/scheduler.md``)."""

    SHARED = ("root", "s1", "s2", "s3", "shared-tail")

    def test_batches_sharing_one_item_overlap_on_the_rest(self):
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate_a, gate_b = threading.Event(), threading.Event()
        engine.gates["A1"] = gate_a
        engine.gates["B1"] = gate_b
        futures = _submit(
            scheduler, "A1", [self.SHARED, ("root", "a-1"), ("root", "a-2")]
        )
        assert engine.wait_started(1)
        futures += _submit(
            scheduler, "B1", [self.SHARED, ("root", "b-1"), ("root", "b-2")]
        )
        # B's disjoint items dispatch while A runs — no whole-batch
        # serialization despite the shared item...
        assert engine.wait_started(2)
        assert engine.started == ["A1", "B1"]
        # ...but the shared item itself waits, even after B's partial slice
        # completes, until A releases its edge.
        gate_b.set()
        assert not engine.wait_started(3, timeout=0.25)
        gate_a.set()
        gather(futures)
        scheduler.shutdown()
        # The residual (the shared item) dispatched as a second B1 slice.
        assert engine.started == ["A1", "B1", "B1"]
        assert engine.max_active == 2

    def test_partially_dispatched_batch_keeps_submitter_fifo(self):
        """A batch is the head of its submitter's queue until *fully*
        dispatched: a later batch from the same submitter cannot leapfrog the
        held-back residual even when slots are free and its items are
        disjoint."""
        engine = _ProbeEngine()
        scheduler = BatchScheduler(
            engine, slots={"process": 3}, name="test-scheduler"
        )
        gate_a, gate_b = threading.Event(), threading.Event()
        engine.gates["A1"] = gate_a
        engine.gates["B1"] = gate_b
        engine.gates["B2"] = gate_b
        futures = _submit(scheduler, "A1", [self.SHARED], submitter="A")
        assert engine.wait_started(1)
        futures += _submit(
            scheduler, "B1", [self.SHARED, ("root", "b-1")], submitter="B"
        )
        assert engine.wait_started(2)  # B1's disjoint item overlaps A1
        futures += _submit(scheduler, "B2", [("root", "c-1")], submitter="B")
        # A slot is free and B2 conflicts with nothing, but B1's residual
        # holds the head of B's queue.
        gate_b.set()
        assert not engine.wait_started(3, timeout=0.25)
        assert engine.started == ["A1", "B1"]
        gate_a.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.started[:2] == ["A1", "B1"]
        assert sorted(engine.started[2:]) == ["B1", "B2"]

    def test_conflicting_items_never_run_concurrently(self):
        """Whatever the interleaving, two slices carrying the same deep item
        are never simultaneously active (the parity tests check values; this
        pins the mutual exclusion itself)."""
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate = threading.Event()
        engine.gates["A1"] = gate
        futures = _submit(scheduler, "A1", [self.SHARED])
        assert engine.wait_started(1)
        futures += _submit(scheduler, "B1", [self.SHARED])
        futures += _submit(scheduler, "C1", [self.SHARED])
        assert not engine.wait_started(2, timeout=0.25)
        gate.set()
        gather(futures)
        scheduler.shutdown()
        assert engine.max_active == 1
        assert engine.started[0] == "A1"
        assert sorted(engine.started[1:]) == ["B1", "C1"]


class TestFairnessAndPriority:
    def _single_slot_scheduler(self, engine):
        return BatchScheduler(
            engine, slots={"process": 1}, name="test-scheduler"
        )

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

    @pytest.mark.parametrize("tier", ("gpu", "thread"))
    def test_slot_table_rejects_unknown_tiers(self, tier):
        with pytest.raises(EngineError, match="unknown tier"):
            BatchScheduler(_ProbeEngine(), slots={tier: 4}, name="test-scheduler")
        # On an engine the table is read when the first submission builds
        # the scheduler: that submission fails instead of running with the
        # entry silently ignored.
        engine = StatevectorEngine(seed=1)
        engine.scheduler_slots = {tier: 4}
        with pytest.raises(EngineError, match="unknown tier"):
            engine.submit_batch([])
        engine.close()

    def test_scheduler_slots_are_per_engine(self):
        from repro.engine.scheduler import DEFAULT_SLOTS as defaults

        one = StatevectorEngine(seed=1)
        two = StatevectorEngine(seed=1)
        one.scheduler_slots["process"] = 8
        assert two.scheduler_slots["process"] == defaults["process"] == 2
        one.close()
        two.close()

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


class TestJobFingerprints:
    def test_sweep_candidates_conflict_and_frontends_do_not(
        self, device, device_noise, two_frontend_workloads
    ):
        engine = NoisyDensityMatrixEngine(device_noise, seed=1)
        ansatz = efficient_su2(4, reps=2, entanglement="circular")
        rng = np.random.default_rng(44)
        bound = ansatz.bind_parameters(
            rng.uniform(-math.pi, math.pi, ansatz.num_parameters)
        )
        bound.measure_all()
        compiled = transpile(bound, device)
        # A candidate modifying a *late* window shares a deep prefix with the
        # base schedule -> conflict (serializing preserves checkpoint reuse).
        candidate = reschedule_gate(
            compiled.scheduled, compiled.idle_windows[-1], GSConfig(0.5)
        )
        base = job_fingerprints(job_chains(engine, "run", [compiled.scheduled]))
        late = job_fingerprints(job_chains(engine, "run", [candidate]))
        assert base & late
        # Different frontends' bound circuits share no meaningful prefix
        # (the chain root and shallow prep prefixes are excluded by design)
        # -> no conflict.
        first, second = two_frontend_workloads
        assert not job_fingerprints(job_chains(engine, "run", first)) & job_fingerprints(
            job_chains(engine, "run", second)
        )
        engine.close()


# ----------------------------------------------------------------------------
# Two frontends sharing one engine (the multi-tenant story)
# ----------------------------------------------------------------------------

def _run_frontends_concurrently(engine, workloads, hamiltonian, tier="process"):
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
                futures.extend(
                    estimators[index].submit_batch(
                        schedules, hamiltonian, max_workers=WORKERS, parallelism=tier
                    )
                )
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


class TestConcurrentFrontendParity:
    @pytest.mark.parametrize("tier", ("serial", "process"))
    def test_bit_identical_to_serial_drain(
        self, device_noise, two_frontend_workloads, tfim4, tier
    ):
        # Each frontend submits its family in two batches to exercise
        # per-submitter FIFO alongside cross-submitter overlap.
        workloads = [
            [family[:2], family[2:]] for family in two_frontend_workloads
        ]
        shared = NoisyDensityMatrixEngine(device_noise, seed=3)
        concurrent = _run_frontends_concurrently(shared, workloads, tfim4, tier=tier)
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
        shared.close()
        reference_engine.close()

    @pytest.mark.parametrize("tier", ("serial", "process"))
    def test_overlapping_batches_bit_identical_to_serial_drain(
        self, device_noise, overlapping_workloads, tfim4, tier
    ):
        """Item-level edges under racing completions: the two frontends'
        batches share exactly one item (the base schedule), so on the process
        tier the scheduler overlaps them on the candidates and serializes
        only the base (the serial tier overlaps nothing) — and on both tiers
        the values still match a serial drain bit for bit."""
        shared = NoisyDensityMatrixEngine(device_noise, seed=3)
        workloads = [[family] for family in overlapping_workloads]
        concurrent = _run_frontends_concurrently(shared, workloads, tfim4, tier=tier)
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
        shared.close()
        reference_engine.close()

    def test_stats_and_caches_merge_under_racing_completions(
        self, device_noise, two_frontend_workloads, tfim4
    ):
        workloads = [[family] for family in two_frontend_workloads]
        shared = NoisyDensityMatrixEngine(device_noise, seed=3)
        _run_frontends_concurrently(shared, workloads, tfim4, tier="process")
        # The racing merges lost no counter updates: the parent's totals
        # match a serial drain of the *same* process-tier batches (identical
        # shard plans, so identical worker-side stats deltas).
        drain = NoisyDensityMatrixEngine(device_noise, seed=3)
        drain_estimator = ExpectationEstimator(device_noise, seed=9, engine=drain)
        for family in two_frontend_workloads:
            drain_estimator.estimate_batch(
                family, tfim4, max_workers=WORKERS, parallelism="process"
            )
        assert shared.stats.as_dict() == drain.stats.as_dict()
        # Every schedule's expectation landed in the parent caches exactly
        # once: a blocking re-query is all hits, no simulation.
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
# Pool sharing across overlapping batches
# ----------------------------------------------------------------------------

class TestPoolSharing:
    def test_concurrent_process_batches_share_one_pool(
        self, device_noise, two_frontend_workloads, tfim4
    ):
        workloads = [[family] for family in two_frontend_workloads]
        shared = NoisyDensityMatrixEngine(device_noise, seed=4)
        _run_frontends_concurrently(shared, workloads, tfim4, tier="process")
        # Both frontends' process batches ran on one pool; nobody retired
        # the other's workers mid-flight.
        assert len(shared._pools.handles()) == 1
        shared.close()

    def test_registry_shares_live_pools_and_defers_stale_shutdown(self):
        registry = ProcessPoolRegistry()
        spec_a = EngineWorkerSpec(StatevectorEngine, {"seed": 1}, cache_key="ctx-a")
        executor_1, key_1 = registry.acquire(spec_a, 2)
        # A concurrent batch with a different worker count shares the live
        # pool instead of retiring it.
        executor_2, key_2 = registry.acquire(spec_a, 3)
        assert executor_2 is executor_1 and key_2 == key_1
        assert len(registry.handles()) == 1
        # A stale configuration must not rip the busy pool away: the old pool
        # survives until its last release, the new one coexists.
        spec_b = EngineWorkerSpec(StatevectorEngine, {"seed": 1}, cache_key="ctx-b")
        executor_3, key_3 = registry.acquire(spec_b, 2)
        assert executor_3 is not executor_1
        assert len(registry.handles()) == 2
        registry.release(key_1)
        assert len(registry.handles()) == 2  # still in use by the sharer
        registry.release(key_2)
        assert registry.handles() == [h for h in registry.handles() if h.key == key_3]
        registry.release(key_3)
        registry.shutdown()
        assert registry.handles() == []

    def test_registry_reuses_an_idle_pool_unless_it_is_too_small(self):
        # The process tier clamps its worker count to the batch size, so a
        # 2-item batch after a 3-item one asks for 2 workers: the idle
        # 3-worker pool, and its warm worker caches, must serve it.
        registry = ProcessPoolRegistry()
        spec = EngineWorkerSpec(StatevectorEngine, {"seed": 1}, cache_key="ctx-a")
        executor_3, key_3 = registry.acquire(spec, 3)
        registry.release(key_3)
        executor_2, key_2 = registry.acquire(spec, 2)
        assert executor_2 is executor_3 and key_2 == key_3
        registry.release(key_2)
        # A batch needing more workers than the idle pool has replaces it.
        executor_4, key_4 = registry.acquire(spec, 4)
        assert executor_4 is not executor_3
        assert [handle.key for handle in registry.handles()] == [key_4]
        assert key_4[1] == 4
        registry.release(key_4)
        registry.shutdown()

    def test_registry_retires_idle_stale_pools_immediately(self):
        registry = ProcessPoolRegistry()
        spec_a = EngineWorkerSpec(StatevectorEngine, {"seed": 1}, cache_key="ctx-a")
        _, key = registry.acquire(spec_a, 2)
        registry.release(key)
        spec_b = EngineWorkerSpec(StatevectorEngine, {"seed": 1}, cache_key="ctx-b")
        _, key_b = registry.acquire(spec_b, 2)
        handles = registry.handles()
        assert [handle.key for handle in handles] == [key_b]
        registry.release(key_b)
        registry.shutdown()


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
        """``close()`` while a batch is only *partially* dispatched must not
        drop the residual items.

        Batch B shares one item with a running batch A, so B dispatches a
        partial ``_RunningSlice`` (the disjoint item) while the conflicting
        item stays pending.  A shutdown issued in exactly that state has to
        wait for A, then dispatch B's residual as a second slice, and only
        then return — every future resolves, nothing is abandoned.
        """
        engine = _ProbeEngine()
        scheduler = BatchScheduler(engine, name="test-scheduler")
        gate_a, gate_b = threading.Event(), threading.Event()
        engine.gates["A1"] = gate_a
        engine.gates["B1"] = gate_b
        shared = [("root", "x", "x-deep")]
        futures = _submit(scheduler, "A1", shared)
        assert engine.wait_started(1)
        # B's first item conflicts with A's running slice; its second is
        # disjoint and dispatches immediately as a partial slice.
        futures += _submit(scheduler, "B1", shared + [("root", "y", "y-deep")])
        assert engine.wait_started(2)

        outcome = {}
        done = threading.Event()

        def close_now():
            outcome["drained"] = scheduler.shutdown(wait=True)
            done.set()

        closer = threading.Thread(target=close_now)
        closer.start()
        assert not done.wait(0.25)  # blocked on the in-flight slices
        gate_b.set()  # B's partial slice finishes; its residual still waits on A
        assert not done.wait(0.25)
        gate_a.set()
        assert done.wait(10)
        closer.join(timeout=10)
        assert outcome["drained"] is True
        gather(futures)  # every item resolved — the residual was not dropped
        assert engine.finished.count("B1") == 2  # residual ran as a second slice
        assert engine.finished.count("A1") == 1

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
