"""The :class:`ExecutionEngine` abstraction — one backend API for every run.

Every part of the reproduction that executes circuits (expectation
estimation, VQE objectives, the independent-window tuner, the runtime session
model, the benchmark harness) talks to a single engine interface instead of
instantiating simulators ad hoc:

* :meth:`ExecutionEngine.run` — execute one circuit, returning an
  :class:`EngineResult`,
* :meth:`ExecutionEngine.run_batch` — execute many circuits, order-stably and
  with shared caching (optionally fanned out over worker processes),
* :meth:`ExecutionEngine.expectation` / :meth:`expectation_batch` — estimate
  ``<H>`` of a Pauli-sum observable for one or many circuits.

Batch methods accept ``parallelism="serial" | "process"`` plus
``max_workers``.  The process tier (:mod:`repro.engine.parallel`) rebuilds
the engine in worker processes, shards the batch so prefix-reuse chains stay
within one worker, and merges worker cache entries back into the parent.
Results are identical on both tiers for a seeded engine (see the seeding
contract below).  Engines are also safe to share between threads: caller
threads and overlapping scheduler slots meet behind the engines' locks.

Every batch method also has an asynchronous counterpart — :meth:`submit`,
:meth:`submit_batch`, :meth:`submit_expectation_batch` — returning ordered
:class:`~repro.engine.futures.EngineFuture` handles instead of blocking.
Submissions land on a persistent per-engine slot scheduler
(:mod:`repro.engine.scheduler`): independent batches from different
frontends overlap up to per-tier slot limits, batches whose schedules share
simulated prefixes serialize, submitters are served round-robin, and pools
are never torn down between batches.  Per the seeding contract async results
are bit-identical to blocking calls; see ``docs/scheduler.md`` and
``docs/async.md``.

Three concrete engines cover the reproduction's backends:

* :class:`~repro.engine.statevector_engine.StatevectorEngine` — ideal,
  noise-free execution of logical circuits,
* :class:`~repro.engine.density_engine.NoisyDensityMatrixEngine` —
  schedule-aware noisy density-matrix execution of scheduled circuits, with a
  prefix-reuse fast path for families of near-identical schedules,
* :class:`~repro.engine.fake_device_engine.FakeDeviceEngine` — a fake IBM
  machine: transpiles logical circuits and executes them noisily, caching the
  transpilation per circuit content.

Caching contract
----------------
Results are cached by *content fingerprint* (see
:mod:`repro.engine.fingerprint`), never by object identity, so identical
circuits are never simulated twice — no matter which frontend submitted them.
Cache hits return the same numbers the original execution produced, bit for
bit.  For scheduled circuits the fingerprints, hash chains, prefix
checkpoints, shard chains and scheduler conflict keys all digest the order
the simulator executes (time order, :mod:`repro.engine.canonical`), so a
shared chain prefix always identifies a bit-identically replayable evolution
prefix.

Seeding contract
----------------
Whenever an engine needs randomness (shot sampling), the generator seed is
derived deterministically from ``(engine seed, item content fingerprint)``
via :func:`repro.engine.fingerprint.derive_seed`.  Consequences, guaranteed
across all engines constructed with a seed:

* ``run_batch(circuits)`` equals ``[run(c) for c in circuits]`` exactly,
  element by element, regardless of batch order, cache state, prefix reuse,
  execution tier or concurrent callers;
* re-running the same circuit on the same engine reproduces the same samples;
* two engines constructed with the same seed agree with each other;
* an explicit ``seed=...`` argument to a sampling method overrides the
  derived seed for that call only.

An engine constructed *without* a seed draws fresh OS entropy for every
sampling call (matching the behaviour of an unseeded simulator): repeated
calls give independent samples, and sampled expectation values are not
served from the cache.  Passing ``shots=None`` requests the exact
(infinite-shot) distribution, which involves no randomness at all.
"""

from __future__ import annotations

import abc
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EngineError
from .futures import DEFAULT_MAX_PENDING, EngineFuture
from .parallel import (
    CacheRecord,
    EngineWorkerSpec,
    ProcessPoolRegistry,
    process_map,
    resolve_parallelism,
)
from .scheduler import DEFAULT_SLOTS, BatchScheduler


@dataclass
class EngineStats:
    """Execution and cache counters, for perf tracking and benchmark output."""

    executions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    prefix_resumes: int = 0
    instructions_simulated: int = 0
    instructions_reused: int = 0
    expectation_calls: int = 0
    expectation_cache_hits: int = 0
    transpile_cache_hits: int = 0
    transpile_cache_misses: int = 0
    #: PTM-kernel counters (zero on the dense kernel): fused kernel
    #: applications during schedule evolution, op applications absorbed into
    #: an already-open fused run, and the widest row count driven through one
    #: batched measurement kernel.  All three are deterministic for a given
    #: serial workload, making the kernel win auditable without timing.
    ptm_matmuls: int = 0
    instructions_fused: int = 0
    batch_width: int = 0
    #: Segment-cache counters (see ``docs/segment_reuse.md``; zero on the
    #: dense kernel, like ``ptm_matmuls``): replays of a cached segment's
    #: fused kernels, and first-time compilations that populated the cache.
    #: Instructions covered by replayed segments count into
    #: ``instructions_reused`` alongside prefix-resumed ones.
    segment_hits: int = 0
    segment_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of instruction processing avoided via reuse — prefix
        snapshots plus segment-cache replays."""
        total = self.instructions_simulated + self.instructions_reused
        return self.instructions_reused / total if total else 0.0

    @property
    def segment_hit_rate(self) -> float:
        total = self.segment_hits + self.segment_misses
        return self.segment_hits / total if total else 0.0

    def add_counters(self, delta: Dict[str, int]) -> None:
        """Fold a worker's counter delta into this stats object (by field name).

        Unknown keys are ignored so that stats payloads from slightly older or
        newer worker builds cannot crash a merge.
        """
        for name, value in delta.items():
            if hasattr(self, name) and not isinstance(getattr(type(self), name, None), property):
                if name == "batch_width":
                    # A high-water mark, not a running total.
                    setattr(self, name, max(getattr(self, name), value))
                else:
                    setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> Dict[str, float]:
        return {
            "executions": self.executions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "prefix_resumes": self.prefix_resumes,
            "instructions_simulated": self.instructions_simulated,
            "instructions_reused": self.instructions_reused,
            "reuse_fraction": self.reuse_fraction,
            "expectation_calls": self.expectation_calls,
            "expectation_cache_hits": self.expectation_cache_hits,
            "transpile_cache_hits": self.transpile_cache_hits,
            "transpile_cache_misses": self.transpile_cache_misses,
            "ptm_matmuls": self.ptm_matmuls,
            "instructions_fused": self.instructions_fused,
            "batch_width": self.batch_width,
            "segment_hits": self.segment_hits,
            "segment_misses": self.segment_misses,
            "segment_hit_rate": self.segment_hit_rate,
        }


@dataclass
class EngineResult:
    """The outcome of executing one circuit on an engine.

    ``state`` is backend-specific (a statevector for the ideal engine, a
    :class:`~repro.simulators.density_matrix.DensityMatrix` for the noisy
    ones) and must be treated as read-only when ``from_cache`` is set.
    """

    fingerprint: str
    engine: str
    state: Any = None
    probabilities: Optional[np.ndarray] = None
    clbit_order: Optional[List[int]] = None
    counts: Optional[Dict[str, int]] = None
    from_cache: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExpectationData:
    """``<H>`` plus per-measurement-group diagnostics."""

    value: float
    group_values: List[float]
    distributions: List[np.ndarray]


class ExecutionEngine(abc.ABC):
    """Abstract base of all execution backends (see module docstring)."""

    name = "engine"

    #: The payload kind this engine executes — ``"circuit"`` for logical
    #: circuits, ``"scheduled"`` for device-bound schedules.  Ingested
    #: programs (:class:`repro.frontend.IngestedProgram`) use it to hand an
    #: engine the matching object, transpiling on demand; see
    #: :meth:`_resolve_program`.
    program_input = "circuit"

    #: Backpressure bound for :meth:`submit_batch` and friends: the number of
    #: submitted-but-not-yet-executing batches the scheduler queues before
    #: further ``submit*`` calls block (see ``docs/scheduler.md``).  Assign on
    #: an instance before its first submission to resize.
    max_pending_batches: int = DEFAULT_MAX_PENDING

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self.stats = EngineStats()
        #: Concurrent-batch slots per execution tier for this engine's
        #: scheduler (``{"serial": 1, "process": 2}`` by default; the serial
        #: tier is always pinned to one slot).  A private copy per instance
        #: — reassign or mutate it before the first submission to resize;
        #: see ``docs/scheduler.md``.
        self.scheduler_slots: Dict[str, int] = dict(DEFAULT_SLOTS)
        #: Persistent process pools, shared by concurrent batches (see
        #: :class:`~repro.engine.parallel.ProcessPoolRegistry`).
        self._pools = ProcessPoolRegistry()
        #: Serializes stats merge-back: with the slot scheduler several
        #: process-tier batches can complete (and fold worker counter deltas)
        #: concurrently.
        self._stats_lock = threading.Lock()
        #: Persistent batch scheduler (created lazily by the first submit)
        #: and the lock guarding its creation — two threads racing their
        #: first submit must share one scheduler or fairness accounting and
        #: per-submitter ordering break.  One finalizer handle per engine:
        #: recreating the scheduler after a close() replaces it rather than
        #: accumulating finalizers that would pin dead schedulers.
        self._scheduler: Optional[BatchScheduler] = None
        self._scheduler_finalizer: Optional[weakref.finalize] = None
        self._scheduler_lock = threading.Lock()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, circuit) -> EngineResult:
        """Execute one circuit and return its :class:`EngineResult`."""

    @abc.abstractmethod
    def expectation(
        self, circuit, observable, shots: Optional[int] = None, seed: Optional[int] = None
    ) -> float:
        """Estimate ``<observable>`` for one circuit.

        ``seed`` overrides the engine seeding contract for this call only
        (engines without sampling randomness accept and ignore it)."""

    # ------------------------------------------------------------------
    def run_batch(
        self,
        circuits: Sequence,
        max_workers: Optional[int] = None,
        parallelism: Optional[str] = None,
    ) -> List[EngineResult]:
        """Execute many circuits; output order matches input order.

        ``parallelism`` selects the execution tier:

        * ``"serial"`` — one circuit after another on the calling thread;
        * ``"process"`` — a persistent pool of worker processes, each holding
          a rebuilt copy of this engine; the batch is sharded so schedules
          sharing a simulated prefix stay on one worker, and worker cache
          entries are merged back on return (:mod:`repro.engine.parallel`).
          An engine that cannot cross the process boundary runs it serially.

        ``max_workers`` bounds the pool size (default: one per core).
        ``parallelism=None`` runs serially; ``max_workers > 1`` without
        ``parallelism=`` raises :class:`~repro.exceptions.EngineError`.
        Because of the content-derived seeding contract a seeded engine
        returns identical results on every tier.
        """
        return self._dispatch_batch("run", circuits, {}, max_workers, parallelism)

    def expectation_batch(
        self,
        circuits: Sequence,
        observable,
        shots: Optional[int] = None,
        max_workers: Optional[int] = None,
        parallelism: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[float]:
        """Estimate ``<observable>`` for many circuits, order-stably.

        ``parallelism`` / ``max_workers`` behave as on :meth:`run_batch`.
        An explicit ``seed`` overrides the content-derived sampling seed for
        every item of the batch — exactly like passing the same ``seed`` to
        element-wise :meth:`expectation` calls (callers wanting independent
        per-round randomness, e.g. the adaptive shot collector, derive a
        distinct seed per batch via
        :func:`repro.engine.fingerprint.derive_seed`).
        """
        kwargs = {"observable": observable, "shots": shots, "seed": seed}
        return self._dispatch_batch("expectation", circuits, kwargs, max_workers, parallelism)

    # ------------------------------------------------------------------
    # Asynchronous submission (see repro.engine.scheduler, docs/scheduler.md)
    # ------------------------------------------------------------------
    def submit(self, circuit) -> EngineFuture:
        """Asynchronously execute one circuit; resolves to an :class:`EngineResult`."""
        return self.submit_batch([circuit])[0]

    def submit_batch(
        self,
        circuits: Sequence,
        max_workers: Optional[int] = None,
        parallelism: Optional[str] = None,
        submitter: Any = None,
        priority: int = 0,
    ) -> List[EngineFuture]:
        """Asynchronous :meth:`run_batch`: one future per circuit, in order.

        The batch is queued on the engine's persistent slot scheduler and
        executed through exactly the tier the ``parallelism`` /
        ``max_workers`` knobs resolve to.  Batches from one ``submitter``
        (default: the calling thread) execute FIFO among themselves;
        independent batches from *different* submitters may overlap, up to
        the per-tier limits in :attr:`scheduler_slots`, while batches whose
        schedules share simulated prefixes serialize (see
        ``docs/scheduler.md``).  ``priority`` (higher first) breaks ties
        between runnable batches of different submitters.  Per the seeding
        contract the resolved results are bit-identical to a blocking
        :meth:`run_batch` call no matter how batches overlap.
        ``future.cancel()`` prunes an item whose batch has not started;
        exceptions raised while executing the batch re-raise from
        ``future.result()``.
        """
        return self._submit_job(
            "run", circuits, {}, max_workers, parallelism, submitter, priority
        )

    def submit_expectation_batch(
        self,
        circuits: Sequence,
        observable,
        shots: Optional[int] = None,
        max_workers: Optional[int] = None,
        parallelism: Optional[str] = None,
        submitter: Any = None,
        priority: int = 0,
        seed: Optional[int] = None,
    ) -> List[EngineFuture]:
        """Asynchronous :meth:`expectation_batch`: futures resolving to floats.

        ``seed`` behaves exactly as on the blocking :meth:`expectation_batch`.
        """
        kwargs = {"observable": observable, "shots": shots, "seed": seed}
        return self._submit_job(
            "expectation", circuits, kwargs, max_workers, parallelism, submitter, priority
        )

    def _submit_job(
        self,
        kind: str,
        items: Sequence,
        kwargs: Dict[str, Any],
        max_workers: Optional[int],
        parallelism: Optional[str],
        submitter: Any = None,
        priority: int = 0,
    ) -> List[EngineFuture]:
        """Queue one batch on the (lazily created) scheduler."""
        items = [self._resolve_program(item) for item in items]
        return self._ensure_scheduler().submit(
            kind, items, kwargs, max_workers, parallelism,
            submitter=submitter, priority=priority,
        )

    def _resolve_program(self, item):
        """Unwrap an ingested program into this engine's payload kind.

        Any object exposing ``engine_payload(engine)`` — in practice
        :class:`repro.frontend.IngestedProgram` — resolves to the circuit or
        schedule this engine executes; everything else passes through
        untouched.  Duck-typed so the engine layer never imports the
        frontend.
        """
        payload = getattr(item, "engine_payload", None)
        if payload is not None and callable(payload):
            return payload(self)
        return item

    def _ensure_scheduler(self) -> BatchScheduler:
        """The engine's persistent scheduler, (re)created after a close().

        The scheduler holds the engine weakly and a finalizer cancels
        whatever is still queued, so an abandoned engine is still collectable
        without an explicit :meth:`close`.
        """
        with self._scheduler_lock:
            scheduler = self._scheduler
            if scheduler is None or scheduler.closed:
                scheduler = BatchScheduler(
                    self,
                    slots=self.scheduler_slots,
                    max_pending=self.max_pending_batches,
                    name=f"{self.name}-scheduler",
                )
                if self._scheduler_finalizer is not None:
                    self._scheduler_finalizer.detach()
                self._scheduler_finalizer = weakref.finalize(
                    self, BatchScheduler.shutdown, scheduler, False
                )
                self._scheduler = scheduler
            return scheduler

    # ------------------------------------------------------------------
    # Batch dispatch (serial / process tiers)
    # ------------------------------------------------------------------
    def _dispatch_batch(
        self,
        kind: str,
        items: Sequence,
        kwargs: Dict[str, Any],
        max_workers: Optional[int],
        parallelism: Optional[str],
        chains: Optional[Sequence[Sequence[str]]] = None,
    ) -> List:
        """Route one batch through the tier the knobs resolve to.

        ``chains`` optionally carries the items' precomputed hash chains
        (the scheduler hashes them once at submit time for conflict
        detection); the process tier reuses them instead of re-hashing.
        """
        items = [self._resolve_program(item) for item in items]
        plan = resolve_parallelism(parallelism, max_workers, len(items))
        if plan.mode == "process":
            # Engines that cannot cross the process boundary run the batch
            # serially rather than failing it.
            spec = self._process_spec()
            if spec is not None:
                return process_map(self, spec, kind, items, kwargs, plan, chains=chains)
        fast = self._batch_fast_path(kind, items, kwargs)
        if fast is not None:
            return fast
        return [self._serial_call(kind, item, kwargs) for item in items]

    def _batch_fast_path(
        self, kind: str, items: Sequence, kwargs: Dict[str, Any]
    ) -> Optional[List]:
        """Optional whole-batch execution of a serial-tier batch.

        Called by :meth:`_dispatch_batch` once the batch runs serially;
        returning a result list (input order) replaces the per-item loop,
        returning ``None`` falls back to it.  Implementations must be
        *value-identical* to the per-item path — same numbers, same cache and
        stats side effects — because callers choose tiers freely.
        """
        return None

    def _serial_call(self, kind: str, item, kwargs: Dict[str, Any]):
        """Execute one batch item on the calling thread (both tiers reduce to
        this; subclasses extend it with additional kinds)."""
        if kind == "run":
            return self.run(item)
        if kind == "expectation":
            return self.expectation(
                item, kwargs["observable"], shots=kwargs["shots"], seed=kwargs.get("seed")
            )
        raise EngineError(f"engine {self.name!r} does not implement batch kind {kind!r}")

    # ------------------------------------------------------------------
    # Process-tier hooks (see repro.engine.parallel)
    # ------------------------------------------------------------------
    def _process_spec(self) -> Optional[EngineWorkerSpec]:
        """How to rebuild this engine in a worker process.

        ``None`` (the default) marks the engine as unable to cross the
        process boundary; batch calls requesting ``parallelism="process"``
        then run serially.
        """
        return None

    def _shard_chain(self, kind: str, item) -> Sequence[str]:
        """The item's hash chain, used to group prefix-sharing items into the
        same shard.  The last entry must be a full content fingerprint (it
        also keys payload deduplication).  The default yields no grouping."""
        return (repr(id(item)),)

    def _worker_execute(self, kind: str, item, kwargs: Dict[str, Any]) -> Tuple[Any, List[CacheRecord]]:
        """Execute one item worker-side, returning the result plus the cache
        records the parent should absorb.  The default exports nothing."""
        return self._serial_call(kind, item, kwargs), []

    def _is_locally_cached(self, kind: str, item, kwargs: Dict[str, Any], chain: Sequence[str]) -> bool:
        """Whether the parent can serve this item from its own caches without
        shipping it to a worker."""
        return False

    def _worker_duplicate(self, kind: str, value):
        """Worker-side result for a content-identical repeat within a shard.

        Mirrors the serial path's second execution — a cache hit returning a
        result flagged ``from_cache`` — without re-running or re-shipping the
        heavy state (the shared arrays pickle once per shard).  Per the
        :class:`EngineResult` contract the state of a ``from_cache`` result
        is read-only, so the sharing is not observable.
        """
        if kind == "run":
            self.stats.executions += 1
            self.stats.cache_hits += 1
            from dataclasses import replace

            return replace(value, from_cache=True)
        return value

    def _absorb_records(self, records: Sequence[CacheRecord]) -> None:
        """Merge worker cache records into the parent's caches (no-op by
        default; engines with caches override)."""

    def _stats_registry(self) -> Dict[str, EngineStats]:
        """The named stats objects workers diff and the parent re-merges."""
        return {"self": self.stats}

    def _absorb_stats(self, delta: Dict[str, Dict[str, int]]) -> None:
        """Fold a worker's stats delta into the parent's counters.

        Counter folding is plain ``+=`` on the stats dataclasses, so with the
        slot scheduler — where several process-tier batches can complete
        concurrently — the merge is serialized under ``_stats_lock``.
        """
        registry = self._stats_registry()
        with self._stats_lock:
            for name, counters in delta.items():
                stats = registry.get(name)
                if stats is not None:
                    stats.add_counters(counters)

    def _acquire_process_pool(self, spec: EngineWorkerSpec, workers: int):
        """A worker-pool executor for ``spec`` plus its release key.

        Pools are persistent and shared by concurrent batches through the
        engine's :class:`~repro.engine.parallel.ProcessPoolRegistry`: a
        changed execution context (e.g. a toggled noise-model flag) retires
        stale pools — immediately when idle, on last release while batches
        still run on them — and a concurrent batch never retires workers
        another batch is using.  Callers must pass the returned key to
        :meth:`_release_process_pool` when their batch completes.
        """
        return self._pools.acquire(spec, workers)

    def _release_process_pool(self, key) -> None:
        self._pools.release(key)

    def _retire_process_pool(self, key) -> None:
        """Evict a broken pool (dead worker processes) from the registry.

        The failing batch still releases its reference afterwards; the point
        is that no *later* batch can acquire the dead executor — it builds a
        fresh pool instead, so a single worker crash stays a single batch's
        typed failure rather than poisoning the engine permanently.
        """
        self._pools.retire(key)

    def close(self) -> None:
        """Release pooled resources (drains the batch scheduler, joins any
        process-pool workers).

        Already-submitted batches finish first, so pending futures resolve
        rather than hang.  Idempotent: repeated closes (including with
        futures still in flight) drain and return instead of raising, and a
        close issued from inside a scheduler callback returns without
        deadlocking on its own batch.  Engines are usable again afterwards —
        the next submission starts a fresh scheduler and the next
        process-tier batch a fresh pool.  Garbage collection performs the
        same cleanup, so calling this is optional but makes teardown prompt.
        """
        with self._scheduler_lock:
            scheduler = self._scheduler
            self._scheduler = None
            finalizer = self._scheduler_finalizer
            self._scheduler_finalizer = None
        if finalizer is not None:
            finalizer.detach()
        drained = True
        if scheduler is not None:
            drained = scheduler.shutdown(wait=True)
        if drained:
            self._pools.shutdown()
        # A not-fully-drained shutdown (close() issued from inside one of the
        # scheduler's own worker threads) must leave the pools alone: other
        # batches may still be running on them.  Their handles are joined by
        # a later close() or by the pool finalizers on collection.

    # ------------------------------------------------------------------
    def _sampling_rng(self, seed, *content: str) -> np.random.Generator:
        """The generator for one sampling call, per the seeding contract.

        Priority: an explicit per-call ``seed``; else content-derived from the
        engine seed; else fresh OS entropy for unseeded engines.
        """
        from .fingerprint import derive_seed

        if seed is not None:
            return np.random.default_rng(seed)
        if self.seed is not None:
            return np.random.default_rng(derive_seed(self.seed, *content))
        return np.random.default_rng()

    def clear_caches(self) -> None:
        """Drop all cached results (stats are kept; reset via :meth:`reset_stats`)."""

    def reset_stats(self) -> None:
        self.stats = EngineStats()

    def __repr__(self):
        return f"{type(self).__name__}(seed={self.seed}, stats={self.stats.as_dict()})"
