"""The :class:`ExecutionEngine` abstraction — one backend API for every run.

Every part of the reproduction that executes circuits (expectation
estimation, VQE objectives, the independent-window tuner, the runtime session
model, the benchmark harness) talks to a single engine interface instead of
instantiating simulators ad hoc:

* :meth:`ExecutionEngine.run` — execute one circuit, returning an
  :class:`EngineResult`,
* :meth:`ExecutionEngine.run_batch` — execute many circuits, order-stably and
  with shared caching,
* :meth:`ExecutionEngine.expectation` / :meth:`expectation_batch` — estimate
  ``<H>`` of a Pauli-sum observable for one or many circuits.

Every engine executes its batches serially, in the calling process; the one
process tier sits above the engines, in ``VAQEMPipeline.run``
(:mod:`repro.engine.parallel`).  Engines are safe to share between threads:
caller threads and the scheduler thread meet behind the engines' locks.

Every batch method also has an asynchronous counterpart — :meth:`submit`,
:meth:`submit_batch`, :meth:`submit_expectation_batch` — returning ordered
:class:`~repro.engine.futures.EngineFuture` handles instead of blocking.
Submissions land on a persistent per-engine scheduler
(:mod:`repro.engine.scheduler`) that executes one batch at a time, serving
submitters round-robin.  Per the seeding contract async results are
bit-identical to blocking calls; see ``docs/scheduler.md`` and
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
checkpoints and shard chains all digest the order
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
  the process the engine runs in or concurrent callers;
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
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import EngineError
from .futures import DEFAULT_MAX_PENDING, EngineFuture
from .scheduler import BatchScheduler


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
        """Fold another engine's counters into this stats object (by field
        name): a process VAQEM run folds each strategy engine's counters into
        the pipeline engine's.  Unknown keys are ignored."""
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
    def run_batch(self, circuits: Sequence) -> List[EngineResult]:
        """Execute many circuits on the calling thread; output order matches
        input order, and by the seeding contract each result equals
        :meth:`run` of the same circuit."""
        return self._dispatch_batch("run", circuits, {})

    def expectation_batch(
        self,
        circuits: Sequence,
        observable,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> List[float]:
        """Estimate ``<observable>`` for many circuits, order-stably.

        An explicit ``seed`` overrides the content-derived sampling seed for
        every item of the batch — exactly like passing the same ``seed`` to
        element-wise :meth:`expectation` calls (callers wanting independent
        per-round randomness, e.g. the adaptive shot collector, derive a
        distinct seed per batch via
        :func:`repro.engine.fingerprint.derive_seed`).
        """
        kwargs = {"observable": observable, "shots": shots, "seed": seed}
        return self._dispatch_batch("expectation", circuits, kwargs)

    # ------------------------------------------------------------------
    # Asynchronous submission (see repro.engine.scheduler, docs/scheduler.md)
    # ------------------------------------------------------------------
    def submit(self, circuit) -> EngineFuture:
        """Asynchronously execute one circuit; resolves to an :class:`EngineResult`."""
        return self.submit_batch([circuit])[0]

    def submit_batch(
        self,
        circuits: Sequence,
        submitter: Any = None,
        priority: int = 0,
    ) -> List[EngineFuture]:
        """Asynchronous :meth:`run_batch`: one future per circuit, in order.

        The batch is queued on the engine's persistent scheduler, which
        executes one batch at a time.  Batches from one ``submitter``
        (default: the calling thread) execute FIFO among themselves;
        different submitters are served round-robin, and ``priority``
        (higher first) breaks ties between their queued batches (see
        ``docs/scheduler.md``).  Per the seeding contract the resolved
        results are bit-identical to a blocking :meth:`run_batch` call.
        ``future.cancel()`` prunes an item whose batch has not started;
        exceptions raised while executing the batch re-raise from
        ``future.result()``.
        """
        return self._submit_job("run", circuits, {}, submitter, priority)

    def submit_expectation_batch(
        self,
        circuits: Sequence,
        observable,
        shots: Optional[int] = None,
        submitter: Any = None,
        priority: int = 0,
        seed: Optional[int] = None,
    ) -> List[EngineFuture]:
        """Asynchronous :meth:`expectation_batch`: futures resolving to floats.

        ``seed`` behaves exactly as on the blocking :meth:`expectation_batch`.
        """
        kwargs = {"observable": observable, "shots": shots, "seed": seed}
        return self._submit_job("expectation", circuits, kwargs, submitter, priority)

    def _submit_job(
        self,
        kind: str,
        items: Sequence,
        kwargs: Dict[str, Any],
        submitter: Any = None,
        priority: int = 0,
    ) -> List[EngineFuture]:
        """Queue one batch on the (lazily created) scheduler."""
        items = [self._resolve_program(item) for item in items]
        return self._ensure_scheduler().submit(
            kind, items, kwargs, submitter=submitter, priority=priority
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
    # Batch dispatch
    # ------------------------------------------------------------------
    def _dispatch_batch(self, kind: str, items: Sequence, kwargs: Dict[str, Any]) -> List:
        """Execute one batch on the calling thread (blocking calls and the
        scheduler thread both end here)."""
        items = [self._resolve_program(item) for item in items]
        fast = self._batch_fast_path(kind, items, kwargs)
        if fast is not None:
            return fast
        return [self._serial_call(kind, item, kwargs) for item in items]

    def _batch_fast_path(
        self, kind: str, items: Sequence, kwargs: Dict[str, Any]
    ) -> Optional[List]:
        """Optional whole-batch execution of a batch.

        Called by :meth:`_dispatch_batch`; returning a result list (input
        order) replaces the per-item loop, returning ``None`` falls back to
        it.  Implementations must be *value-identical* to the per-item path —
        same numbers, same cache and stats side effects.
        """
        return None

    def _serial_call(self, kind: str, item, kwargs: Dict[str, Any]):
        """Execute one batch item on the calling thread (subclasses extend it
        with additional kinds)."""
        if kind == "run":
            return self.run(item)
        if kind == "expectation":
            return self.expectation(
                item, kwargs["observable"], shots=kwargs["shots"], seed=kwargs.get("seed")
            )
        raise EngineError(f"engine {self.name!r} does not implement batch kind {kind!r}")

    def _shard_chain(self, kind: str, item) -> Sequence[str]:
        """The item's hash chain; the service keys its result store by the
        last entry, which must be a full content fingerprint.  The default
        (object identity) makes nothing shareable."""
        return (repr(id(item)),)

    def close(self) -> None:
        """Drain the batch scheduler.

        Already-submitted batches finish first, so pending futures resolve
        rather than hang.  Idempotent: repeated closes (including with
        futures still in flight) drain and return instead of raising, and a
        close issued from inside a scheduler callback returns without
        deadlocking on its own batch.  Engines are usable again afterwards —
        the next submission starts a fresh scheduler.  Garbage collection
        performs the same cleanup, so calling this is optional but makes
        teardown prompt.
        """
        with self._scheduler_lock:
            scheduler = self._scheduler
            self._scheduler = None
            finalizer = self._scheduler_finalizer
            self._scheduler_finalizer = None
        if finalizer is not None:
            finalizer.detach()
        if scheduler is not None:
            scheduler.shutdown(wait=True)

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
