"""Slot-based concurrent batch scheduler for the engine layer.

The first async layer (PR 3) drained submitted batches strictly one at a
time: a single dispatcher thread popped a FIFO queue, so when several
independent frontends shared one engine — two estimators, a window tuner
next to a VQE trajectory replay, multiple runtime sessions — all but one sat
idle behind the head of the queue.  This module replaces that dispatcher
with a real scheduler (full design in ``docs/scheduler.md``):

**Per-tier slots.**  Each submitted batch resolves to an execution tier
(``serial`` / ``process``, exactly as a blocking call would) and each tier
has a bounded number of *slots* — concurrently executing batches.  The
serial tier always has one slot; the process tier defaults to two and is
configurable through ``engine.scheduler_slots``.  Slot limits bound the
engine-side concurrency no matter how many frontends submit.

**Dependency detection — item-level edges.**  An *item* conflicts with a
running one when their schedule hash chains overlap — they share a deep
simulated prefix (or are the identical schedule outright), so running them
concurrently would duplicate the simulation work the prefix-reuse
checkpoints otherwise save — while schedules that merely collide textually
(same device, same shallow state-prep) do not.  Crucially the
edges are **per item, not per batch**: when a queued batch shares only some
items with what is running, the non-conflicting items dispatch immediately
as a partial *slice* and the rest remain queued at the head of their
submitter's queue until the conflicting work completes.  Two batches sharing
exactly one schedule therefore overlap on everything else, where the
whole-batch conflict rule this replaced (PR 4) serialized them entirely.
The chain *root* (which encodes device/layout context shared by every
schedule of a device) is excluded, so "same device" alone never serializes
anything.

**Fairness and priority.**  Batches queue per *submitter* (an identity the
frontends pass; anonymous submissions group by submitting thread) and each
submitter's batches stay FIFO among themselves.  Across submitters the
scheduler picks round-robin, so a frontend saturating the queue cannot starve
one submitting occasionally.  An integer ``priority`` hint (higher first)
overrides round-robin order between runnable batches.

**Determinism.**  Overlap changes *when* a batch executes, never *what* it
computes: every batch still runs through the engine's ``_dispatch_batch`` and
the content-derived seeding contract
(:func:`repro.engine.fingerprint.derive_seed`) makes each value a function of
``(engine seed, item content)`` alone.  A seeded engine therefore returns
bit-identical results whether batches drain one at a time or overlap — the
scheduler only reorders wall-clock, and the conflict rule keeps the cache /
prefix-snapshot *efficiency* of the serial drain too.

**Backpressure.**  At most ``max_pending`` batches may be queued (not yet
executing) per engine; further ``submit*`` calls block until the scheduler
drains, exactly as the FIFO dispatcher's bounded queue did.

**Teardown.**  :meth:`BatchScheduler.shutdown` is idempotent and safe while
futures are still pending: already-queued batches drain first (their futures
resolve rather than hang), concurrent and repeated shutdowns wait for the
same drain, and a shutdown issued *from* a scheduler worker thread (e.g. an
``engine.close()`` inside a done-callback) does not deadlock waiting on
itself.  The finalizer path (``wait=False``) cancels queued batches instead —
their engine is gone anyway.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

from ..exceptions import EngineError
from .futures import DEFAULT_MAX_PENDING, EngineFuture
from .parallel import PARALLELISM_MODES, resolve_parallelism

__all__ = ["BatchJob", "BatchScheduler", "DEFAULT_SLOTS", "item_fingerprints", "job_fingerprints"]

#: Sentinel for "no round-robin position yet" (submitter keys are arbitrary
#: hashable values, so ``None`` would be ambiguous).
_NO_KEY = object()

#: Default concurrent-batch slots per execution tier.  The serial tier is
#: pinned to one slot (a "serial" submitter asked for strictly sequential
#: execution); the process tier defaults to two overlapping batches and is
#: configurable via ``engine.scheduler_slots``.
DEFAULT_SLOTS: Dict[str, int] = {"serial": 1, "process": 2}


def job_chains(engine, kind: str, items: Sequence[Any]) -> List[List[str]]:
    """Each item's hash chain, via the same ``_shard_chain`` hook the process
    tier shards by (engines without the hook fall back to item identity).
    Computed once at submit time; the chains ride on the job so the process
    tier never re-hashes them."""
    chain_of = getattr(engine, "_shard_chain", None)
    if chain_of is None:
        return [[repr(id(item))] for item in items]
    return [list(chain_of(kind, item)) for item in items]


#: Fraction of a chain's depth a shared prefix must reach before it counts
#: as a conflict.  A chain entry at index ``k`` identifies the *k*-instruction
#: prefix, so two batches sharing an entry share that exact prefix — but a
#: shallow one (the parameter-independent state-prep instructions every
#: same-ansatz circuit starts with) is worth almost nothing to reuse, and
#: serializing on it would make realistic same-device frontends never
#: overlap.  Only entries in the deep half of their chain participate:
#: batches conflict when the prefix they share covers more than half of
#: either one's schedule — where serializing genuinely preserves the
#: prefix-reuse savings of a serial drain.
CONFLICT_DEPTH_FRACTION = 0.5


def item_fingerprints(chain: Sequence[str]) -> FrozenSet[str]:
    """The dependency-detection key of one item.

    The chain entries at depth ``> CONFLICT_DEPTH_FRACTION`` of the chain
    (always including the full fingerprint, so content-identical schedules
    conflict regardless of length).  The depth-0 root — device and layout
    context shared by *every* schedule of a device — never counts.
    Single-entry chains (e.g. the identity fallback) are kept whole.
    """
    if len(chain) <= 1:
        return frozenset(chain)
    depth = len(chain) - 1  # instructions; chain[0] is the root
    first = max(1, int(depth * CONFLICT_DEPTH_FRACTION) + 1)
    return frozenset(chain[first:])


def job_fingerprints(chains: Sequence[Sequence[str]]) -> FrozenSet[str]:
    """The union of a batch's per-item dependency keys.

    Scheduling itself uses the per-item keys (:func:`item_fingerprints`) so
    only genuinely conflicting items wait; the union remains the whole-batch
    summary (tests and diagnostics compare batches with it).
    """
    fingerprints: set = set()
    for chain in chains:
        fingerprints.update(item_fingerprints(chain))
    return frozenset(fingerprints)


class BatchJob:
    """One scheduled batch: items, futures, tier knobs and scheduling state."""

    __slots__ = (
        "kind",
        "items",
        "kwargs",
        "max_workers",
        "parallelism",
        "futures",
        "submitter",
        "priority",
        "tier",
        "chains",
        "fingerprints",
        "item_fingerprints",
        "pending",
    )

    def __init__(
        self,
        kind: str,
        items: Sequence[Any],
        kwargs: Dict[str, Any],
        max_workers: Optional[int],
        parallelism: Optional[str],
        futures: List[EngineFuture],
        submitter: Any,
        priority: int,
        tier: str,
        chains: List[List[str]],
        fingerprints: FrozenSet[str],
    ):
        self.kind = kind
        self.items = list(items)
        self.kwargs = kwargs
        self.max_workers = max_workers
        self.parallelism = parallelism
        self.futures = futures
        self.submitter = submitter
        self.priority = int(priority)
        #: The tier whose slot each dispatched slice of this job occupies
        #: while running (resolved at submit time; an engine that runs a
        #: process request serially inside ``_dispatch_batch`` still
        #: accounts against the requested tier).
        self.tier = tier
        #: Per-item hash chains, computed once at submit; the process tier
        #: reuses them instead of re-hashing every item.
        self.chains = chains
        #: Union of the per-item keys — the whole-batch summary.
        self.fingerprints = fingerprints
        #: Per-item dependency keys; the scheduler's conflict edges are
        #: between individual items, so a batch sharing only some items with
        #: running work dispatches the rest immediately.
        self.item_fingerprints: List[FrozenSet[str]] = [
            item_fingerprints(chain) for chain in chains
        ]
        #: Indices not yet dispatched (in submission order).  A partially
        #: dispatched job stays at the head of its submitter's queue until
        #: this empties, preserving per-submitter FIFO and backpressure
        #: accounting.
        self.pending: List[int] = list(range(len(self.items)))


class _RunningSlice:
    """One dispatched portion of a job: the indices executing together.

    A fully-runnable job dispatches as a single slice (the common case);
    item-level conflicts split a job into several slices over time.  Each
    slice occupies one slot of its job's tier while running and contributes
    its items' dependency keys to conflict detection.
    """

    __slots__ = ("job", "indices", "fingerprints", "tier", "thread_ident")

    def __init__(self, job: BatchJob, indices: Sequence[int]):
        self.job = job
        self.indices = list(indices)
        keys: set = set()
        for index in self.indices:
            keys.update(job.item_fingerprints[index])
        self.fingerprints: FrozenSet[str] = frozenset(keys)
        self.tier = job.tier
        #: Ident of the worker thread executing this slice (``None`` until
        #: running); lets :meth:`BatchScheduler.shutdown` recognise a
        #: shutdown issued from inside one of its own workers.
        self.thread_ident: Optional[int] = None


class BatchScheduler:
    """Schedules one engine's submitted batches onto per-tier slots.

    Owned by each engine (created lazily by the first ``submit*`` call) and
    held through a weak reference, so abandoning an engine without
    ``close()`` still lets it collect; a finalizer installed by the engine
    cancels whatever is left queued.  Worker threads are spawned per
    dispatched batch — concurrency is bounded by the slot table, which is
    small — and each runs the batch through ``engine._dispatch_batch``, the
    same code path blocking calls use, so tiers, shard planning and cache
    merge-back are reused unchanged.
    """

    def __init__(
        self,
        engine,
        slots: Optional[Dict[str, int]] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        name: str = "engine-scheduler",
    ):
        self._engine_ref = weakref.ref(engine)
        self._slots = dict(DEFAULT_SLOTS)
        if slots:
            for mode, count in slots.items():
                if mode not in PARALLELISM_MODES:
                    raise EngineError(
                        f"scheduler slots name unknown tier {mode!r} "
                        f"(expected one of {PARALLELISM_MODES})"
                    )
                self._slots[mode] = max(1, int(count))
        # The serial tier's contract is strict sequential execution.
        self._slots["serial"] = 1
        self._max_pending = max(1, int(max_pending))
        self._name = name
        self._condition = threading.Condition()
        #: Per-submitter FIFO queues, in first-submission order (the
        #: round-robin scan walks this order).
        self._queues: "OrderedDict[Any, deque]" = OrderedDict()
        #: Round-robin position, remembered by *key* (not by index into the
        #: mutating key list) so emptied-and-deleted queues cannot skew the
        #: rotation: the last picked submitter, plus its successor at pick
        #: time as the fallback when the picked queue emptied.
        self._last_key: Any = _NO_KEY
        self._next_key: Any = _NO_KEY
        self._queued = 0
        self._running: List[BatchJob] = []
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def slot_limit(self, tier: str) -> int:
        return self._slots.get(tier, 1)

    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        items: Sequence[Any],
        kwargs: Dict[str, Any],
        max_workers: Optional[int] = None,
        parallelism: Optional[str] = None,
        submitter: Any = None,
        priority: int = 0,
    ) -> List[EngineFuture]:
        """Queue one batch; returns one future per item, in item order.

        Blocks while ``max_pending`` batches are already queued
        (backpressure).  ``submitter`` identifies the frontend for fairness
        purposes (defaults to the calling thread, so a single caller keeps
        strict FIFO semantics); ``priority`` breaks ties between runnable
        batches of different submitters, higher first.
        """
        engine = self._engine_ref()
        if engine is None:
            raise EngineError("cannot submit: the engine owning this scheduler is gone")
        items = list(items)
        # Resolve the tier now: invalid knobs raise on the calling thread,
        # exactly as a blocking call would, and the resolved mode is what the
        # job's slot accounting uses.
        plan = resolve_parallelism(parallelism, max_workers, len(items))
        chains = job_chains(engine, kind, items)
        fingerprints = job_fingerprints(chains)
        del engine  # no strong reference while queued
        key = self._submitter_key(submitter)
        with self._condition:
            while self._queued >= self._max_pending and not self._closed:
                self._condition.wait()
            if self._closed:
                raise EngineError("cannot submit to a closed scheduler")
            futures = [EngineFuture() for _ in items]
            job = BatchJob(
                kind, items, dict(kwargs), max_workers, parallelism,
                futures, key, priority, plan.mode, chains, fingerprints,
            )
            self._queues.setdefault(key, deque()).append(job)
            self._queued += 1
            self._dispatch_locked()
        return futures

    @staticmethod
    def _submitter_key(submitter: Any):
        if submitter is None:
            return ("thread", threading.get_ident())
        try:
            hash(submitter)
        except TypeError:
            return ("id", id(submitter))
        return submitter

    # ------------------------------------------------------------------
    # Scheduling (all under self._condition)
    # ------------------------------------------------------------------
    def _slots_in_use(self, tier: str) -> int:
        return sum(1 for running in self._running if running.tier == tier)

    def _runnable_indices(self, job: BatchJob) -> List[int]:
        """The job's pending items whose dependency keys are disjoint from
        every running slice — the portion that may dispatch right now."""
        if not self._running:
            return list(job.pending)
        indices = []
        for index in job.pending:
            keys = job.item_fingerprints[index]
            if any(keys & running.fingerprints for running in self._running):
                continue
            indices.append(index)
        return indices

    def _pick_locked(self) -> Optional[_RunningSlice]:
        """The next runnable slice, or ``None``.

        Only queue *heads* are considered (per-submitter FIFO); a head is
        runnable when its tier has a free slot and at least one of its
        pending items conflicts with no running slice.  Among runnable heads
        the highest priority wins, ties broken round-robin from the cursor.
        The winner's runnable items dispatch together as one slice; any
        conflicting remainder stays at the head of its queue (still counted
        by backpressure) until later picks drain it.
        """
        keys = list(self._queues.keys())
        if not keys:
            return None
        if self._last_key in self._queues:
            start = (keys.index(self._last_key) + 1) % len(keys)
        elif self._next_key in self._queues:
            start = keys.index(self._next_key)
        else:
            start = 0
        best_key = None
        best_rank = None
        best_indices: Optional[List[int]] = None
        for offset in range(len(keys)):
            key = keys[(start + offset) % len(keys)]
            job = self._queues[key][0]
            if self._slots_in_use(job.tier) >= self.slot_limit(job.tier):
                continue
            indices = self._runnable_indices(job)
            if not indices:
                continue
            rank = (-job.priority, offset)
            if best_rank is None or rank < best_rank:
                best_key, best_rank, best_indices = key, rank, indices
        if best_key is None:
            return None
        job = self._queues[best_key][0]
        dispatched = set(best_indices)
        job.pending = [index for index in job.pending if index not in dispatched]
        if not job.pending:
            self._queues[best_key].popleft()
            self._queued -= 1
            if not self._queues[best_key]:
                del self._queues[best_key]
        # Remember the pick and its successor-at-pick-time: even if the
        # picked queue (or the successor's) empties and is deleted, the
        # rotation resumes at the right neighbour instead of skipping it.
        self._last_key = best_key
        self._next_key = keys[(keys.index(best_key) + 1) % len(keys)]
        return _RunningSlice(job, best_indices)

    def _dispatch_locked(self) -> None:
        """Dispatch every currently-runnable slice onto a worker thread."""
        while True:
            running = self._pick_locked()
            if running is None:
                return
            self._running.append(running)
            threading.Thread(
                target=self._run_job, args=(running,), name=self._name, daemon=True
            ).start()
            # Wake backpressure waiters: a queue position may have freed up.
            self._condition.notify_all()

    # ------------------------------------------------------------------
    def _run_job(self, running: _RunningSlice) -> None:
        running.thread_ident = threading.get_ident()
        try:
            self._execute(running)
        finally:
            with self._condition:
                self._running.remove(running)
                self._condition.notify_all()
                self._dispatch_locked()

    def _execute(self, running: _RunningSlice) -> None:
        job = running.job
        # Prune items whose futures were cancelled before the slice started;
        # everything else transitions to RUNNING and is no longer cancellable.
        live = [index for index in running.indices if job.futures[index]._set_running()]
        if not live:
            return
        engine = self._engine_ref()
        if engine is None:
            error = EngineError("the engine owning this future was garbage-collected")
            for index in live:
                job.futures[index]._set_exception(error)
            return
        try:
            values = engine._dispatch_batch(
                job.kind,
                [job.items[index] for index in live],
                job.kwargs,
                job.max_workers,
                job.parallelism,
                chains=[job.chains[index] for index in live],
            )
            if len(values) != len(live):  # pragma: no cover - engine contract
                raise EngineError(
                    f"batch kind {job.kind!r} returned {len(values)} values for "
                    f"{len(live)} items"
                )
        except BaseException as error:  # noqa: BLE001 - propagated via futures
            for index in live:
                job.futures[index]._set_exception(error)
            return
        finally:
            del engine
        for index, value in zip(live, values):
            job.futures[index]._set_result(value)

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> bool:
        """Stop accepting submissions; with ``wait``, drain what is queued.

        Idempotent and safe with futures still pending: queued batches
        execute and resolve before a waiting shutdown returns, repeated or
        concurrent shutdowns wait for the same drain, and a shutdown from one
        of the scheduler's own worker threads (a done-callback calling
        ``engine.close()``) returns without waiting on itself — its batch
        finishes when the callback does.  ``wait=False`` (the engine
        finalizer path) instead cancels everything still queued: the engine
        is being collected, so the batches could only error.

        Returns whether the scheduler is fully drained on return — ``False``
        on the worker-thread and ``wait=False`` paths, where batches may
        still be executing; callers must not tear shared resources (e.g. the
        process pools) out from under them in that case.
        """
        with self._condition:
            self._closed = True
            self._condition.notify_all()  # release backpressure waiters
            if not wait:
                for queue in self._queues.values():
                    for job in queue:
                        # Only never-dispatched items cancel; a partially
                        # dispatched head's running slice resolves its own
                        # futures.
                        for index in job.pending:
                            job.futures[index]._mark_cancelled()
                self._queues.clear()
                self._queued = 0
                return not self._running
            current = threading.get_ident()
            if any(running.thread_ident == current for running in self._running):
                # Shutdown from inside one of our own worker threads (an
                # ``engine.close()`` in a done-callback): waiting would
                # deadlock on the very batch the callback belongs to — and on
                # anything queued behind it.  Mark closed and let the drain
                # finish in the background; the futures still resolve.
                return False
            self._condition.wait_for(lambda: self._queued == 0 and not self._running)
            return True
