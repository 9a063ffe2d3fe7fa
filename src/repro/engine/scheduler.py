"""The engine's batch scheduler: one batch at a time, served fairly.

Every ``submit*`` call queues one batch here, and the scheduler executes the
queued batches one at a time, each on a thread it starts for that batch,
through the engine's ``_dispatch_batch`` — the code path blocking calls use.
One batch at a time is all an engine can use: every engine executes its
batches serially, in its own process, and the one process tier sits above
the engines, in ``VAQEMPipeline.run`` (full design in
``docs/scheduler.md``).

**Fairness and priority.**  Batches queue per *submitter* (an identity the
frontends pass; anonymous submissions group by submitting thread) and each
submitter's batches stay FIFO among themselves.  Across submitters the
scheduler picks round-robin, so a frontend saturating the queue cannot starve
one submitting occasionally.  An integer ``priority`` hint (higher first)
overrides round-robin order between queued batches.

**Determinism.**  The order of batches changes *when* a batch executes,
never *what* it computes: the content-derived seeding contract
(:func:`repro.engine.fingerprint.derive_seed`) makes each value a function of
``(engine seed, item content)`` alone, so a seeded engine returns
bit-identical results however submissions interleave.

**Backpressure.**  At most ``max_pending`` batches may be queued (not yet
executing) per engine; further ``submit*`` calls block until the scheduler
drains.

**Cancellation.**  A future whose batch has not started cancels, and its
item is pruned from the batch before it executes.

**Teardown.**  :meth:`BatchScheduler.shutdown` is idempotent and safe while
futures are still pending: already-queued batches drain first (their futures
resolve rather than hang), concurrent and repeated shutdowns wait for the
same drain, and a shutdown issued *from* the scheduler's worker thread (e.g.
an ``engine.close()`` inside a done-callback) does not deadlock waiting on
itself.  The finalizer path (``wait=False``) cancels queued batches instead —
their engine is gone anyway.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Sequence

from ..exceptions import EngineError
from .futures import DEFAULT_MAX_PENDING, EngineFuture

__all__ = ["BatchJob", "BatchScheduler"]

#: Sentinel for "no round-robin position yet" (submitter keys are arbitrary
#: hashable values, so ``None`` would be ambiguous).
_NO_KEY = object()


class BatchJob:
    """One queued batch: items, futures and scheduling inputs."""

    __slots__ = ("kind", "items", "kwargs", "futures", "priority")

    def __init__(
        self,
        kind: str,
        items: Sequence[Any],
        kwargs: Dict[str, Any],
        futures: List[EngineFuture],
        priority: int,
    ):
        self.kind = kind
        self.items = list(items)
        self.kwargs = kwargs
        self.futures = futures
        self.priority = int(priority)


class BatchScheduler:
    """Executes one engine's submitted batches one at a time, fairly.

    Owned by each engine (created lazily by the first ``submit*`` call) and
    holding the engine through a weak reference, so abandoning an engine
    without ``close()`` still lets it collect; a finalizer installed by the
    engine cancels whatever is left queued.
    """

    def __init__(
        self,
        engine,
        max_pending: int = DEFAULT_MAX_PENDING,
        name: str = "engine-scheduler",
    ):
        self._engine_ref = weakref.ref(engine)
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
        #: The thread executing the current batch, ``None`` while idle.
        self._worker: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        items: Sequence[Any],
        kwargs: Dict[str, Any],
        submitter: Any = None,
        priority: int = 0,
    ) -> List[EngineFuture]:
        """Queue one batch; returns one future per item, in item order.

        Blocks while ``max_pending`` batches are already queued
        (backpressure).  ``submitter`` identifies the frontend for fairness
        purposes (defaults to the calling thread, so a single caller keeps
        strict FIFO semantics); ``priority`` breaks ties between queued
        batches of different submitters, higher first.
        """
        if self._engine_ref() is None:
            raise EngineError("cannot submit: the engine owning this scheduler is gone")
        items = list(items)
        key = self._submitter_key(submitter)
        with self._condition:
            while self._queued >= self._max_pending and not self._closed:
                self._condition.wait()
            if self._closed:
                raise EngineError("cannot submit to a closed scheduler")
            futures = [EngineFuture() for _ in items]
            job = BatchJob(kind, items, dict(kwargs), futures, priority)
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
    def _pick_locked(self) -> Optional[BatchJob]:
        """Dequeue the next batch, or ``None`` when nothing is queued.

        Only queue *heads* are considered (per-submitter FIFO).  The highest
        priority wins, ties broken round-robin from the cursor.
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
        for offset in range(len(keys)):
            key = keys[(start + offset) % len(keys)]
            rank = (-self._queues[key][0].priority, offset)
            if best_rank is None or rank < best_rank:
                best_key, best_rank = key, rank
        job = self._queues[best_key].popleft()
        self._queued -= 1
        if not self._queues[best_key]:
            del self._queues[best_key]
        # Remember the pick and its successor-at-pick-time: even if the
        # picked queue (or the successor's) empties and is deleted, the
        # rotation resumes at the right neighbour instead of skipping it.
        self._last_key = best_key
        self._next_key = keys[(keys.index(best_key) + 1) % len(keys)]
        return job

    def _dispatch_locked(self) -> None:
        """Start the next queued batch on a worker thread, if none is running."""
        if self._worker is not None:
            return
        job = self._pick_locked()
        if job is None:
            return
        self._worker = threading.Thread(
            target=self._run_job, args=(job,), name=self._name, daemon=True
        )
        self._worker.start()
        # Wake backpressure waiters: a queue position freed up.
        self._condition.notify_all()

    # ------------------------------------------------------------------
    def _run_job(self, job: BatchJob) -> None:
        try:
            self._execute(job)
        finally:
            with self._condition:
                self._worker = None
                self._condition.notify_all()
                self._dispatch_locked()

    def _execute(self, job: BatchJob) -> None:
        # Prune items whose futures were cancelled before the batch started;
        # everything else transitions to RUNNING and is no longer cancellable.
        live = [index for index, future in enumerate(job.futures) if future._set_running()]
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
                job.kind, [job.items[index] for index in live], job.kwargs
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
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions; with ``wait``, drain what is queued.

        Idempotent and safe with futures still pending: queued batches
        execute and resolve before a waiting shutdown returns, repeated or
        concurrent shutdowns wait for the same drain, and a shutdown from the
        scheduler's own worker thread (a done-callback calling
        ``engine.close()``) returns without waiting on itself — its batch and
        the queue behind it finish in the background, and the futures still
        resolve.  ``wait=False`` (the engine finalizer path) instead cancels
        everything still queued: the engine is being collected, so the
        batches could only error.
        """
        with self._condition:
            self._closed = True
            self._condition.notify_all()  # release backpressure waiters
            if not wait:
                for queue in self._queues.values():
                    for job in queue:
                        for future in job.futures:
                            future._mark_cancelled()
                self._queues.clear()
                self._queued = 0
                return
            if threading.current_thread() is self._worker:
                return
            self._condition.wait_for(lambda: self._queued == 0 and self._worker is None)
