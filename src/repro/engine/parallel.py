"""Multi-core process-pool execution tier for the engine layer.

For the small states the paper's workloads use (4-7 qubits) the Python
interpreter dominates every simulation and the GIL serialises threads, so the
one parallel tier of :meth:`~repro.engine.base.ExecutionEngine.run_batch`
scales a batch across worker *processes* while preserving every engine
guarantee (order stability, the content-derived seeding contract,
bit-identical ``shots=None`` values).

The design has three parts (see ``docs/architecture.md`` for the full
picture):

**Picklable worker protocol.**  An engine describes how to rebuild itself in
a worker process as an :class:`EngineWorkerSpec` — the engine class plus its
(picklable) constructor arguments, tagged with a stable ``cache_key``.  Each
worker process builds its engine once, in the pool initializer, and keeps it
alive across shards, so worker-side result caches stay warm for the whole
sweep.  Reuse caches (prefix snapshots, segment records) are reset at shard
start via the engine's ``_begin_shard`` hook: shard-to-worker placement is
not deterministic, and carrying reuse state across shards would make the
stats counters depend on which worker happened to run a sibling shard.  Work ships as :class:`ShardTask` objects carrying the
serialized schedule content (deduplicated per content fingerprint) and comes
back as a :class:`ShardOutcome`: the per-item results, the worker's new cache
entries (:class:`CacheRecord`) and its stats counters delta.

**Prefix-aware shard scheduler.**  :func:`plan_shards` groups batch items so
checkpoint reuse survives the process boundary: items are ordered by their
schedule hash chain, so schedules sharing a processing prefix become
neighbours — window-tuner candidates differing inside one idle window
cluster together — and the ordered list is cut into contiguous shards
balanced by *marginal* simulation cost, i.e. the instructions an item adds
beyond its predecessor's shared prefix.  Duplicates have zero marginal cost
and always land in the shard that already simulates their content.

**Cache merge-on-return.**  Workers export each cache entry they produce at
most once (final states, expectation values, transpilations); the parent
merges the records into its own content-hash caches and folds the stats
deltas into its counters, so a process-parallel sweep leaves the parent
engine exactly as warm as a serial one.

Nothing here is engine-specific: the engines plug in through small hooks
(``_process_spec``, ``_shard_chain``, ``_worker_execute``,
``_absorb_records``) defined on :class:`~repro.engine.base.ExecutionEngine`.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import EngineError

#: The accepted ``parallelism=`` values.
PARALLELISM_MODES = ("serial", "process")


# ----------------------------------------------------------------------------
# Parallelism plans
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelismPlan:
    """A resolved execution strategy for one batch call."""

    mode: str
    workers: int


def default_worker_count() -> int:
    """Worker count used when ``max_workers`` is not given (one per core)."""
    return os.cpu_count() or 1


def resolve_parallelism(
    parallelism: Optional[str], max_workers: Optional[int], num_items: int
) -> ParallelismPlan:
    """Resolve the ``(parallelism, max_workers)`` knobs into a concrete plan.

    ``parallelism=None`` runs serially; ``max_workers > 1`` without a
    ``parallelism=`` raises :class:`~repro.exceptions.EngineError` (a sizing
    knob never selects a tier), as does any mode outside
    :data:`PARALLELISM_MODES`.  ``"process"`` uses ``max_workers`` as the
    worker count (default: one per core).  Degenerate requests (single-item
    batches, one worker) collapse to the serial plan, which is behaviourally
    identical and avoids pool overhead.
    """
    if parallelism is None:
        if max_workers is not None and max_workers > 1:
            raise EngineError(
                "max_workers > 1 without parallelism= does not select a tier; "
                "pass parallelism='process' explicitly (docs/api.md)."
            )
        mode = "serial"
    elif parallelism in PARALLELISM_MODES:
        mode = parallelism
    else:
        raise EngineError(
            f"unknown parallelism mode '{parallelism}' (expected one of {PARALLELISM_MODES})"
        )
    if mode == "serial":
        return ParallelismPlan("serial", 1)
    workers = default_worker_count() if max_workers is None else int(max_workers)
    workers = max(1, min(workers, max(1, num_items)))
    if workers <= 1 or num_items <= 1:
        return ParallelismPlan("serial", 1)
    return ParallelismPlan(mode, workers)


# ----------------------------------------------------------------------------
# Prefix-aware shard planning
# ----------------------------------------------------------------------------

def common_prefix_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the shared leading run of two hash chains."""
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit


def plan_shards(
    chains: Sequence[Sequence[str]],
    num_shards: int,
    segment_keys: Optional[Sequence[Optional[Sequence[str]]]] = None,
) -> List[List[int]]:
    """Group batch items into shards that keep reuse opportunities together.

    ``chains[i]`` is item *i*'s hash chain (``chain[k]`` identifies its first
    ``k`` processing steps; see :mod:`repro.engine.fingerprint`).  Items are
    sorted by chain so shared prefixes become contiguous, then cut into at
    most ``num_shards`` contiguous groups balanced by marginal cost: the
    first item of a shard costs its full simulation (the worker starts with
    cold caches), every later item only the work its predecessors have not
    already warmed.  Content-identical items have zero marginal cost and are
    never split across shards.  Returns the shards as lists of original item
    indices; every shard is non-empty.

    Without ``segment_keys`` the marginal cost is the chain length beyond the
    prefix shared with the sorted predecessor (a checkpoint resume).  With
    ``segment_keys`` — item *i*'s segment content keys, from the engine's
    ``_shard_segment_keys`` hook (see :mod:`repro.engine.segments`) — the
    marginal cost is the number of segment keys not yet seen in the sorted
    order: a worker computes each distinct segment once however the prefixes
    line up, so *novel segments*, not chain overhang, is what an item really
    costs.  Any ``None`` entry disables the segment costing (mixed batches
    fall back to chains).
    """
    count = len(chains)
    if count == 0:
        return []
    num_shards = max(1, min(int(num_shards), count))
    order = sorted(range(count), key=lambda i: tuple(chains[i]))
    use_segments = (
        segment_keys is not None
        and len(segment_keys) == count
        and all(keys is not None for keys in segment_keys)
    )

    marginal: List[int] = []
    if use_segments:
        seen: set = set()
        for position, index in enumerate(order):
            keys = segment_keys[index]
            if position and tuple(chains[index]) == tuple(chains[order[position - 1]]):
                marginal.append(0)  # content-identical: never split
            else:
                marginal.append(sum(1 for key in keys if key not in seen))
            seen.update(keys)
    else:
        for position, index in enumerate(order):
            if position == 0:
                marginal.append(len(chains[index]))
            else:
                previous = chains[order[position - 1]]
                shared = common_prefix_length(chains[index], previous)
                marginal.append(max(1, len(chains[index]) - shared) if shared < len(chains[index]) else 0)
    total = sum(marginal) or 1
    target = total / num_shards

    def full_cost(index: int) -> float:
        # The first item of a shard pays its full simulation cost: the new
        # worker has no checkpoint or segment cache for anything the sort
        # placed before it.
        if use_segments:
            return float(len(set(segment_keys[index])))
        return float(len(chains[index]))

    shards: List[List[int]] = []
    current: List[int] = []
    current_cost = 0.0
    for position, index in enumerate(order):
        cost = full_cost(index) if not current else marginal[position]
        boundary_allowed = (
            current
            and len(shards) < num_shards - 1
            and marginal[position] > 0  # never split content-identical items
            and current_cost >= target
        )
        if boundary_allowed:
            shards.append(current)
            current = [index]
            current_cost = full_cost(index)
        else:
            current.append(index)
            current_cost += cost
    if current:
        shards.append(current)
    return shards


# ----------------------------------------------------------------------------
# Worker protocol payloads
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineWorkerSpec:
    """How to rebuild an engine inside a worker process.

    ``engine_class`` is pickled by reference and ``kwargs`` must contain only
    picklable values (noise models, devices and seeds all are).  ``cache_key``
    is a stable digest of everything execution-relevant; the parent keys its
    persistent pool on it, so e.g. toggling a noise-model flag retires the
    now-stale workers and spawns fresh ones.
    """

    engine_class: type
    kwargs: Dict[str, Any]
    cache_key: str

    def build(self):
        return self.engine_class(**self.kwargs)


@dataclass(frozen=True)
class CacheRecord:
    """One worker-produced cache entry, merged into the parent on return.

    ``kind`` selects the destination cache (engine-specific: final states,
    expectation values, transpilations); ``key`` is the content-hash cache
    key and ``nbytes`` the byte footprint for budget-evicting stores.
    """

    kind: str
    key: Any
    value: Any
    nbytes: int = 0

    @property
    def dedup_key(self) -> Tuple[str, Any]:
        return (self.kind, self.key)


@dataclass
class ShardTask:
    """One worker work unit: serialized content plus item assignments.

    ``payloads`` holds each distinct circuit/schedule once (items are
    deduplicated by content fingerprint before shipping); ``items`` maps each
    original batch index to its payload slot, preserving duplicates without
    re-serializing them.
    """

    kind: str
    kwargs: Dict[str, Any]
    payloads: List[Any]
    items: List[Tuple[int, int]]  # (original batch index, payload slot)


@dataclass
class ShardOutcome:
    """Everything a worker sends back for one shard."""

    results: List[Tuple[int, Any]]
    records: List[CacheRecord] = field(default_factory=list)
    stats_delta: Dict[str, Dict[str, int]] = field(default_factory=dict)


# ----------------------------------------------------------------------------
# Worker-side execution (runs in the pool processes)
# ----------------------------------------------------------------------------

#: The per-process engine, built once by the pool initializer.
_WORKER_ENGINE = None
#: Cache-record keys this worker already shipped back (entries are exported
#: at most once per worker lifetime; the parent keeps them from then on).
_WORKER_EXPORTED: set = set()


def _initialise_worker(spec: EngineWorkerSpec) -> None:
    global _WORKER_ENGINE, _WORKER_EXPORTED
    _WORKER_ENGINE = spec.build()
    _WORKER_EXPORTED = set()


def _stats_snapshot(engine) -> Dict[str, Dict[str, int]]:
    """Raw counter values of every stats object the engine registers."""
    return {
        name: dataclasses.asdict(stats) for name, stats in engine._stats_registry().items()
    }


def _stats_delta(
    after: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    delta: Dict[str, Dict[str, int]] = {}
    for name, counters in after.items():
        base = before.get(name, {})
        changed = {
            key: value - base.get(key, 0) for key, value in counters.items()
            if value != base.get(key, 0)
        }
        if changed:
            delta[name] = changed
    return delta


def _execute_shard(task: ShardTask) -> ShardOutcome:
    """Run one shard on the process-local engine (the pool's task function)."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - defensive; initializer always ran
        raise EngineError("worker process was not initialised with an engine spec")
    # Reset per-shard reuse caches (prefix snapshots, segment records) so the
    # shard's counter delta depends only on shard content, never on which
    # pooled worker process happened to run earlier shards.  Without this the
    # reuse counters would vary with shard->worker placement.
    begin_shard = getattr(engine, "_begin_shard", None)
    if begin_shard is not None:
        begin_shard()
    before = _stats_snapshot(engine)
    results: List[Tuple[int, Any]] = []
    records: List[CacheRecord] = []
    # Content-identical "run" items within a shard reuse the first result
    # instead of shipping one full pickled state per duplicate (expectation
    # kinds already return the worker's cached object, which the pickle memo
    # deduplicates for free).
    run_memo: Dict[int, Any] = {}
    for index, slot in task.items:
        if task.kind == "run" and slot in run_memo:
            results.append((index, engine._worker_duplicate(task.kind, run_memo[slot])))
            continue
        value, produced = engine._worker_execute(task.kind, task.payloads[slot], task.kwargs)
        if task.kind == "run":
            run_memo[slot] = value
        results.append((index, value))
        for record in produced:
            key = record.dedup_key
            if key in _WORKER_EXPORTED:
                continue
            _WORKER_EXPORTED.add(key)
            records.append(record)
    return ShardOutcome(
        results=results,
        records=records,
        stats_delta=_stats_delta(_stats_snapshot(engine), before),
    )


# ----------------------------------------------------------------------------
# Parent-side pool management and dispatch
# ----------------------------------------------------------------------------

def _shutdown_pool(executor: ProcessPoolExecutor) -> None:
    executor.shutdown(wait=True)


class ProcessPoolHandle:
    """A persistent worker pool bound to one engine configuration.

    Keeping the pool (and therefore the worker engines) alive across batch
    calls is what makes the process tier pay off on sweep workloads: the
    window tuner submits one batch per window sweep, and each worker's result
    cache and prefix snapshots carry over from sweep to sweep exactly as the
    parent's do on the serial path.
    """

    def __init__(self, spec: EngineWorkerSpec, workers: int):
        self.key = (spec.cache_key, int(workers))
        self.workers = int(workers)
        self.executor = ProcessPoolExecutor(
            max_workers=int(workers),
            initializer=_initialise_worker,
            initargs=(spec,),
        )
        # Tie the worker processes' lifetime to this handle: engines hold the
        # handle, and garbage collection (or an explicit engine.close()) joins
        # the workers.  The finalizer must not reference the engine.
        self._finalizer = weakref.finalize(self, _shutdown_pool, self.executor)

    def shutdown(self) -> None:
        if self._finalizer.detach() is not None:
            _shutdown_pool(self.executor)


class _PoolEntry:
    """Registry bookkeeping for one live pool."""

    __slots__ = ("handle", "in_use", "retired")

    def __init__(self, handle: ProcessPoolHandle):
        self.handle = handle
        #: Number of batches currently executing on this pool.
        self.in_use = 0
        #: Set when the pool's configuration went stale while batches were
        #: still running on it; the last release shuts it down.
        self.retired = False


class ProcessPoolRegistry:
    """Shares an engine's persistent worker pools among concurrent batches.

    With the slot scheduler several batches of one engine may reach the
    process tier at once.  The registry keeps each pool keyed by
    ``(spec.cache_key, workers)`` with an in-use count, so that:

    * concurrent batches with the same execution context **share one pool**
      (worker-side caches and prefix snapshots stay warm for all of them);
    * a batch needing no more workers than an idle same-context pool has
      reuses it: ``resolve_parallelism`` clamps the worker count to the
      batch size, so a short batch after a long one must not respawn the
      workers and lose their warm caches;
    * a batch requesting a different worker count while another batch is
      running does **not** retire the running batch's workers — it shares the
      live pool (submitting shards to a differently-sized pool just queues);
    * a *stale* configuration (a changed ``cache_key``, e.g. a toggled
      noise-model flag) retires idle pools immediately and marks busy ones to
      shut down when their last batch releases them — exactly the old
      single-pool semantics, made safe under concurrency.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, int], _PoolEntry] = {}
        #: Broken pools evicted by :meth:`retire` while batches still held
        #: references; they drain through :meth:`release`.
        self._retired: List[Tuple[Tuple[str, int], _PoolEntry]] = []

    def acquire(self, spec: EngineWorkerSpec, workers: int) -> Tuple[ProcessPoolExecutor, Tuple[str, int]]:
        """An executor for ``spec``, plus the key to :meth:`release` it with."""
        workers = int(workers)
        doomed: List[ProcessPoolHandle] = []
        with self._lock:
            # Retire what can no longer serve: stale-config pools always
            # (idle ones now, busy ones on their last release); same-config
            # pools smaller than this batch needs only when idle — never out
            # from under a running batch.
            for key, entry in list(self._entries.items()):
                stale = key[0] != spec.cache_key
                if entry.in_use == 0:
                    if stale or key[1] < workers:
                        doomed.append(self._entries.pop(key).handle)
                elif stale:
                    entry.retired = True
            entry = self._entries.get((spec.cache_key, workers))
            if entry is None:
                # Share a live same-config pool (a larger idle one, or a busy
                # one of any size) rather than spawning a second set of
                # workers next to it.
                for key, candidate in self._entries.items():
                    if key[0] == spec.cache_key and not candidate.retired:
                        entry = candidate
                        break
            if entry is None:
                entry = _PoolEntry(ProcessPoolHandle(spec, workers))
                self._entries[entry.handle.key] = entry
            entry.in_use += 1
            key = entry.handle.key
        for handle in doomed:
            handle.shutdown()
        return entry.handle.executor, key

    def release(self, key: Tuple[str, int]) -> None:
        doomed: Optional[ProcessPoolHandle] = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.in_use = max(0, entry.in_use - 1)
                if entry.retired and entry.in_use == 0:
                    doomed = self._entries.pop(key).handle
            else:
                # The pool may have been retired out of the live mapping
                # (broken workers); drop this batch's reference and join the
                # dead pool once the last concurrent batch lets go.
                for position, (retired_key, retired) in enumerate(self._retired):
                    if retired_key == key and retired.in_use > 0:
                        retired.in_use -= 1
                        if retired.in_use == 0:
                            doomed = retired.handle
                            del self._retired[position]
                        break
        if doomed is not None:
            doomed.shutdown()

    def retire(self, key: Tuple[str, int]) -> None:
        """Evict a broken pool so the next batch builds fresh workers.

        Called when a worker process died mid-shard (the executor is broken
        and every future submission to it would fail).  The entry leaves the
        live mapping immediately — a concurrent or subsequent ``acquire`` can
        never hand the dead executor out again — while batches still holding
        references drain through :meth:`release` as usual.  Idempotent.
        """
        doomed: Optional[ProcessPoolHandle] = None
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return
            if entry.in_use == 0:
                doomed = entry.handle
            else:
                entry.retired = True
                self._retired.append((key, entry))
        if doomed is not None:
            doomed.shutdown()

    def handles(self) -> List[ProcessPoolHandle]:
        """The currently-live pool handles (inspection/testing)."""
        with self._lock:
            return [entry.handle for entry in self._entries.values()]

    def shutdown(self) -> None:
        """Join every idle pool; mark busy ones to join on their last release.

        Idempotent, and — per the registry's own guarantee — never rips a
        pool out from under a batch still running on it (a concurrent
        blocking ``run_batch`` on another thread keeps its workers until it
        releases them).  The registry stays usable afterwards.
        """
        doomed: List[ProcessPoolHandle] = []
        with self._lock:
            for key, entry in list(self._entries.items()):
                if entry.in_use == 0:
                    doomed.append(self._entries.pop(key).handle)
                else:
                    entry.retired = True
        for handle in doomed:
            handle.shutdown()


def process_map(
    engine,
    spec: EngineWorkerSpec,
    kind: str,
    items: Sequence[Any],
    kwargs: Dict[str, Any],
    plan: ParallelismPlan,
    chains: Optional[Sequence[Sequence[str]]] = None,
) -> List[Any]:
    """Fan a batch out over the engine's process pool, order-stably.

    Items the parent can already answer from its own caches are served
    locally (no serialization); the rest are sharded by
    :func:`plan_shards`, executed on the workers, and their cache records and
    stats deltas are merged back before the ordered results return.
    ``chains`` optionally carries precomputed per-item hash chains (the batch
    scheduler hashes them at submit time); absent, they are computed here.
    """
    items = list(items)
    if chains is None:
        chains = [engine._shard_chain(kind, item) for item in items]
    else:
        chains = list(chains)
    results: List[Any] = [None] * len(items)

    pending: List[int] = []
    for index, item in enumerate(items):
        if engine._is_locally_cached(kind, item, kwargs, chains[index]):
            results[index] = engine._serial_call(kind, item, kwargs)
        else:
            pending.append(index)
    if not pending:
        return results

    # Segment-aware shard costing, when the engine exposes segment keys
    # (``None`` — no hook, the dense kernel, or segment reuse disabled —
    # falls back to chains).
    keys_of = getattr(engine, "_shard_segment_keys", None)
    segment_keys = None
    if keys_of is not None:
        segment_keys = [keys_of(kind, items[index]) for index in pending]
        if any(keys is None for keys in segment_keys):
            segment_keys = None
    shards = plan_shards(
        [chains[i] for i in pending], plan.workers, segment_keys=segment_keys
    )
    pool, pool_key = engine._acquire_process_pool(spec, plan.workers)
    try:
        futures = []
        for shard in shards:
            payloads: List[Any] = []
            slot_by_fingerprint: Dict[str, int] = {}
            assignments: List[Tuple[int, int]] = []
            for position in shard:
                index = pending[position]
                fingerprint = chains[index][-1]
                slot = slot_by_fingerprint.get(fingerprint)
                if slot is None:
                    slot = len(payloads)
                    slot_by_fingerprint[fingerprint] = slot
                    payloads.append(items[index])
                assignments.append((index, slot))
            futures.append(
                pool.submit(_execute_shard, ShardTask(kind, dict(kwargs), payloads, assignments))
            )
        for future in futures:
            outcome = future.result()
            engine._absorb_records(outcome.records)
            engine._absorb_stats(outcome.stats_delta)
            for index, value in outcome.results:
                results[index] = value
    except BrokenExecutor:
        # A worker process died mid-shard.  The executor is permanently
        # broken; without eviction the registry would keep handing the dead
        # pool to every later batch with this configuration.  Retire it so
        # the next batch initialises fresh workers, then let the error reach
        # the caller as this batch's (typed) failure.
        engine._retire_process_pool(pool_key)
        raise
    finally:
        engine._release_process_pool(pool_key)
    return results
