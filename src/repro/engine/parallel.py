"""The process tier: a plain map over worker processes, plus knob resolution.

For the small states the paper's workloads use (4-7 qubits) the Python
interpreter dominates every simulation and the GIL serialises threads, so
the one parallel tier runs independent units of work in worker *processes*.
The unit is a VAQEM strategy: ``VAQEMPipeline.run`` under
``VAQEMConfig(parallelism="process")`` tunes the angles and compiles in the
parent, then :func:`process_map` evaluates each strategy on a fresh serial
engine in a worker and folds the engines' counters back into the parent's
(``docs/architecture.md``).  Nothing below the pipeline crosses a process
boundary: every engine executes its batches serially.

:func:`resolve_parallelism` validates the ``(parallelism, max_workers)``
pair where it is configured.  :func:`plan_shards` and
:func:`common_prefix_length` are the former batch tier's prefix-aware shard
planner; nothing calls them, and they stay only while the benchmark's
``parallel.plan`` metric wraps them by name.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..exceptions import EngineError

#: The accepted ``parallelism=`` values.
PARALLELISM_MODES = ("serial", "process")


# ----------------------------------------------------------------------------
# Parallelism plans
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelismPlan:
    """A resolved execution strategy: a tier and its worker count."""

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
    worker count (default: one per core), clamped to ``num_items``.
    Degenerate requests (one item, one worker) collapse to the serial plan,
    which is behaviourally identical and starts no pool.
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
    ``segment_keys`` — item *i*'s segment content keys (see
    :mod:`repro.engine.segments`) — the
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
# The process map
# ----------------------------------------------------------------------------

def process_map(function: Callable[[Any], Any], items: Sequence[Any], workers: int) -> List[Any]:
    """``[function(item) for item in items]`` on a pool of ``workers``
    processes that lives for this one call.

    ``function`` must pickle by reference (a module-level function) and each
    item and result must pickle.  Results come back in item order; the first
    item whose call raised re-raises its exception here.  Workers start by
    the platform's default method (fork on Linux): a spawned worker would
    re-import the library, which takes longer than a strategy does.
    """
    with ProcessPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(function, items))
