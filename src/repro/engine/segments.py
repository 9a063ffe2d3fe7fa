"""Segment-level operator reuse for PTM schedule evolution.

Prefix-keyed reuse (snapshots at schedule hash-chain depths) has a hard
ceiling on sweep workloads: once two candidate schedules diverge — a DD
sequence inserted into window *k*, a gate shifted inside it — everything
*after* the divergence re-simulates even when it is instruction-for-
instruction identical.  PR 5's oracle measured that ceiling at ~50-53% on
the H2 window-tuner sweep.

Density-matrix evolution is linear: the operators a mid-schedule *segment*
applies are a pure function of segment content, never of the state they are
applied to.  On the PTM kernel this module therefore caches each segment's
**compiled operator stream** — the fused composed kernels of one fusion-stride
block — keyed by a content hash of exactly the inputs that determine that
stream.  A later schedule containing the same segment (same instructions,
same entry idle state) *replays* the cached kernels instead of re-walking the
schedule: idle-gap analysis, channel assembly, PTM lookups and the kernel
compositions are all skipped.  The dense kernel keeps prefix reuse only: there
a replay re-applies every recorded operator, so skipping the walk alone did
not pay (``docs/segment_reuse.md`` records the A/B).

Bit-exactness contract
----------------------
Replay applies the *identical* operator arrays in the *identical* order a
cold walk applies, so states — and therefore energies — are bit-identical
with segment reuse on or off.  (Mathematically the
segment also has a single composed matrix; applying that one matrix would
change the floating-point evaluation order, so the engine deliberately
replays the recorded per-kernel stream instead.  ``docs/segment_reuse.md``
spells out the argument; ``tests/test_segments.py`` pins both the
bit-identity and the <= 1e-12 agreement of the explicitly composed
operator.)

A segment is one ``fusion_stride`` block of the PTM kernel, whose fused runs
never cross stride boundaries (see ``docs/ptm.md``), so segment boundaries
land exactly on the engine's checkpoint grid.

Keying
------
``schedule_segment_keys`` digests, per segment:

* the schedule-level context: caller salt (the engine's noise key, which
  already covers device calibration, noise flags and the kernel), qubit
  count, the position-to-physical layout and the stride;
* each instruction's timed token (name, params, qubits, clbits, absolute
  start and duration);
* each idle gap the simulator would fill before the instruction: the
  position, its entry ``last_time`` and the ZZ-partner positions, computed
  by the simulator's own idle-gap rule (``NoisySimulator.idle_partners``) —
  including busy intervals that lie outside the segment, which is why the
  partners are part of the key rather than an assumption.

The op stream is a pure function of these inputs, so equal keys imply equal
operator streams.  Keys are memoised per prepared schedule by the engine;
the walk itself builds no matrices.

Concurrency
-----------
:class:`SegmentCache` is shared by every thread of one engine and resolves
racing lookups with single-flight claims: the first thread to miss a key
computes and records the segment, later threads block until the record
lands and then replay it.  Counters are therefore deterministic — every
distinct key is missed exactly once, however threads interleave.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache import LRUCache
from .fingerprint import _digest, timed_instruction_token

__all__ = [
    "SEGMENT_CACHE_BYTES",
    "SegmentCache",
    "SegmentRecord",
    "SegmentRuntime",
    "schedule_segment_keys",
    "segment_spans",
]


def segment_spans(total: int, stride: int) -> List[Tuple[int, int]]:
    """Stride-grid segment boundaries over ``total`` instructions.

    ``[(0, stride), (stride, 2*stride), ..., (k*stride, total)]`` — every
    boundary is a multiple of ``stride`` (the PTM kernel's fusion grid), so
    segments never cut a fused run and the engine's stride-aligned
    checkpoints always land on a segment boundary.
    """
    stride = max(1, int(stride))
    return [(start, min(start + stride, total)) for start in range(0, total, stride)]


def schedule_segment_keys(
    simulator,
    scheduled,
    context,
    salt: str = "",
    stride: int = 1,
) -> List[str]:
    """One content key per stride-grid segment of ``context.ordered``.

    ``simulator`` is the :class:`~repro.simulators.noisy_simulator.NoisySimulator`
    whose idle-gap rule (``idle_partners``) both the keys and its op stream
    consult, so the ZZ judgement can never drift.  The walk advances a
    private ``last_time`` copy exactly as ``schedule_ops`` would, but builds
    no operator payloads — keying a schedule costs one token digest per
    instruction, done once and memoised by the engine.
    """
    ordered = context.ordered
    idle_partners = simulator.idle_partners
    root = _digest(
        salt,
        str(scheduled.num_qubits),
        repr(tuple(scheduled.physical_qubits)),
        str(max(1, int(stride))),
    )
    last_time: Dict[int, float] = dict(context.initial_last_time)
    keys: List[str] = []
    for start, stop in segment_spans(len(ordered), stride):
        parts = [root]
        for index in range(start, stop):
            timed = ordered[index]
            parts.append(timed_instruction_token(timed))
            if timed.name == "barrier":
                continue
            for position in timed.qubits:
                entry = last_time[position]
                partners = idle_partners(context, position, entry, timed.start_ns)
                if partners is not None:
                    parts.append(f"idle|{position}|{entry!r}|{partners!r}")
            if timed.name == "measure":
                last_time[timed.qubits[0]] = timed.end_ns
            else:
                for position in timed.qubits:
                    last_time[position] = timed.end_ns
        keys.append(_digest(*parts))
    return keys


#: Byte budget of an engine's segment records (sized by their PTMs' bytes).
SEGMENT_CACHE_BYTES = 64 << 20


class SegmentRecord:
    """One cached segment: the compiled operator stream plus bookkeeping.

    ``ops`` holds the block's flushed ``(ptm, positions, fused_count)``
    triples in application order.  ``last_time`` holds the
    ``(position, end_ns)`` updates replay must apply to the cursor's idle
    bookkeeping; ``instructions`` is the number of schedule instructions the
    segment covers (for reuse accounting).
    """

    __slots__ = ("ops", "last_time", "instructions")

    def __init__(
        self,
        ops: Tuple,
        last_time: Tuple[Tuple[int, float], ...],
        instructions: int,
    ):
        self.ops = ops
        self.last_time = last_time
        self.instructions = int(instructions)


class _Claim:
    """Single-flight token for one in-progress segment computation."""

    __slots__ = ("event",)

    def __init__(self):
        self.event = threading.Event()


class SegmentCache:
    """Content-keyed :class:`SegmentRecord` store with single-flight misses.

    The records live in :attr:`records`, an :class:`~repro.cache.LRUCache`
    sized by the bytes of each record's PTMs.  ``acquire`` returns
    ``(record, None)`` on a hit and ``(None, claim)`` when the caller must
    compute the segment; a thread racing an in-flight computation blocks
    until the record lands (or the computation is abandoned) and then
    retries.  The claimant must call :meth:`fulfil` on success or
    :meth:`abandon` on failure — never neither.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.records = LRUCache(SEGMENT_CACHE_BYTES)
        self._inflight: Dict[str, _Claim] = {}

    def acquire(self, key: str) -> Tuple[Optional[SegmentRecord], Optional[_Claim]]:
        while True:
            with self._lock:
                record = self.records.get(key)
                if record is not None:
                    return record, None
                claim = self._inflight.get(key)
                if claim is None:
                    claim = _Claim()
                    self._inflight[key] = claim
                    return None, claim
            # Another thread is computing this segment; waiting (the work is
            # microseconds) keeps hit/miss counts deterministic where a racing
            # duplicate computation would make them timing-dependent.
            claim.event.wait()

    def fulfil(
        self,
        key: str,
        claim: _Claim,
        ops: Tuple,
        last_time: Tuple[Tuple[int, float], ...],
        instructions: int,
    ) -> SegmentRecord:
        record = SegmentRecord(ops, last_time, instructions)
        with self._lock:
            self.records.put(key, record, sum(ptm.nbytes for ptm, _, _ in ops))
            self._inflight.pop(key, None)
        claim.event.set()
        return record

    def abandon(self, key: str, claim: _Claim) -> None:
        """Release a claim whose computation failed; waiters retry (and one
        of them becomes the new claimant)."""
        with self._lock:
            self._inflight.pop(key, None)
        claim.event.set()


class SegmentRuntime:
    """What a backend's ``advance`` needs for segment reuse on one schedule:
    the engine's shared :class:`SegmentCache` plus the schedule's memoised
    key list (indexed by segment number, i.e. ``start // stride``)."""

    __slots__ = ("cache", "keys")

    def __init__(self, cache: SegmentCache, keys: Sequence[str]):
        self.cache = cache
        self.keys = keys
