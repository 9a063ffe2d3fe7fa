"""Noisy density-matrix execution engine with caching and prefix reuse.

:class:`NoisyDensityMatrixEngine` wraps the schedule-aware
:class:`~repro.simulators.noisy_simulator.NoisySimulator` behind the
:class:`~repro.engine.base.ExecutionEngine` API and adds the two layers that
make VAQEM-style tuning sweeps affordable:

* a **content-hash result cache** — a scheduled circuit is identified by a
  fingerprint of its full content (instructions, timings, layout, device
  calibration); identical schedules are never simulated twice, no matter how
  they were constructed;
* a **prefix-reuse fast path** — while simulating, the engine checkpoints the
  evolution cursor at instruction boundaries (spaced to respect a byte
  budget) and keys each checkpoint by the schedule's hash chain at that
  depth.  A later schedule that shares a processing prefix — e.g. a window
  tuner candidate that only differs inside one idle window — resumes from the
  deepest matching checkpoint instead of simulating from ``t = 0``.  Resumed
  evolution is bit-identical to a cold run because processing an instruction
  only consults schedule content at or before its start time (see
  :mod:`repro.engine.fingerprint`).

The chains digest the order the simulator executes (time order, see
:mod:`repro.engine.canonical`), so a resumed prefix replays the exact
instruction sequence the checkpoint's producer ran — bit-identical, never
merely close.

Both layers are thread-safe, so caller threads and the scheduler thread may
share one engine without changing any result.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate
from ..exceptions import EngineError
from ..operators.pauli import MeasurementGroup, PauliSum
from ..simulators.density_matrix import DensityMatrix
from ..simulators.noise_model import NoiseModel
from ..simulators.noisy_simulator import (
    EvolutionCursor,
    NoisySimulator,
    ScheduleContext,
    state_measured_probabilities,
)
from ..simulators.ptm import PauliVectorState, PTMEvolver, unitary_ptm
from ..simulators.readout import (
    apply_readout_error,
    counts_to_probabilities,
    probabilities_to_counts,
)
from ..transpiler.scheduling import ScheduledCircuit
from .base import EngineResult, ExecutionEngine, ExpectationData
from .fingerprint import (
    device_fingerprint,
    mitigator_fingerprint,
    observable_fingerprint,
    schedule_hash_chain,
)
from .segments import SegmentCache, SegmentRuntime, schedule_segment_keys


class _ByteBudgetStore:
    """LRU store evicting by total byte footprint rather than entry count.

    Small (few-qubit) states keep near-perfect coverage while 10-qubit
    problems degrade gracefully instead of pinning gigabytes.  A budget of 0
    stores nothing; values larger than the whole budget are not stored.
    """

    def __init__(self, budget_bytes: int):
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def put(self, key: str, value, nbytes: int) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if nbytes > self.budget_bytes:
            return
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        while self._bytes > self.budget_bytes and self._entries:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self._bytes -= evicted_bytes

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


class _LRUCache:
    """A small thread-unsafe LRU dict (callers hold the engine lock)."""

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class NoisyDensityMatrixEngine(ExecutionEngine):
    """Cached, prefix-reusing noisy execution of scheduled circuits."""

    name = "noisy_density_matrix"

    #: This engine consumes device-bound schedules; an ingested program
    #: resolves to its schedule (transpiling an ingested logical circuit
    #: against the noise model's device) — see ``ExecutionEngine._resolve_program``.
    program_input = "scheduled"

    def __init__(
        self,
        noise_model: NoiseModel,
        seed: Optional[int] = None,
        result_cache_bytes: int = 256 << 20,
        expectation_cache_entries: int = 2048,
        snapshot_budget_bytes: int = 64 << 20,
        enable_prefix_reuse: bool = True,
        kernel: Optional[str] = None,
        enable_segment_reuse: bool = True,
    ):
        super().__init__(seed=seed)
        self.noise_model = noise_model
        #: Simulation kernel: ``"dense"`` (complex density matrix, one
        #: contraction per operator) or ``"ptm"`` (real Pauli-transfer-matrix
        #: vectors with fused channel kernels and batched measurement — see
        #: ``docs/ptm.md``).  ``None`` reads ``REPRO_ENGINE_KERNEL`` from the
        #: environment (default ``"dense"``).  The two kernels agree to float
        #: tolerance (<= 1e-9 on energies/probabilities), and each is
        #: bit-reproducible with itself in any process; the kernel therefore
        #: salts every cache key via :meth:`_noise_key`.
        if kernel is None:
            kernel = os.environ.get("REPRO_ENGINE_KERNEL", "dense")
        if kernel not in ("dense", "ptm"):
            raise EngineError(f"unknown simulation kernel {kernel!r} (use 'dense' or 'ptm')")
        self.kernel = kernel
        self.enable_prefix_reuse = enable_prefix_reuse
        #: Segment-level reuse, PTM kernel only (see ``docs/segment_reuse.md``
        #: and :mod:`repro.engine.segments`): each fusion-stride block's fused
        #: kernels are cached by content hash and replayed when *any*
        #: schedule — whatever its prefix — contains the same block.  Replay
        #: applies the identical kernels in the identical order, so results
        #: are bit-identical with this on or off; it is therefore not part of
        #: :meth:`_noise_key`.  The dense kernel reuses prefixes only, and
        #: ignores this flag.
        self.enable_segment_reuse = bool(enable_segment_reuse)
        self.result_cache_bytes = int(result_cache_bytes)
        self.expectation_cache_entries = int(expectation_cache_entries)
        self.snapshot_budget_bytes = int(snapshot_budget_bytes)
        self._simulator = NoisySimulator(noise_model)
        #: The evolution backend behind the cursor API (`begin`/`advance`):
        #: the dense simulator itself, or the PTM evolver wrapping an
        #: identically-configured one (both walk the same op stream, so chains
        #: and contexts are kernel-independent).  Segment replay pays only
        #: on the PTM evolver, so only it gets a segment cache; with
        #: ``_segments`` None the engine computes no segment keys and counts
        #: no segments.
        self._segments: Optional[SegmentCache] = None
        if self.kernel == "ptm":
            self._backend = PTMEvolver(noise_model)
            if self.enable_segment_reuse:
                self._segments = SegmentCache()
        else:
            self._backend = self._simulator
        self._results = _ByteBudgetStore(result_cache_bytes)
        self._expectations = _LRUCache(expectation_cache_entries)
        self._snapshots = _ByteBudgetStore(snapshot_budget_bytes)
        #: Per-object memo of prepared ``(context, chain)`` pairs: one
        #: schedule object is hashed several times per execution (the
        #: expectation cache-first path, the PTM batch path, the service's
        #: store key), and re-preparing it each time is pure overhead.  Entries
        #: are keyed by ``id`` with a weak reference for eviction (schedules
        #: are treated as immutable, like device models) and salted with the
        #: noise key so post-construction flag toggles recompute.
        self._chain_memo: Dict[int, Tuple] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------
    def _noise_key(self) -> str:
        """Execution-context salt mixed into every cache key.

        Recomputed per lookup so that post-construction toggles of the noise
        model's flags / time offset (a supported usage) miss the caches
        instead of silently serving pre-toggle states.
        """
        noise = self.noise_model
        return device_fingerprint(noise.device) + repr(
            (
                noise.include_coherent_errors,
                noise.include_crosstalk,
                noise.include_readout_error,
                noise.include_gate_error,
                noise.include_relaxation,
                noise.time_offset_ns,
                # The kernel: dense and PTM states agree to float tolerance,
                # not bit for bit — and are different array types.
                self.kernel,
            )
        )

    def _chain(self, scheduled: ScheduledCircuit) -> Tuple[ScheduleContext, List[str]]:
        noise_key = self._noise_key()
        key = id(scheduled)
        entry = self._chain_memo.get(key)
        # The liveness check (`entry[0]() is scheduled`) guards against id
        # reuse racing the weakref eviction callback.
        if entry is not None and entry[0]() is scheduled and entry[1] == noise_key:
            return entry[2], entry[3]
        context = self._simulator.prepare(scheduled)
        chain = schedule_hash_chain(
            scheduled, context.ordered, context.initial_last_time, salt=noise_key
        )
        try:
            reference = weakref.ref(
                scheduled, lambda _, key=key, memo=self._chain_memo: memo.pop(key, None)
            )
        except TypeError:  # exotic un-weakref-able stand-ins
            return context, chain
        # The trailing single-slot list lazily memoises the schedule's
        # segment-key walk (see _segment_keys) alongside the chain.
        self._chain_memo[key] = (reference, noise_key, context, chain, [None])
        return context, chain

    def _segment_keys(
        self, scheduled: ScheduledCircuit, context: Optional[ScheduleContext] = None
    ) -> Optional[List[str]]:
        """The schedule's memoised segment key list, or ``None`` when the
        engine holds no segment cache (the dense kernel, or segment reuse
        disabled).

        One key per fusion-stride block of the processing order, salted with
        the noise key — see :func:`repro.engine.segments.schedule_segment_keys`.
        Memoised in the chain memo (same lifetime and invalidation as the
        hash chain); a racing duplicate computation is benign because the
        walk is a pure function of its inputs.
        """
        if self._segments is None:
            return None
        noise_key = self._noise_key()
        stride = self._backend.fusion_stride

        def _live(entry) -> bool:
            return entry is not None and entry[0]() is scheduled and entry[1] == noise_key

        entry = self._chain_memo.get(id(scheduled))
        if not _live(entry):
            context = self._chain(scheduled)[0]
            entry = self._chain_memo.get(id(scheduled))
            if not _live(entry):  # exotic un-weakref-able stand-ins
                return schedule_segment_keys(
                    self._simulator, scheduled, context, salt=noise_key, stride=stride
                )
        holder = entry[4]
        if holder[0] is None:
            holder[0] = schedule_segment_keys(
                self._simulator, scheduled, entry[2], salt=noise_key, stride=stride
            )
        return holder[0]

    def _checkpoint_interval(self, num_instructions: int, state_bytes: int) -> int:
        """Checkpoint spacing such that one schedule's snapshots stay within
        a fraction of the byte budget (small states checkpoint every step)."""
        if num_instructions == 0 or state_bytes <= 0:
            interval = 1
        else:
            per_run_budget = max(self._snapshots.budget_bytes // 4, state_bytes)
            interval = max(
                1, int(np.ceil(num_instructions * state_bytes / per_run_budget))
            )
        # The PTM kernel's fused runs never cross instruction indices that are
        # multiples of its fusion stride; aligning the checkpoint interval to
        # the stride keeps every snapshot/resume depth on that grid, so warm
        # resumes replay the identical composed-kernel sequence a cold run
        # applies (bit-identical, not merely close).
        stride = getattr(self._backend, "fusion_stride", 1)
        if stride > 1:
            interval = ((interval + stride - 1) // stride) * stride
        return interval

    def _state_for(
        self, scheduled: ScheduledCircuit, prepared=None
    ) -> Tuple[DensityMatrix, str, bool]:
        """The (cached) end-of-schedule density matrix and its fingerprint.

        The returned state is shared with the cache — treat it as read-only.
        Only cache and snapshot access is serialized; the simulation itself
        runs outside the lock so concurrent callers overlap real work.  Two
        threads racing on the same schedule would both simulate it and store
        bit-identical states, so correctness never depends on the race.

        ``prepared`` optionally carries a precomputed ``(context, chain)``
        pair so callers that already hashed the schedule (the expectation
        cache-first path) skip the second preparation pass.
        """
        context, chain = prepared if prepared is not None else self._chain(scheduled)
        fingerprint = chain[-1]
        with self._lock:
            self.stats.executions += 1
            cached = self._results.get(fingerprint)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached, fingerprint, True
            self.stats.cache_misses += 1

            total = len(context.ordered)
            cursor: Optional[EvolutionCursor] = None
            if self.enable_prefix_reuse:
                for depth in range(total, 0, -1):
                    snapshot = self._snapshots.get(chain[depth])
                    if snapshot is not None:
                        cursor = snapshot.copy()
                        self.stats.prefix_resumes += 1
                        self.stats.instructions_reused += depth
                        break
            if cursor is None:
                cursor = self._backend.begin(scheduled, context)
            start_depth = cursor.next_index
            self.stats.instructions_simulated += total - start_depth

        # Only the PTM evolver's advance takes segments.
        extra = {}
        if self._segments is not None:
            extra["segments"] = SegmentRuntime(
                self._segments, self._segment_keys(scheduled, context)
            )
        if self.enable_prefix_reuse and total > start_depth:
            interval = self._checkpoint_interval(total, int(cursor.nbytes))
            depth = start_depth
            while depth < total:
                next_depth = min(total, depth + interval)
                self._backend.advance(
                    scheduled, cursor, context, stop_index=next_depth, **extra
                )
                depth = next_depth
                if depth < total:
                    with self._lock:
                        wanted = chain[depth] not in self._snapshots
                    if wanted:
                        # Copy outside the lock — an O(4^n) state copy would
                        # otherwise serialize every concurrent caller.  A
                        # racing duplicate put is harmless (put is a no-op on
                        # existing keys) and both copies are bit-identical.
                        snapshot = cursor.copy()
                        with self._lock:
                            self._snapshots.put(chain[depth], snapshot, snapshot.nbytes)
        else:
            self._backend.advance(scheduled, cursor, context, **extra)
        with self._lock:
            if self.kernel == "ptm":
                # PTM cursors count their own fused-kernel work and segment
                # outcomes since creation (snapshot copies restart from zero,
                # so resumes never double-count a donor's kernels).
                self.stats.ptm_matmuls += cursor.matmuls
                self.stats.instructions_fused += cursor.fused
                self.stats.segment_hits += cursor.segment_hits
                self.stats.segment_misses += cursor.segment_misses
                # Instructions replayed from the segment cache skipped the
                # schedule walk and the kernel compositions — account them
                # as reused, like prefix-resumed instructions.
                self.stats.instructions_reused += cursor.segment_instructions
                self.stats.instructions_simulated -= cursor.segment_instructions
            self._results.put(fingerprint, cursor.state, int(cursor.state.data.nbytes))
        return cursor.state, fingerprint, False

    def density_matrix(self, scheduled: ScheduledCircuit) -> DensityMatrix:
        """The pre-measurement density matrix (shared with the cache — do not
        mutate; :meth:`run` returns a private copy instead).

        On the PTM kernel the cached state is a
        :class:`~repro.simulators.ptm.PauliVectorState`; this method converts
        a private copy back to a dense :class:`DensityMatrix` (exact basis
        change, float tolerance against the dense kernel)."""
        state, _, _ = self._state_for(self._resolve_program(scheduled))
        if isinstance(state, PauliVectorState):
            return state.to_density_matrix()
        return state

    def measurement_state(self, scheduled: ScheduledCircuit):
        """The kernel-native pre-measurement state (shared with the cache — do
        not mutate).

        Unlike :meth:`density_matrix` this never converts: the dense kernel
        returns a :class:`DensityMatrix`, the PTM kernel a
        :class:`~repro.simulators.ptm.PauliVectorState`.  Measuring through
        this state (:func:`measure_pauli_sum` accepts both) reproduces the
        engine's own expectation values bit for bit on either kernel; a
        dense round-trip would instead introduce float-level drift on the
        PTM kernel."""
        state, _, _ = self._state_for(self._resolve_program(scheduled))
        return state

    def run(self, scheduled: ScheduledCircuit) -> EngineResult:
        """Execute one scheduled circuit.

        ``result.state`` is a private copy of the kernel's state object — a
        :class:`DensityMatrix` on the dense kernel, a
        :class:`~repro.simulators.ptm.PauliVectorState` on the PTM kernel
        (convert via ``state.to_density_matrix()`` if needed); when the
        schedule contains measurements, ``result.probabilities`` holds the
        readout-error-distorted outcome distribution over classical bits.
        """
        scheduled = self._resolve_program(scheduled)
        state, fingerprint, from_cache = self._state_for(scheduled)
        probabilities = None
        clbit_order = None
        if scheduled.measured_positions():
            probabilities, clbit_order = state_measured_probabilities(
                state, scheduled, self.noise_model
            )
        return EngineResult(
            fingerprint=fingerprint,
            engine=self.name,
            state=state.copy(),
            probabilities=probabilities,
            clbit_order=clbit_order,
            from_cache=from_cache,
        )

    def measured_probabilities(self, scheduled: ScheduledCircuit) -> Tuple[np.ndarray, List[int]]:
        """Cached equivalent of :meth:`NoisySimulator.measured_probabilities`."""
        scheduled = self._resolve_program(scheduled)
        state, _, _ = self._state_for(scheduled)
        return state_measured_probabilities(state, scheduled, self.noise_model)

    def counts(
        self,
        scheduled: ScheduledCircuit,
        shots: int = 4096,
        seed: Optional[int] = None,
        exact: bool = False,
    ) -> Dict[str, int]:
        """Sampled (or exact expected) counts under the engine seeding contract."""
        scheduled = self._resolve_program(scheduled)
        state, fingerprint, _ = self._state_for(scheduled)
        probabilities, _ = state_measured_probabilities(state, scheduled, self.noise_model)
        if exact:
            return probabilities_to_counts(probabilities, shots, exact=True)
        rng = self._sampling_rng(seed, "counts", fingerprint, str(shots))
        return probabilities_to_counts(probabilities, shots, rng=rng)

    # ------------------------------------------------------------------
    # Expectation values
    # ------------------------------------------------------------------
    def expectation(
        self,
        scheduled: ScheduledCircuit,
        observable: PauliSum,
        shots: Optional[int] = None,
        mitigator=None,
        seed: Optional[int] = None,
    ) -> float:
        """Estimate ``<observable>`` for one scheduled circuit."""
        return self.expectation_full(scheduled, observable, shots=shots, mitigator=mitigator, seed=seed).value

    def _expectation_key(
        self, fingerprint: str, observable: PauliSum, shots, mitigator, seed
    ) -> Tuple:
        """The expectation-cache key."""
        return (
            fingerprint,
            observable_fingerprint(observable),
            shots,
            mitigator_fingerprint(mitigator),
            seed,
        )

    def _expectation_cacheable(self, shots, seed) -> bool:
        """A sampled value is only reproducible (and therefore cacheable) when
        some seed pins the randomness; an unseeded engine draws fresh entropy
        per call instead."""
        return shots is None or seed is not None or self.seed is not None

    def expectation_full(
        self,
        scheduled: ScheduledCircuit,
        observable: PauliSum,
        shots: Optional[int] = None,
        mitigator=None,
        seed: Optional[int] = None,
    ) -> ExpectationData:
        """``<observable>`` plus per-group diagnostics, content-cached.

        The expectation cache is consulted *before* the state is computed (the
        cache key only needs the schedule's content fingerprint), so a cached
        value never costs a simulation — even when the corresponding state was
        evicted.
        """
        scheduled = self._resolve_program(scheduled)
        prepared = self._chain(scheduled)
        fingerprint = prepared[1][-1]
        key = self._expectation_key(fingerprint, observable, shots, mitigator, seed)
        cacheable = self._expectation_cacheable(shots, seed)
        if cacheable:
            with self._lock:
                self.stats.expectation_calls += 1
                cached = self._expectations.get(key)
            if cached is not None:
                with self._lock:
                    self.stats.expectation_cache_hits += 1
                return cached
        else:
            with self._lock:
                self.stats.expectation_calls += 1
        state, fingerprint, _ = self._state_for(scheduled, prepared=prepared)
        rng = None
        if shots is not None:
            rng = self._sampling_rng(seed, "expectation", *map(str, key[:4]))
        data = measure_pauli_sum(
            state, scheduled, observable, self.noise_model,
            shots=shots, mitigator=mitigator, rng=rng,
        )
        if cacheable:
            with self._lock:
                self._expectations.put(key, data)
        return data

    def expectation_batch(
        self,
        circuits: Sequence[ScheduledCircuit],
        observable: PauliSum,
        shots: Optional[int] = None,
        mitigator=None,
        seed: Optional[int] = None,
    ) -> List[float]:
        """Batched ``<observable>``; equals element-wise :meth:`expectation`.

        ``seed`` overrides the content-derived sampling seed for every item,
        exactly like passing it to element-wise :meth:`expectation` calls.
        """
        kwargs = {"observable": observable, "shots": shots, "mitigator": mitigator, "seed": seed}
        return self._dispatch_batch("expectation", circuits, kwargs)

    def expectation_batch_full(
        self,
        circuits: Sequence[ScheduledCircuit],
        observable: PauliSum,
        shots: Optional[int] = None,
        mitigator=None,
        seed: Optional[int] = None,
    ) -> List[ExpectationData]:
        """Batched :meth:`expectation_full` (value plus per-group diagnostics).

        This is the path :class:`~repro.vqe.expectation.ExpectationEstimator`
        batches through; ``seed`` behaves as on :meth:`expectation_batch`.
        """
        kwargs = {"observable": observable, "shots": shots, "mitigator": mitigator, "seed": seed}
        return self._dispatch_batch("expectation_full", circuits, kwargs)

    # ------------------------------------------------------------------
    # Asynchronous submission (see repro.engine.futures)
    # ------------------------------------------------------------------
    def submit_expectation_batch(
        self,
        circuits: Sequence[ScheduledCircuit],
        observable: PauliSum,
        shots: Optional[int] = None,
        mitigator=None,
        submitter=None,
        priority: int = 0,
        seed: Optional[int] = None,
    ):
        """Asynchronous :meth:`expectation_batch` (futures resolving to floats).

        ``submitter`` / ``priority`` feed the engine's scheduler exactly as on
        :meth:`~repro.engine.base.ExecutionEngine.submit_batch`; ``seed``
        behaves as on the blocking :meth:`expectation_batch`.
        """
        kwargs = {"observable": observable, "shots": shots, "mitigator": mitigator, "seed": seed}
        return self._submit_job("expectation", circuits, kwargs, submitter, priority)

    def submit_expectation_batch_full(
        self,
        circuits: Sequence[ScheduledCircuit],
        observable: PauliSum,
        shots: Optional[int] = None,
        mitigator=None,
        submitter=None,
        priority: int = 0,
        seed: Optional[int] = None,
    ):
        """Asynchronous :meth:`expectation_batch_full` (futures resolving to
        :class:`~repro.engine.base.ExpectationData`); the path
        :meth:`ExpectationEstimator.submit_batch
        <repro.vqe.expectation.ExpectationEstimator.submit_batch>` and the
        pipelined window tuner route through.  ``seed`` behaves as on the
        blocking :meth:`expectation_batch`."""
        kwargs = {"observable": observable, "shots": shots, "mitigator": mitigator, "seed": seed}
        return self._submit_job("expectation_full", circuits, kwargs, submitter, priority)

    # ------------------------------------------------------------------
    # Whole-batch PTM fast path
    # ------------------------------------------------------------------
    def _batch_fast_path(self, kind: str, items, kwargs):
        """Expectation batches on the PTM kernel run whole-batch.

        Per-item schedule evolution stays on the fused-kernel path (each
        item's op stream is its own), but the measurement stage — identical
        basis rotations, marginalisation and Walsh-Hadamard transform for
        every candidate of a sweep — executes once on a stacked
        ``(batch, 4**n)`` Pauli-vector array.  Batched kernels are
        elementwise along the batch axis, so every number (and every cache
        and stats side effect) is identical to the per-item path.
        """
        if self.kernel != "ptm" or kind not in ("expectation", "expectation_full"):
            return None
        if len(items) < 2:
            return None
        data = self._expectation_batch_ptm(
            items, kwargs["observable"], kwargs["shots"], kwargs.get("mitigator"),
            kwargs.get("seed"),
        )
        if data is None:
            return None
        if kind == "expectation":
            return [entry.value for entry in data]
        return data

    def _expectation_batch_ptm(
        self,
        items: Sequence[ScheduledCircuit],
        observable: PauliSum,
        shots: Optional[int],
        mitigator,
        seed: Optional[int] = None,
    ) -> Optional[List[ExpectationData]]:
        num_logical = observable.num_qubits
        prepared = []
        mappings = []
        for item in items:
            measured = item.measured_positions()
            clbit_to_position = {clbit: pos for pos, clbit in measured}
            if any(q not in clbit_to_position for q in range(num_logical)):
                # Let the per-item path raise its usual VQEError.
                return None
            prepared.append(self._chain(item))
            mappings.append(clbit_to_position)

        cacheable = self._expectation_cacheable(shots, seed)
        keys = [
            self._expectation_key(prep[1][-1], observable, shots, mitigator, seed)
            for prep in prepared
        ]
        results: List[Optional[ExpectationData]] = [None] * len(items)
        pending: List[int] = []
        duplicates: List[int] = []
        first_for_key: Dict[Tuple, int] = {}
        for index, key in enumerate(keys):
            if cacheable:
                with self._lock:
                    self.stats.expectation_calls += 1
                    cached = self._expectations.get(key)
                if cached is not None:
                    with self._lock:
                        self.stats.expectation_cache_hits += 1
                    results[index] = cached
                    continue
                if key in first_for_key:
                    # Within-batch repeat: the per-item path would hit the
                    # cache the first computation fills.
                    duplicates.append(index)
                    continue
                first_for_key[key] = index
            else:
                # Unseeded sampling: every repeat draws fresh entropy, so
                # nothing dedupes.
                with self._lock:
                    self.stats.expectation_calls += 1
            pending.append(index)

        if pending:
            self._measure_pending_batched(
                items, prepared, mappings, keys, pending, results,
                observable, shots, mitigator, cacheable, seed,
            )
        for index in duplicates:
            with self._lock:
                self.stats.expectation_cache_hits += 1
            results[index] = results[first_for_key[keys[index]]]
        return results

    def _measure_pending_batched(
        self, items, prepared, mappings, keys, pending, results,
        observable: PauliSum, shots, mitigator, cacheable: bool,
        seed: Optional[int] = None,
    ) -> None:
        """Compute the not-yet-cached rows of an expectation batch, batching
        the measurement stage across rows with equal (size, positions)."""
        states: Dict[int, PauliVectorState] = {}
        for index in pending:
            state, _, _ = self._state_for(items[index], prepared=prepared[index])
            states[index] = state
        num_logical = observable.num_qubits
        buckets: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for index in pending:
            positions = tuple(mappings[index][q] for q in range(num_logical))
            buckets.setdefault((states[index].num_qubits, positions), []).append(index)
        rngs = {}
        if shots is not None:
            for index in pending:
                rngs[index] = self._sampling_rng(
                    seed, "expectation", *map(str, keys[index][:4])
                )
        h_matrix = Gate("h", 1).matrix()
        y_matrix = h_matrix @ Gate("sdg", 1).matrix()
        totals = {index: observable.identity_coefficient() for index in pending}
        group_values = {index: [] for index in pending}
        distributions = {index: [] for index in pending}
        width = 0
        for group in observable.group_commuting():
            for (_, positions), bucket in buckets.items():
                stacked = PauliVectorState.stack([states[i] for i in bucket])
                width = max(width, stacked.batch)
                for logical in range(num_logical):
                    factor = group.basis[logical]
                    if factor == "X":
                        stacked.apply_ptm(unitary_ptm(h_matrix), (positions[logical],))
                    elif factor == "Y":
                        stacked.apply_ptm(unitary_ptm(y_matrix), (positions[logical],))
                marginals = stacked.batch_marginal_probabilities(positions)
                for row, index in enumerate(bucket):
                    probabilities = marginals[row]
                    confusions = [
                        self.noise_model.readout_confusion(items[index].physical_qubit(pos))
                        for pos in positions
                    ]
                    probabilities = apply_readout_error(probabilities, confusions)
                    if shots is not None:
                        counts = probabilities_to_counts(probabilities, shots, rng=rngs[index])
                        probabilities = counts_to_probabilities(counts, num_bits=num_logical)
                    if mitigator is not None:
                        probabilities = mitigator.mitigate_probabilities(probabilities)
                    value = distribution_expectation(probabilities, group, num_logical)
                    totals[index] += value
                    group_values[index].append(value)
                    distributions[index].append(probabilities)
        for index in pending:
            data = ExpectationData(
                value=float(totals[index]),
                group_values=group_values[index],
                distributions=distributions[index],
            )
            results[index] = data
            if cacheable:
                with self._lock:
                    self._expectations.put(keys[index], data)
        with self._lock:
            self.stats.batch_width = max(self.stats.batch_width, width)

    # ------------------------------------------------------------------
    def _serial_call(self, kind: str, item, kwargs):
        if kind == "run":
            return self.run(item)
        if kind == "expectation":
            return self.expectation(
                item, kwargs["observable"], shots=kwargs["shots"],
                mitigator=kwargs.get("mitigator"), seed=kwargs.get("seed"),
            )
        if kind == "expectation_full":
            return self.expectation_full(
                item, kwargs["observable"], shots=kwargs["shots"],
                mitigator=kwargs.get("mitigator"), seed=kwargs.get("seed"),
            )
        return super()._serial_call(kind, item, kwargs)

    def _shard_chain(self, kind: str, scheduled: ScheduledCircuit) -> Sequence[str]:
        return self._chain(scheduled)[1]

    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        with self._lock:
            self._results.clear()
            self._expectations.clear()
            self._snapshots.clear()
            if self._segments is not None:
                self._segments.clear()


# ----------------------------------------------------------------------------
# Measurement-group expectation math (shared with ExpectationEstimator)
# ----------------------------------------------------------------------------

def measure_pauli_sum(
    state: DensityMatrix,
    scheduled: ScheduledCircuit,
    hamiltonian: PauliSum,
    noise_model: NoiseModel,
    shots: Optional[int] = None,
    mitigator=None,
    rng: Optional[np.random.Generator] = None,
) -> ExpectationData:
    """Measure a Pauli-sum observable on a pre-measurement density matrix.

    Mirrors how a machine measures a VQE objective: for every qubit-wise
    commuting group, the appropriate basis rotations are applied to a copy of
    the state, the Z-basis distribution is extracted, readout error distorts
    it, (optional) shot sampling adds noise, (optional) measurement error
    mitigation un-distorts it, and the weighted Pauli expectations are summed.
    """
    from ..exceptions import VQEError

    measured = scheduled.measured_positions()
    if not measured:
        raise VQEError("the scheduled circuit must measure every Hamiltonian qubit")
    clbit_to_position = {clbit: pos for pos, clbit in measured}
    for logical in range(hamiltonian.num_qubits):
        if logical not in clbit_to_position:
            raise VQEError(f"Hamiltonian qubit {logical} is never measured")

    groups = hamiltonian.group_commuting()
    total = hamiltonian.identity_coefficient()
    group_values: List[float] = []
    distributions: List[np.ndarray] = []
    for group in groups:
        value, distribution = _measure_group(
            state, scheduled, group, clbit_to_position, hamiltonian.num_qubits,
            noise_model, shots, mitigator, rng,
        )
        group_values.append(value)
        distributions.append(distribution)
        total += value
    return ExpectationData(value=float(total), group_values=group_values, distributions=distributions)


def _measure_group(
    state: DensityMatrix,
    scheduled: ScheduledCircuit,
    group: MeasurementGroup,
    clbit_to_position: Dict[int, int],
    num_logical: int,
    noise_model: NoiseModel,
    shots: Optional[int],
    mitigator,
    rng: Optional[np.random.Generator],
) -> Tuple[float, np.ndarray]:
    rotated = state.copy()
    # Basis change: X -> H, Y -> H . Sdg (so that Z-measurement reads the
    # desired Pauli), applied on the circuit position carrying each logical qubit.
    h_matrix = Gate("h", 1).matrix()
    for logical in range(num_logical):
        factor = group.basis[logical]
        position = clbit_to_position[logical]
        if factor == "X":
            rotated.apply_unitary(h_matrix, (position,))
        elif factor == "Y":
            rotated.apply_unitary(h_matrix @ Gate("sdg", 1).matrix(), (position,))
    positions = [clbit_to_position[logical] for logical in range(num_logical)]
    probabilities = rotated.marginal_probabilities(positions)
    confusions = [
        noise_model.readout_confusion(scheduled.physical_qubit(pos)) for pos in positions
    ]
    probabilities = apply_readout_error(probabilities, confusions)
    if shots is not None:
        counts = probabilities_to_counts(probabilities, shots, rng=rng)
        probabilities = counts_to_probabilities(counts, num_bits=num_logical)
    if mitigator is not None:
        probabilities = mitigator.mitigate_probabilities(probabilities)
    value = distribution_expectation(probabilities, group, num_logical)
    return value, probabilities


def distribution_expectation(
    probabilities: np.ndarray, group: MeasurementGroup, num_bits: int
) -> float:
    """Weighted sum of Pauli expectations computed from one outcome distribution."""
    value = 0.0
    for pauli, coeff in group.terms:
        expectation = 0.0
        for index, probability in enumerate(probabilities):
            if probability == 0.0:
                continue
            bitstring = format(index, f"0{num_bits}b")
            expectation += probability * pauli.expectation_sign(bitstring)
        value += coeff * expectation
    return value
