"""Property suite for segment-level operator reuse (``repro.engine.segments``).

Segments run on the PTM kernel only.  The segment-family differential
harness: seeded window-tuner-style families
(``tests/randomized.py:segment_family`` — schedules diverging inside exactly
one idle window) drive the three contracts
``docs/segment_reuse.md`` documents:

* **Linearity / bit-exactness** — replaying a cached segment applies the
  identical fused kernels in the identical order as a cold walk, so states
  are bit-identical with the cache cold, warm, or disabled; the *explicitly
  composed* segment operator agrees with step-wise evolution to ``<= 1e-12``
  (composition reassociates the floats, which is exactly why the engine
  replays streams instead of composing).
* **Grid alignment** — segment boundaries land bitwise on the kernel's
  determinism grid: every boundary is a ``fusion_stride`` multiple, and
  off-grid stops fall back to the plain walk without perturbing results or
  work counters.
* **Keying** — segment hashes are distinct across content edits: a
  parameter bump, a reordered same-qubit pair, a DD/GS edit inside a
  window.  Shared keys across a family imply shared
  operator streams, which the differential harness checks by replaying every
  member from one shared cache against its own cold walk.

Every failure reproduces from the seed in its assertion message alone.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

import randomized
from repro.circuits.gates import Gate
from repro.engine import NoisyDensityMatrixEngine
from repro.engine.segments import (
    SegmentCache,
    SegmentRuntime,
    schedule_segment_keys,
    segment_spans,
)
from repro.simulators import NoiseModel
from repro.simulators.noisy_simulator import NoisySimulator
from repro.simulators.ptm import PauliVectorState, PTMEvolver

#: Composition reassociates float products; stream replay is bitwise.
COMPOSE_ATOL = 1e-12

FAMILY_SEEDS = randomized.fuzz_seeds(4, offset=1200)
#: Smaller circuits for the composed-operator tests (the explicit composed
#: PTM is (4**n, 4**n)).
SMALL_SEEDS = randomized.fuzz_seeds(2, offset=1250)


@pytest.fixture(scope="module")
def device():
    return randomized.fuzz_device()


@pytest.fixture(scope="module")
def noise(device):
    return NoiseModel.from_device(device)


@pytest.fixture(scope="module")
def families(device):
    return [
        randomized.segment_family(
            randomized.random_compiled(seed, device=device), seed
        )
        for seed in FAMILY_SEEDS
    ]


def ptm_runtime(evolver, scheduled, context, cache):
    keys = schedule_segment_keys(
        evolver._simulator, scheduled, context, salt="t", stride=evolver.fusion_stride
    )
    return SegmentRuntime(cache, keys)


# ----------------------------------------------------------------------------
# Grid alignment
# ----------------------------------------------------------------------------

class TestSegmentSpans:
    @pytest.mark.parametrize("total,stride", [(0, 8), (1, 8), (7, 8), (8, 8), (9, 8), (25, 8), (5, 1)])
    def test_spans_tile_the_stride_grid(self, total, stride):
        spans = segment_spans(total, stride)
        assert len(spans) == -(-total // stride) if total else spans == []
        position = 0
        for start, stop in spans:
            assert start == position and start % stride == 0
            assert start < stop <= total
            position = stop
        assert position == total

    def test_one_key_per_span_both_kernels(self, device, noise):
        compiled = randomized.random_compiled(FAMILY_SEEDS[0], device=device)
        simulator = NoisySimulator(noise)
        evolver = PTMEvolver(noise)
        context = simulator.prepare(compiled.scheduled)
        total = len(context.ordered)
        dense_keys = schedule_segment_keys(simulator, compiled.scheduled, context, stride=1)
        ptm_keys = schedule_segment_keys(
            simulator, compiled.scheduled, context, stride=evolver.fusion_stride
        )
        assert len(dense_keys) == len(segment_spans(total, 1)) == total
        assert len(ptm_keys) == len(segment_spans(total, evolver.fusion_stride))
        # The stride is part of the key root: the two grids never collide.
        assert not set(dense_keys) & set(ptm_keys)

    def test_grid_stops_are_bitwise_transparent(self, device, noise):
        """Stopping/resuming at stride multiples with the segment cache on is
        bitwise identical — states and work counters — to the uninterrupted
        cache-off walk.  This is the boundary contract: segment records cover
        whole blocks, and the engine's checkpoint depths are stride-aligned,
        so replay never meets a torn block."""
        evolver = PTMEvolver(noise)
        scheduled = randomized.random_schedule(FAMILY_SEEDS[1], device=device)
        context = evolver.prepare(scheduled)
        total = len(context.ordered)
        plain = evolver.begin(scheduled, context)
        evolver.advance(scheduled, plain, context)
        one_shot = evolver.begin(scheduled, context)
        evolver.advance(
            scheduled, one_shot, context,
            segments=ptm_runtime(evolver, scheduled, context, SegmentCache()),
        )
        stepped = evolver.begin(scheduled, context)
        runtime = ptm_runtime(evolver, scheduled, context, SegmentCache())
        for stop in list(range(evolver.fusion_stride, total, evolver.fusion_stride)) + [total]:
            evolver.advance(scheduled, stepped, context, stop_index=stop, segments=runtime)
        for cursor in (one_shot, stepped):
            assert np.array_equal(plain.state.data, cursor.state.data)
            assert (cursor.matmuls, cursor.fused) == (plain.matmuls, plain.fused)

    def test_off_grid_stops_fall_back_identically(self, device, noise):
        """Arbitrary (off-grid) stop indices remain valid with segments on:
        the partial block falls back to the plain walk, so the run is bitwise
        identical to the *same stop sequence* without segments.  (Off-grid
        stops regroup the fusion runs relative to an uninterrupted walk —
        with or without the cache — which is why the engine only checkpoints
        on the stride grid.)"""
        evolver = PTMEvolver(noise)
        scheduled = randomized.random_schedule(FAMILY_SEEDS[1], device=device)
        context = evolver.prepare(scheduled)
        total = len(context.ordered)
        stops = sorted({3, 5, evolver.fusion_stride + 1, total // 2, total})
        reference = evolver.begin(scheduled, context)
        for stop in stops:
            evolver.advance(scheduled, reference, context, stop_index=stop)
        segmented = evolver.begin(scheduled, context)
        runtime = ptm_runtime(evolver, scheduled, context, SegmentCache())
        for stop in stops:
            evolver.advance(scheduled, segmented, context, stop_index=stop, segments=runtime)
        assert np.array_equal(reference.state.data, segmented.state.data)
        assert (segmented.matmuls, segmented.fused) == (reference.matmuls, reference.fused)


# ----------------------------------------------------------------------------
# Bit-exact replay (the differential harness)
# ----------------------------------------------------------------------------

class TestBitExactReplay:
    def test_ptm_family_replay_from_shared_cache(self, families, noise):
        """Every family member, evolved against one shared segment cache —
        cold for the base, warm with its relatives' segments afterwards — is
        bit-identical to its own cache-off evolution.  Equal keys therefore
        implied equal operator streams on every collision the family
        produced."""
        evolver = PTMEvolver(noise)
        cache = SegmentCache()
        for family_seed, family in zip(FAMILY_SEEDS, families):
            for label, _, scheduled in family:
                context = evolver.prepare(scheduled)
                plain = evolver.begin(scheduled, context)
                evolver.advance(scheduled, plain, context)
                shared = evolver.begin(scheduled, context)
                evolver.advance(
                    scheduled, shared, context,
                    segments=ptm_runtime(evolver, scheduled, context, cache),
                )
                assert np.array_equal(plain.state.data, shared.state.data), (
                    family_seed, label
                )
                # Replay re-counts the composed kernels exactly as the cold
                # fusion loop does.
                assert (shared.matmuls, shared.fused) == (plain.matmuls, plain.fused), (
                    family_seed, label
                )

    def test_warm_rerun_is_all_hits_and_bitwise(self, device, noise):
        evolver = PTMEvolver(noise)
        scheduled = randomized.random_schedule(FAMILY_SEEDS[2], device=device)
        context = evolver.prepare(scheduled)
        cache = SegmentCache()
        runtime = ptm_runtime(evolver, scheduled, context, cache)
        cold = evolver.begin(scheduled, context)
        evolver.advance(scheduled, cold, context, segments=runtime)
        total = len(context.ordered)
        blocks = len(runtime.keys)
        assert blocks == len(segment_spans(total, evolver.fusion_stride))
        distinct = len(set(runtime.keys))
        # A schedule can repeat an identical block (same instructions, same
        # absolute times, same idle context); the cold run already replays
        # the repeats, so misses count *distinct* keys.
        assert (cold.segment_misses, cold.segment_hits) == (distinct, blocks - distinct)
        warm = evolver.begin(scheduled, context)
        evolver.advance(scheduled, warm, context, segments=runtime)
        assert (warm.segment_misses, warm.segment_hits) == (0, blocks)
        assert warm.segment_instructions == total
        assert np.array_equal(cold.state.data, warm.state.data)


# ----------------------------------------------------------------------------
# Composed segment operator vs step-wise evolution
# ----------------------------------------------------------------------------

def _composed_ptm_matrix(ops, num_qubits):
    """The block's single composed PTM, built column by column (linearity:
    evolve each Pauli basis vector through the recorded stream)."""
    dim = 4 ** num_qubits
    composed = np.zeros((dim, dim))
    for column in range(dim):
        state = PauliVectorState(num_qubits, data=np.eye(dim)[column])
        for kernel, positions, _ in ops:
            state.apply_ptm(kernel, positions)
        composed[:, column] = state.data[0]
    return composed


class TestComposedSegmentOperator:
    """The linearity argument, verified numerically: a segment *has* a single
    composed operator, and applying it once agrees with the step-wise walk to
    ``<= 1e-12`` (bitwise is reserved for stream replay, which is what the
    engine actually does)."""

    def test_ptm_blocks(self, device, noise):
        evolver = PTMEvolver(noise)
        stride = evolver.fusion_stride
        for seed in SMALL_SEEDS:
            scheduled = randomized.random_schedule(seed, num_qubits=3, depth=6, device=device)
            context = evolver.prepare(scheduled)
            cache = SegmentCache()
            runtime = ptm_runtime(evolver, scheduled, context, cache)
            full = evolver.begin(scheduled, context)
            evolver.advance(scheduled, full, context, segments=runtime)
            spans = segment_spans(len(context.ordered), stride)
            for number in {0, len(spans) // 2, len(spans) - 1}:
                start, stop = spans[number]
                entry = evolver.begin(scheduled, context)
                evolver.advance(scheduled, entry, context, stop_index=start)
                entry_vec = entry.state.data[0].copy()
                record, claim = cache.acquire(runtime.keys[number])
                assert claim is None and record is not None
                composed = _composed_ptm_matrix(record.ops, scheduled.num_qubits)
                evolver.advance(scheduled, entry, context, stop_index=stop)
                np.testing.assert_allclose(
                    composed @ entry_vec, entry.state.data[0], atol=COMPOSE_ATOL,
                    err_msg=f"seed {seed} block {number}",
                )


# ----------------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------------

def _keys(simulator, scheduled, stride=1):
    context = simulator.prepare(scheduled)
    return schedule_segment_keys(simulator, scheduled, context, salt="k", stride=stride)


def _parameter_edit(scheduled):
    """Bump the first float parameter by 0.1 — a semantic edit."""
    out = scheduled.copy()
    instructions = list(out.timed_instructions)
    for index, timed in enumerate(instructions):
        gate = timed.instruction.gate
        if gate.params and isinstance(gate.params[0], float):
            bumped = Gate(
                gate.name, gate.num_qubits,
                (gate.params[0] + 0.1,) + tuple(gate.params[1:]),
            )
            instructions[index] = replace(
                timed, instruction=replace(timed.instruction, gate=bumped)
            )
            out.timed_instructions = instructions
            return out
    return None


def _same_qubit_swap(scheduled):
    """Swap one same-start pair on a shared qubit (an ``rz`` and the gate
    starting with it, say), which reorders that qubit's gate sequence."""
    out = scheduled.copy()
    base = out.sorted_instructions()
    for i in range(len(base) - 1):
        a, b = base[i], base[i + 1]
        if (
            a.start_ns == b.start_ns
            and "measure" not in (a.name, b.name)
            and set(a.qubits) & set(b.qubits)
        ):
            order = list(base)
            order[i], order[i + 1] = order[i + 1], order[i]
            out.timed_instructions = order
            return out
    return None


class TestSegmentKeying:
    def test_distinct_across_parameter_edits(self, device, noise):
        simulator = NoisySimulator(noise)
        for seed in FAMILY_SEEDS:
            scheduled = randomized.random_schedule(seed, device=device)
            edited = _parameter_edit(scheduled)
            assert edited is not None, seed
            assert _keys(simulator, scheduled) != _keys(simulator, edited), seed

    def test_distinct_across_non_commuting_reorders(self, device, noise):
        simulator = NoisySimulator(noise)
        found = 0
        for seed in randomized.fuzz_seeds(12, offset=1300):
            scheduled = randomized.random_schedule(seed, device=device)
            swapped = _same_qubit_swap(scheduled)
            if swapped is None:
                continue
            found += 1
            assert _keys(simulator, scheduled) != _keys(simulator, swapped), seed
        assert found >= 1, "no seed produced a same-start non-commuting pair"

    def test_family_members_share_and_diverge(self, families, noise):
        """The reuse story in key space: a window-divergent variant shares
        segments with the base (that is what the cache exploits) yet differs
        somewhere (the edit is content)."""
        simulator = NoisySimulator(noise)
        for family_seed, family in zip(FAMILY_SEEDS, families):
            keyed = [
                (label, _keys(simulator, scheduled))
                for label, _, scheduled in family
            ]
            base = keyed[0][1]
            for label, key_list in keyed[1:]:
                assert key_list != base, (family_seed, label)
                assert set(key_list) & set(base), (family_seed, label)

    def test_salt_and_stride_partition_the_key_space(self, device, noise):
        simulator = NoisySimulator(noise)
        scheduled = randomized.random_schedule(FAMILY_SEEDS[0], device=device)
        context = simulator.prepare(scheduled)
        a = schedule_segment_keys(simulator, scheduled, context, salt="a")
        b = schedule_segment_keys(simulator, scheduled, context, salt="b")
        assert not set(a) & set(b)


# ----------------------------------------------------------------------------
# Cache concurrency semantics
# ----------------------------------------------------------------------------

class TestSegmentCache:
    def test_single_flight_blocks_racers_until_fulfil(self):
        cache = SegmentCache()
        record, claim = cache.acquire("key")
        assert record is None and claim is not None
        outcome = {}

        def racer():
            outcome["result"] = cache.acquire("key")

        thread = threading.Thread(target=racer)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive(), "racer should block on the in-flight claim"
        fulfilled = cache.fulfil("key", claim, ((np.eye(4), (0,), 0),), (), 1)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome["result"] == (fulfilled, None)

    def test_abandon_promotes_a_waiter_to_claimant(self):
        cache = SegmentCache()
        _, claim = cache.acquire("key")
        outcome = {}

        def racer():
            outcome["result"] = cache.acquire("key")

        thread = threading.Thread(target=racer)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()
        cache.abandon("key", claim)
        thread.join(timeout=5)
        record, new_claim = outcome["result"]
        assert record is None and new_claim is not None
        cache.abandon("key", new_claim)


# ----------------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------------

class TestEngineSegmentReuse:
    def test_family_sweep_bit_identical_with_cache_off(self, families, noise):
        on = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm")
        off = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm", enable_segment_reuse=False)
        try:
            for family_seed, family in zip(FAMILY_SEEDS, families):
                for label, _, scheduled in family:
                    assert np.array_equal(
                        on.run(scheduled).probabilities,
                        off.run(scheduled).probabilities,
                    ), (family_seed, label)
            assert on.stats.segment_hits > 0
            assert on.stats.instructions_reused > off.stats.instructions_reused
            assert off.stats.segment_hits == off.stats.segment_misses == 0
        finally:
            on.close()
            off.close()

    def test_counters_deterministic_across_reruns(self, families, noise):
        def sweep():
            engine = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm")
            try:
                for family in families:
                    for _, _, scheduled in family:
                        engine.run(scheduled)
                return engine.stats.as_dict()
            finally:
                engine.close()

        assert sweep() == sweep()

    def test_clear_caches_resets_segment_store(self, families, noise):
        engine = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm")
        try:
            _, _, scheduled = families[0][0]
            engine.run(scheduled)
            assert engine.cache_report()["segments"]["entries"] > 0
            engine.clear_caches()
            assert engine.cache_report()["segments"]["entries"] == 0
        finally:
            engine.close()
