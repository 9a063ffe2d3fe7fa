"""The fused gate step and the bisected idle-overlap scan against the code
they replaced, kept in this file as the reference.

* Reference walk: each gate's unitary through ``DensityMatrix.apply_unitary``,
  then each of ``NoiseModel.gate_channels`` through ``apply_superop`` — the
  op-by-op stream the simulator walked before gates became one channel.
  Engine-vs-simulator parity cannot catch a wrong composition, because both
  sides consume the fused stream; this walk does not.
* Full scan: ``_idle_overlap`` summing over the whole busy list from t = 0,
  stopping only at the first interval that starts at or after the gap's end.
"""

from __future__ import annotations

import numpy as np
import pytest

import randomized
from repro.circuits.gates import Delay
from repro.simulators import ChannelOp, DensityMatrix, NoiseModel, PTMEvolver
from repro.simulators.noisy_simulator import NoisySimulator
from repro.transpiler.scheduling import ScheduledCircuit

ATOL = 1e-12

STEP_SEEDS = randomized.fuzz_seeds(12, offset=2600)
SCAN_SEEDS = randomized.fuzz_seeds(12, offset=2700)


def reference_walk(simulator: NoisySimulator, scheduled) -> DensityMatrix:
    """The schedule walked op by op: idle and measurement channels as the
    simulator yields them, every gate as its unitary followed by its gate
    channels, each channel mapped to positions through its own qubits."""
    noise = simulator.noise_model
    context = simulator.prepare(scheduled)
    last_time = dict(context.initial_last_time)
    state = DensityMatrix(scheduled.num_qubits)
    for index, timed in enumerate(context.ordered):
        if timed.name == "barrier":
            continue
        for position in timed.qubits:
            for op in simulator._idle_ops(
                scheduled, context, position, last_time[position], timed.start_ns, index
            ):
                state.apply_superop(op.channel.superop, op.positions)
        if timed.name == "measure":
            physical = scheduled.physical_qubit(timed.qubits[0])
            for channel in noise.measurement_prelude_channels(physical):
                state.apply_superop(channel.superop, (timed.qubits[0],))
            last_time[timed.qubits[0]] = timed.end_ns
            continue
        if timed.name not in ("id", "delay"):
            state.apply_unitary(timed.instruction.gate.matrix(), tuple(timed.qubits))
            physical = [scheduled.physical_qubit(q) for q in timed.qubits]
            for channel in noise.gate_channels(timed.name, physical):
                positions = tuple(context.positions[q] for q in channel.qubits)
                state.apply_superop(channel.superop, positions)
        for position in timed.qubits:
            last_time[position] = timed.end_ns
    return state


def full_scan_overlap(busy, start, end):
    """``_idle_overlap`` as it scanned every busy interval from t = 0."""
    if end <= start:
        return 0.0
    occupied = 0.0
    for b_start, b_end in busy:
        if b_start >= end:
            break
        lo = max(start, b_start)
        hi = min(end, b_end)
        if hi > lo:
            occupied += hi - lo
    return (end - start) - occupied


@pytest.fixture(scope="module")
def device():
    return randomized.fuzz_device()


class TestGateStepAgainstReferenceWalk:
    @pytest.mark.parametrize("flavour", ["device", "calibration"])
    def test_fused_stream_matches_op_by_op_walk_on_both_kernels(self, device, flavour):
        noise = getattr(NoiseModel, f"from_{flavour}")(device)
        simulator = NoisySimulator(noise)
        evolver = PTMEvolver(noise)
        pair_orders = set()
        for seed in STEP_SEEDS:
            scheduled = randomized.random_schedule(seed, device=device)
            for timed in scheduled.timed_instructions:
                if timed.name == "cx":
                    a, b = (scheduled.physical_qubit(q) for q in timed.qubits)
                    pair_orders.add(a < b)
            reference = reference_walk(simulator, scheduled).data
            dense = simulator.run(scheduled).data
            ptm = evolver.run(scheduled).to_density_matrix().data
            np.testing.assert_allclose(dense, reference, rtol=0, atol=ATOL, err_msg=f"seed {seed}")
            np.testing.assert_allclose(ptm, reference, rtol=0, atol=ATOL, err_msg=f"seed {seed}")
        # Two-qubit gates ran with the lower and the higher physical qubit
        # first, so per-qubit relaxation was embedded on both axes of a pair.
        assert pair_orders == {True, False}


class TestGateStepMisses:
    def test_neither_kernel_eigendecomposes_a_gate_step(self, device, monkeypatch):
        """A gate step keeps only its superoperator: the dense kernel applies
        it and the PTM kernel compiles it, so no miss pays for a Choi
        eigendecomposition into Kraus operators.  Relaxation is off because
        building its Kraus set eigendecomposes by design; gate error, the
        detuning phase and ZZ crosstalk still compose into every step."""
        from repro.simulators import channels

        def refuse(*args):
            raise AssertionError("Kraus operators of a gate step were derived")

        monkeypatch.setattr(channels, "kraus_from_superop", refuse)
        monkeypatch.setattr(ChannelOp, "kraus", property(refuse))
        noise = NoiseModel(device, include_relaxation=False)
        scheduled = randomized.random_schedule(STEP_SEEDS[0], device=device)
        assert any(timed.name == "cx" for timed in scheduled.timed_instructions)
        NoisySimulator(noise).run(scheduled)
        PTMEvolver(noise).run(scheduled)


class TestBisectedIdleOverlap:
    def test_equals_full_scan_on_the_fuzz_corpus(self, device):
        simulator = NoisySimulator(NoiseModel.from_device(device))
        for seed in SCAN_SEEDS:
            scheduled = randomized.random_schedule(seed, device=device)
            context = simulator.prepare(scheduled)
            # Gap ends on busy-interval boundaries and at random times.
            times = sorted(
                {t for spans in context.busy.values() for span in spans for t in span}
            )
            rng = np.random.default_rng(seed)
            times += [float(x) for x in rng.uniform(-10.0, times[-1] + 10.0, size=16)]
            gaps = rng.choice(times, size=(400, 2))
            for position, busy in context.busy.items():
                reach = context.busy_reach[position]
                for start, end in gaps:
                    got = NoisySimulator._idle_overlap(busy, reach, start, end)
                    assert got == full_scan_overlap(busy, start, end), (
                        f"seed {seed}, position {position}, [{start}, {end}]"
                    )

    def test_equals_full_scan_on_nested_intervals(self, device):
        """Nothing in the library checks an ingested schedule for overlap, so
        a busy list may nest intervals: the scan must start from the running
        maximum of end times, which ``prepare`` builds, not from any one
        interval's end."""
        scheduled = ScheduledCircuit(1, 0, device, (0,))
        spans = [(0.0, 500.0), (100.0, 100.0), (150.0, 10.0), (300.0, 500.0),
                 (400.0, 50.0), (450.0, 0.0), (900.0, 50.0)]
        for start, duration in spans:
            scheduled.insert(Delay(duration), 0, start, duration)
        assert not scheduled.validate_no_overlap()
        context = NoisySimulator(NoiseModel.from_device(device)).prepare(scheduled)
        busy = context.busy[0]
        assert busy == [(0.0, 500.0), (100.0, 200.0), (150.0, 160.0), (300.0, 800.0),
                        (400.0, 450.0), (900.0, 950.0)]
        assert context.busy_reach[0] == [500.0, 500.0, 500.0, 800.0, 800.0, 950.0]
        extra = {-5.0, 50.0, 175.0, 250.0, 460.0, 600.0, 850.0, 1000.0}
        points = sorted({t for span in busy for t in span} | extra)
        for start in points:
            for end in points:
                got = NoisySimulator._idle_overlap(busy, context.busy_reach[0], start, end)
                assert got == full_scan_overlap(busy, start, end), (start, end)
