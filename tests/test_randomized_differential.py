"""Randomized differential tests of the engine's bit-exactness contracts.

This suite drives ~50 seeded random schedules (``tests/randomized.py``;
reproduce any failure from its seed, see ``docs/testing.md``) through every
claim:

* the simulator processes every schedule in time order
  (``ScheduledCircuit.sorted_instructions``), and the listed order of
  same-start instructions is content the fingerprint tells apart;
* engine results equal the raw simulator's, bit for bit;
* a batch, the same batch on a fresh engine in a process-map worker, and
  caller threads sharing one engine return bit-identical expectations;
* prefix-resumed execution (a warm engine full of another schedule's
  checkpoints) is bit-identical to a cold run;
* seeded sampling draws identical values here and in a worker process, per
  the content-derived seeding contract;
* the statevector and fake-device engines keep exact parity with their
  underlying simulators under batching;
* hash chains built from the instruction tokens kept on each
  ``TimedInstruction`` equal chains built from freshly formatted tokens.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import in_worker
import randomized
from repro.engine import (
    FakeDeviceEngine,
    NoisyDensityMatrixEngine,
    StatevectorEngine,
    canonical_order,
    schedule_fingerprint,
)
from repro.engine.fingerprint import _digest, instruction_token, schedule_hash_chain, schedule_root
from repro.operators import tfim_hamiltonian
from repro.simulators import NoiseModel
from repro.simulators.noisy_simulator import NoisySimulator
from repro.simulators.statevector import StatevectorSimulator
from repro.transpiler import transpile

#: ~50 distinct random schedules drive this module (see individual tests).
ORDER_SEEDS = randomized.fuzz_seeds(6, offset=500)
ENGINE_SEEDS = randomized.fuzz_seeds(20)
TIER_SEEDS = randomized.fuzz_seeds(12, offset=100)
SAMPLING_SEEDS = randomized.fuzz_seeds(4, offset=200)
RESUME_SEEDS = randomized.fuzz_seeds(6, offset=300)
STATEVECTOR_SEEDS = randomized.fuzz_seeds(6, offset=400)


@pytest.fixture(scope="module")
def device():
    return randomized.fuzz_device()


@pytest.fixture(scope="module")
def observable():
    return tfim_hamiltonian(4)


class TestTimeOrderContract:
    def test_prepare_processes_sorted_instructions(self, device):
        """Every schedule, DD-bearing sweep candidates included, is processed
        in exactly ``sorted_instructions()`` order, which is what
        ``canonical_order`` names."""
        simulator = NoisySimulator(NoiseModel.from_device(device))
        dd_members = 0
        for seed in ORDER_SEEDS:
            family = randomized.schedule_family(
                randomized.random_compiled(seed, device=device), seed
            )
            pulses = [
                sum(t.name in ("x", "y") for t in scheduled.timed_instructions)
                for scheduled in family
            ]
            dd_members += sum(count > pulses[0] for count in pulses[1:])
            for scheduled in family:
                ordered = scheduled.sorted_instructions()
                assert simulator.prepare(scheduled).ordered == ordered, f"seed {seed}"
                assert canonical_order(scheduled) == ordered, f"seed {seed}"
        assert dd_members > 0, "no family member carried DD pulses"

    def test_same_start_tie_order_is_content(self, device):
        """Swapping two same-start instructions in ``timed_instructions``
        changes the processing order, so it changes the fingerprint — even
        for a pair on disjoint qubits, whose gates commute."""
        for seed in ORDER_SEEDS:
            scheduled = randomized.random_schedule(seed, device=device)
            ordered = scheduled.sorted_instructions()
            pair = next(
                (
                    (a, b)
                    for a, b in zip(ordered, ordered[1:])
                    if a.start_ns == b.start_ns
                    and "measure" not in (a.name, b.name)
                    and not set(a.qubits) & set(b.qubits)
                ),
                None,
            )
            assert pair is not None, f"seed {seed}"
            swapped = scheduled.copy()
            instructions = list(scheduled.timed_instructions)
            i, j = (instructions.index(timed) for timed in pair)
            instructions[i], instructions[j] = instructions[j], instructions[i]
            swapped.timed_instructions = instructions
            assert schedule_fingerprint(swapped) != schedule_fingerprint(scheduled), (
                f"seed {seed}"
            )


def fresh_token_chain(scheduled, ordered, initial_last_time, salt):
    """``schedule_hash_chain`` with every token formatted anew."""
    chain = [schedule_root(scheduled, initial_last_time, salt)]
    for timed in ordered:
        token = instruction_token(
            timed.name, timed.instruction.gate.params, timed.qubits,
            timed.instruction.clbits, timed.start_ns, timed.duration_ns,
        )
        chain.append(_digest(chain[-1], token))
    return chain


class TestInstructionTokenMemo:
    def test_memoised_chains_equal_fresh_token_chains(self, device):
        """DD/GS sweep candidates copy the base schedule's instruction
        objects, so they share memoised tokens; every chain, on the first
        pass and on the memo-reading second one, equals the fresh one."""
        simulator = NoisySimulator(NoiseModel.from_device(device))
        for seed in ORDER_SEEDS:
            family = randomized.schedule_family(
                randomized.random_compiled(seed, device=device), seed
            )
            assert len(family) > 1, f"seed {seed}"
            for _ in range(2):
                for scheduled in family:
                    context = simulator.prepare(scheduled)
                    args = (scheduled, context.ordered, context.initial_last_time, "salt")
                    assert schedule_hash_chain(*args) == fresh_token_chain(*args), f"seed {seed}"
            shared = set(map(id, family[0].timed_instructions))
            assert any(
                id(timed) in shared for member in family[1:] for timed in member.timed_instructions
            ), f"seed {seed}"

    def test_pickle_round_trip_carries_no_memo(self, device):
        scheduled = randomized.random_schedule(ORDER_SEEDS[0], device=device)
        fingerprint = schedule_fingerprint(scheduled)
        assert all(timed._token is not None for timed in scheduled.timed_instructions)
        clone = pickle.loads(pickle.dumps(scheduled))
        assert all(timed._token is None for timed in clone.timed_instructions)
        assert clone.timed_instructions == scheduled.timed_instructions
        assert schedule_fingerprint(clone) == fingerprint


class TestEngineVersusRawSimulator:
    # Both tests compare the engine bit for bit against the raw dense
    # simulator, so the dense kernel is pinned explicitly; the PTM kernel's
    # float-tolerance parity lives in tests/test_ptm_differential.py.
    def test_states_bit_identical(self, device):
        noise = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise, seed=7, kernel="dense")
        simulator = NoisySimulator(noise)
        for seed in ENGINE_SEEDS:
            scheduled = randomized.random_schedule(seed, device=device)
            expected = simulator.run(scheduled)
            result = engine.run(scheduled)
            assert np.array_equal(result.state.data, expected.data), f"seed {seed}"

    def test_probabilities_bit_identical(self, device):
        noise = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise, seed=7, kernel="dense")
        simulator = NoisySimulator(noise)
        for seed in ENGINE_SEEDS[:8]:
            scheduled = randomized.random_schedule(seed, device=device)
            expected, expected_clbits = simulator.measured_probabilities(scheduled)
            probabilities, clbits = engine.measured_probabilities(scheduled)
            assert clbits == expected_clbits
            assert np.array_equal(probabilities, expected), f"seed {seed}"


class TestTierParity:
    def test_serial_thread_process_tiers(self, device, observable):
        """A batch, the same batch in a process-map worker, and two caller
        threads sharing one engine return bit-identical expectations."""
        noise = NoiseModel.from_device(device)
        schedules = [
            randomized.random_schedule(seed, device=device) for seed in TIER_SEEDS
        ]
        engine = NoisyDensityMatrixEngine(noise, seed=11)
        serial = engine.expectation_batch(schedules, observable)
        engine.close()
        process, _ = in_worker.call(
            partial(NoisyDensityMatrixEngine, noise, seed=11),
            "expectation_batch", schedules, observable,
        )
        engine = NoisyDensityMatrixEngine(noise, seed=11)
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda s: engine.expectation(s, observable), schedules))
        engine.close()
        assert serial == process == threaded


class TestPrefixResumeExactness:
    def test_warm_engine_matches_cold_runs(self, device):
        """A warm engine resuming from another variant's checkpoints returns
        exactly what a cold engine computes from scratch."""
        noise = NoiseModel.from_device(device)
        warm = NoisyDensityMatrixEngine(noise, seed=3)
        resumes = 0
        for seed in RESUME_SEEDS:
            compiled = randomized.random_compiled(seed, device=device)
            family = randomized.schedule_family(compiled, seed)
            warm_states = [warm.run(item).state.data for item in family]
            resumes += warm.stats.prefix_resumes
            for item, warm_state in zip(family, warm_states):
                cold = NoisyDensityMatrixEngine(noise, seed=3)
                assert np.array_equal(cold.run(item).state.data, warm_state), (
                    f"seed {seed}"
                )
        # The fast path must actually have fired, or this test proves nothing.
        assert resumes > 0


class TestSeededSampling:
    def test_sampled_expectations_identical_across_tiers(self, device, observable):
        noise = NoiseModel.from_device(device)
        schedules = [
            randomized.random_schedule(seed, device=device)
            for seed in SAMPLING_SEEDS
        ]
        engine = NoisyDensityMatrixEngine(noise, seed=23)
        serial = engine.expectation_batch(schedules, observable, shots=256)
        engine.close()
        process, _ = in_worker.call(
            partial(NoisyDensityMatrixEngine, noise, seed=23),
            "expectation_batch", schedules, observable, shots=256,
        )
        assert serial == process


class TestOtherEngines:
    def test_statevector_engine_matches_simulator(self):
        engine = StatevectorEngine(seed=5)
        simulator = StatevectorSimulator()
        circuits = [
            randomized.random_circuit(seed, measure=False)
            for seed in STATEVECTOR_SEEDS
        ]
        batched = engine.run_batch(circuits)
        for circuit, result in zip(circuits, batched):
            assert np.array_equal(result.state, simulator.run_statevector(circuit))

    def test_fake_device_engine_matches_manual_pipeline(self, device, observable):
        noise = NoiseModel.from_device(device)
        engine = FakeDeviceEngine(device, noise_model=noise, seed=9)
        manual = NoisyDensityMatrixEngine(noise, seed=9)
        for seed in STATEVECTOR_SEEDS[:3]:
            circuit = randomized.random_circuit(seed)
            compiled = transpile(circuit, device)
            expected = manual.expectation(compiled.scheduled, observable, shots=None)
            assert engine.expectation(circuit, observable, shots=None) == expected
