"""Randomized differential tests: dense kernel versus PTM kernel.

The PTM backend is a different numerical pipeline — real Pauli vectors, fused
composed kernels, Walsh-Hadamard probability extraction — so its contract
against the dense kernel is *float tolerance* (``<= 1e-9``, in practice
~1e-15), while everything *within* the PTM kernel keeps the engine's usual
bit-exactness guarantees.  ~50 seeded random schedules
(``tests/randomized.py``; reproduce any failure from its seed) drive both
claims:

* dense and PTM engines agree on expectations, probabilities and
  density matrices to ``<= 1e-9`` on every schedule;
* PTM results are identical here and on a fresh engine in a process-map
  worker;
* a warm PTM engine resuming from checkpoints is bit-identical to a cold
  one (fusion never crosses the stride grid, and the engine aligns its
  checkpoint depths to it);
* the fusion counters are a pure function of the submitted work;
* the kernel is part of the noise key: caches never serve one kernel's
  state to the other.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

import in_worker
import randomized
from repro.engine import FakeDeviceEngine, NoisyDensityMatrixEngine
from repro.operators import tfim_hamiltonian
from repro.simulators import NoiseModel

ATOL = 1e-9

PARITY_SEEDS = randomized.fuzz_seeds(20, offset=600)
TIER_SEEDS = randomized.fuzz_seeds(12, offset=700)
RESUME_SEEDS = randomized.fuzz_seeds(6, offset=800)
SAMPLING_SEEDS = randomized.fuzz_seeds(8, offset=850)


@pytest.fixture(scope="module")
def device():
    return randomized.fuzz_device()


@pytest.fixture(scope="module")
def noise(device):
    return NoiseModel.from_device(device)


@pytest.fixture(scope="module")
def observable():
    return tfim_hamiltonian(4)


def engines(noise, seed=7):
    return (
        NoisyDensityMatrixEngine(noise, seed=seed, kernel="dense"),
        NoisyDensityMatrixEngine(noise, seed=seed, kernel="ptm"),
    )


class TestKernelParity:
    def test_expectations_within_tolerance(self, device, noise, observable):
        dense, ptm = engines(noise)
        for seed in PARITY_SEEDS:
            scheduled = randomized.random_schedule(seed, device=device)
            a = dense.expectation(scheduled, observable)
            b = ptm.expectation(scheduled, observable)
            assert abs(a - b) <= ATOL, f"seed {seed}: {a} vs {b}"

    def test_probabilities_within_tolerance(self, device, noise):
        dense, ptm = engines(noise)
        for seed in PARITY_SEEDS[:8]:
            scheduled = randomized.random_schedule(seed, device=device)
            expected, expected_clbits = dense.measured_probabilities(scheduled)
            probabilities, clbits = ptm.measured_probabilities(scheduled)
            assert clbits == expected_clbits
            np.testing.assert_allclose(probabilities, expected, atol=ATOL)

    def test_density_matrices_within_tolerance(self, device, noise):
        dense, ptm = engines(noise)
        for seed in PARITY_SEEDS[:6]:
            scheduled = randomized.random_schedule(seed, device=device)
            np.testing.assert_allclose(
                ptm.density_matrix(scheduled).data,
                dense.density_matrix(scheduled).data,
                atol=ATOL,
            )

    def test_fake_device_engine_honours_kernel(self, device, observable):
        dense = FakeDeviceEngine(device, seed=9, kernel="dense")
        ptm = FakeDeviceEngine(device, seed=9, kernel="ptm")
        assert ptm.kernel == "ptm"
        for seed in PARITY_SEEDS[:4]:
            circuit = randomized.random_circuit(seed)
            a = dense.expectation(circuit, observable, shots=None)
            b = ptm.expectation(circuit, observable, shots=None)
            assert abs(a - b) <= ATOL, f"seed {seed}"


class TestPtmTierExactness:
    def test_expectations_identical_across_tiers(self, device, noise, observable):
        schedules = [
            randomized.random_schedule(seed, device=device) for seed in TIER_SEEDS
        ]
        dense_values = NoisyDensityMatrixEngine(
            noise, seed=11, kernel="dense"
        ).expectation_batch(schedules, observable)
        values = {}
        engine = NoisyDensityMatrixEngine(noise, seed=11, kernel="ptm")
        values["serial"] = engine.expectation_batch(schedules, observable)
        engine.close()
        values["process"], _ = in_worker.call(
            partial(NoisyDensityMatrixEngine, noise, seed=11, kernel="ptm"),
            "expectation_batch", schedules, observable,
        )
        assert values["serial"] == values["process"]
        for a, b in zip(values["serial"], dense_values):
            assert abs(a - b) <= ATOL

    def test_sampled_expectations_identical_across_tiers(self, device, noise, observable):
        schedules = [
            randomized.random_schedule(seed, device=device)
            for seed in SAMPLING_SEEDS[:4]
        ]
        engine = NoisyDensityMatrixEngine(noise, seed=23, kernel="ptm")
        serial = engine.expectation_batch(schedules, observable, shots=256)
        engine.close()
        process, _ = in_worker.call(
            partial(NoisyDensityMatrixEngine, noise, seed=23, kernel="ptm"),
            "expectation_batch", schedules, observable, shots=256,
        )
        assert serial == process

    def test_seeded_sampling_deterministic(self, device, noise):
        for seed in SAMPLING_SEEDS[:4]:
            scheduled = randomized.random_schedule(seed, device=device)
            a = NoisyDensityMatrixEngine(noise, seed=4, kernel="ptm").counts(
                scheduled, shots=256
            )
            b = NoisyDensityMatrixEngine(noise, seed=4, kernel="ptm").counts(
                scheduled, shots=256
            )
            assert a == b, f"seed {seed}"
            assert sum(a.values()) == 256


class TestPtmWarmResume:
    def test_warm_engine_matches_cold_runs(self, device, noise):
        """Resumed fused evolution is bit-identical to cold evolution: the
        fusion stride pins the composed-kernel sequence to content alone."""
        warm = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm")
        dense = NoisyDensityMatrixEngine(noise, seed=3, kernel="dense")
        resumes = 0
        for seed in RESUME_SEEDS:
            compiled = randomized.random_compiled(seed, device=device)
            family = randomized.schedule_family(compiled, seed)
            warm_states = [warm.run(item).state.data for item in family]
            resumes += warm.stats.prefix_resumes
            for item, warm_state in zip(family, warm_states):
                cold = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm")
                assert np.array_equal(cold.run(item).state.data, warm_state), (
                    f"seed {seed}"
                )
                np.testing.assert_allclose(
                    warm.density_matrix(item).data,
                    dense.density_matrix(item).data,
                    atol=ATOL,
                )
        assert resumes > 0

    def test_checkpoint_interval_is_stride_aligned(self, noise):
        from repro.simulators.ptm import PauliVectorState, PTMEvolver

        engine = NoisyDensityMatrixEngine(noise, kernel="ptm")
        state_bytes = PauliVectorState(4).nbytes
        for depth in (1, 7, 8, 23, 100, 400):
            interval = engine._checkpoint_interval(depth, state_bytes)
            assert interval % PTMEvolver.fusion_stride == 0


class TestCounterDeterminism:
    def test_counters_pure_function_of_work(self, device, noise, observable):
        schedules = [
            randomized.random_schedule(seed, device=device) for seed in TIER_SEEDS[:6]
        ]

        def stats_after_batch():
            engine = NoisyDensityMatrixEngine(noise, seed=11, kernel="ptm")
            engine.expectation_batch(schedules, observable)
            snapshot = engine.stats.as_dict()
            return snapshot["ptm_matmuls"], snapshot["instructions_fused"]

        first = stats_after_batch()
        second = stats_after_batch()
        assert first == second
        matmuls, fused = first
        assert matmuls > 0 and fused > 0

    def test_resume_never_double_counts(self, device, noise):
        """Warm and cold engines report identical kernel counts for the same
        family: snapshot cursors restart their counters from zero."""
        for seed in RESUME_SEEDS[:2]:
            compiled = randomized.random_compiled(seed, device=device)
            family = randomized.schedule_family(compiled, seed)
            warm = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm")
            for item in family:
                warm.run(item)
            assert warm.stats.prefix_resumes > 0
            total = 0
            for item in family:
                cold = NoisyDensityMatrixEngine(noise, seed=3, kernel="ptm")
                cold.run(item)
                total += cold.stats.ptm_matmuls
            # The warm engine resumes from mid-schedule checkpoints, so it
            # must do *at most* the cold engines' work, never more.
            assert warm.stats.ptm_matmuls <= total

    def test_dense_kernel_reports_no_ptm_counters(self, device, noise, observable):
        engine = NoisyDensityMatrixEngine(noise, seed=11, kernel="dense")
        schedules = [
            randomized.random_schedule(seed, device=device) for seed in TIER_SEEDS[:3]
        ]
        engine.expectation_batch(schedules, observable)
        assert engine.stats.ptm_matmuls == 0
        assert engine.stats.instructions_fused == 0


class TestKernelIsolation:
    def test_kernel_salts_noise_key(self, noise):
        dense, ptm = engines(noise)
        assert dense._noise_key() != ptm._noise_key()

    def test_invalid_kernel_rejected(self, noise):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError):
            NoisyDensityMatrixEngine(noise, kernel="sparse")

    def test_env_var_selects_default_kernel(self, noise, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_KERNEL", "ptm")
        assert NoisyDensityMatrixEngine(noise).kernel == "ptm"
        monkeypatch.delenv("REPRO_ENGINE_KERNEL")
        assert NoisyDensityMatrixEngine(noise).kernel == "dense"

    def test_noise_toggle_retires_ptm_pool(self, device, observable):
        """Cache keys digest the noise key (which includes the kernel); a
        flag toggle misses the PTM engine's caches exactly as the dense
        one's (see test_parallel.py)."""
        noise = NoiseModel.from_device(device)
        schedules = [
            randomized.random_schedule(seed, device=device) for seed in TIER_SEEDS[:3]
        ]
        engine = NoisyDensityMatrixEngine(noise, seed=2, kernel="ptm")
        try:
            engine.expectation_batch(schedules, observable)
            noise.include_relaxation = False
            misses = engine.stats.cache_misses
            toggled = engine.expectation_batch(schedules, observable)
            assert engine.stats.cache_misses == misses + len(schedules)
            fresh = NoisyDensityMatrixEngine(
                noise, seed=2, kernel="ptm"
            ).expectation_batch(schedules, observable)
            assert toggled == fresh
        finally:
            engine.close()
