"""Integration tests for the VAQEM pipeline (reduced budgets, small problems)."""

import numpy as np
import pytest

from repro.backends import fake_casablanca
from repro.circuits import efficient_su2
from repro.exceptions import VAQEMError
from repro.operators import tfim_hamiltonian
from repro.vaqem import STANDARD_STRATEGIES, TuningBudget, VAQEMConfig, VAQEMPipeline
from repro.vqe import VQAApplication


@pytest.fixture(scope="module")
def small_application():
    """A 3-qubit TFIM problem that keeps the end-to-end flow fast."""
    return VQAApplication(
        name="TFIM_3q_test",
        ansatz=efficient_su2(3, reps=1, entanglement="linear", name="tfim3_test"),
        hamiltonian=tfim_hamiltonian(3, periodic=False),
        device_factory=fake_casablanca,
        uses_runtime=False,
    )


@pytest.fixture(scope="module")
def pipeline(small_application):
    config = VAQEMConfig(
        angle_tuning_iterations=80,
        budget=TuningBudget(dd_resolution=3, gs_resolution=3, max_windows=4),
        seed=5,
    )
    return VAQEMPipeline(small_application, config)


@pytest.fixture(scope="module")
def run_result(pipeline):
    return pipeline.run(strategies=("no_em", "mem", "dd_xy4", "vaqem_gs_xy"))


class TestAngleTuning:
    def test_angle_tuning_approaches_ground_energy(self, pipeline, small_application):
        result = pipeline.angle_result
        e0 = small_application.exact_ground_energy()
        assert result.optimal_value >= e0 - 1e-9
        assert result.optimal_value <= 0.85 * e0  # recovers at least 85 % of the optimum

    def test_runtime_mode_uses_spsa_only(self, small_application):
        config = VAQEMConfig(angle_tuning_iterations=2, seed=1)
        pipeline = VAQEMPipeline(small_application, config)
        result = pipeline.tune_angles(mode="runtime")
        assert result.execution_mode == "runtime"

    def test_unknown_mode_rejected(self, pipeline):
        with pytest.raises(VAQEMError):
            pipeline.tune_angles(mode="magic")


class TestCompilation:
    def test_compile_produces_windows(self, pipeline):
        compiled = pipeline.compile()
        assert compiled.cx_depth > 0
        assert len(pipeline.idle_windows()) == compiled.num_idle_windows

    def test_compile_is_cached(self, pipeline):
        assert pipeline.compile() is pipeline.compile()


class TestStrategies:
    def test_unknown_strategy_rejected(self, pipeline):
        with pytest.raises(VAQEMError):
            pipeline.evaluate_strategy("quantum_magic")

    def test_standard_strategy_names(self):
        assert "vaqem_gs_xy" in STANDARD_STRATEGIES
        assert STANDARD_STRATEGIES[0] == "no_em"

    def test_all_energies_respect_soundness(self, run_result, small_application):
        e0 = small_application.exact_ground_energy()
        tolerance = 0.02 * abs(e0) + 1e-6
        for energy in run_result.energies.values():
            assert energy >= e0 - tolerance

    def test_vaqem_never_worse_than_mem_baseline(self, run_result):
        assert run_result.energies["vaqem_gs_xy"] <= run_result.energies["mem"] + 1e-9

    def test_improvement_metric_consistency(self, run_result):
        improvement = run_result.improvement("vaqem_gs_xy")
        assert improvement >= 1.0 - 1e-9

    def test_tuning_results_recorded_for_vaqem_strategies(self, run_result):
        assert "vaqem_gs_xy" in run_result.tuning_results
        tuning = run_result.tuning_results["vaqem_gs_xy"]
        assert tuning.num_evaluations == run_result.evaluation_counts["vaqem_gs_xy"]

    def test_application_result_conversion(self, run_result):
        converted = run_result.to_application_result()
        assert converted.application == "TFIM_3q_test"
        assert set(converted.strategies()) == set(run_result.energies)

    def test_mem_baseline_is_not_catastrophically_bad(self, run_result, small_application):
        fraction = run_result.energies["mem"] / small_application.exact_ground_energy()
        assert 0.0 < fraction <= 1.0


def test_mem_energy_is_the_tuners_baseline_under_shots(small_application):
    """Under finite shots every strategy is scored through the same
    content-seeded objective as the tuner, so "improvement over MEM"
    compares the tuned value with the baseline the tuner itself measured."""
    config = VAQEMConfig(
        angle_tuning_iterations=20, budget=TuningBudget(3, 3, 3), seed=5, shots=256
    )
    pipeline = VAQEMPipeline(small_application, config)
    try:
        result = pipeline.run(("mem", "vaqem_xy", "vaqem_gs_xy"))
    finally:
        pipeline.engine.close()
    for strategy in ("vaqem_xy", "vaqem_gs_xy"):
        assert result.energies["mem"] == result.tuning_results[strategy].baseline_value
