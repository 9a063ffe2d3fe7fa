"""Tests for the independent per-window tuner (the heart of VAQEM)."""

import pytest

from repro.circuits import QuantumCircuit
from repro.exceptions import VAQEMError
from repro.mitigation import DDConfig, GSConfig
from repro.operators import PauliSum
from repro.simulators import NoiseModel
from repro.transpiler import find_idle_windows, schedule_circuit
from repro.vaqem import IndependentWindowTuner, TuningBudget, WindowConfiguration
from repro.vqe import ExpectationEstimator


@pytest.fixture
def tuning_problem(device, sequential_objective):
    """A 2-qubit schedule with two large idle windows and a ZZ-type objective."""
    circuit = QuantumCircuit(2)
    circuit.sx(0)
    circuit.sx(1)
    circuit.delay(4000.0, 0)
    circuit.delay(4000.0, 1)
    circuit.sx(0)
    circuit.sx(1)
    circuit.measure_all()
    scheduled = schedule_circuit(circuit, device)
    windows = find_idle_windows(scheduled)
    hamiltonian = PauliSum({"XI": 1.0, "IX": 1.0, "ZZ": 0.5})
    estimator = ExpectationEstimator(NoiseModel.from_device(device))
    return scheduled, windows, sequential_objective(estimator, hamiltonian)


class TestConfiguration:
    def test_requires_a_technique(self, tuning_problem):
        _, _, objective = tuning_problem
        with pytest.raises(VAQEMError):
            IndependentWindowTuner(objective, tune_gate_scheduling=False, tune_dd=False)

    def test_budget_validation(self):
        with pytest.raises(VAQEMError):
            TuningBudget(dd_resolution=1)
        with pytest.raises(VAQEMError):
            TuningBudget(gs_resolution=0)
        with pytest.raises(VAQEMError):
            TuningBudget(max_windows=0)

    def test_window_configuration_baseline_detection(self):
        assert WindowConfiguration(0).is_baseline()
        assert WindowConfiguration(0, dd=DDConfig("xy4", 0)).is_baseline()
        assert not WindowConfiguration(0, dd=DDConfig("xy4", 1)).is_baseline()
        assert not WindowConfiguration(0, gs=GSConfig(0.5)).is_baseline()

    def test_mismatched_future_count_rejected(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(lambda schedules: objective(schedules)[:-1])
        with pytest.raises(VAQEMError, match="mismatched number of values"):
            tuner.tune(scheduled, windows)


class TestTuning:
    def test_tuned_value_never_worse_than_baseline(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(objective, budget=TuningBudget(dd_resolution=4, gs_resolution=3))
        result = tuner.tune(scheduled, windows)
        assert result.tuned_value <= result.baseline_value + 1e-12
        assert result.improvement >= 0.0

    def test_records_cover_every_window(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(objective, budget=TuningBudget(dd_resolution=3, gs_resolution=3))
        result = tuner.tune(scheduled, windows)
        assert len(result.window_records) == len(windows)
        for record in result.window_records:
            assert record.best is not None
            assert len(record.candidates) == len(record.values)
            assert record.best_value == pytest.approx(min(record.values))

    def test_evaluation_count_tracked(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(
            objective, tune_gate_scheduling=False, budget=TuningBudget(dd_resolution=3, gs_resolution=2)
        )
        result = tuner.tune(scheduled, windows)
        assert result.num_evaluations >= 1 + len(windows)

    def test_max_windows_limits_work(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(
            objective, budget=TuningBudget(dd_resolution=3, gs_resolution=2, max_windows=1)
        )
        result = tuner.tune(scheduled, windows)
        assert len(result.window_records) == 1

    def test_dd_only_configurations_have_no_gs(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(
            objective, tune_gate_scheduling=False, budget=TuningBudget(dd_resolution=4, gs_resolution=2)
        )
        result = tuner.tune(scheduled, windows)
        for config in result.chosen_configurations().values():
            assert config.gs is None

    def test_tuned_schedule_contains_chosen_pulses(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(
            objective, tune_gate_scheduling=False, dd_sequence="xx",
            budget=TuningBudget(dd_resolution=5, gs_resolution=2),
        )
        result = tuner.tune(scheduled, windows)
        accepted_pulses = sum(
            2 * config.dd.num_sequences
            for config in result.chosen_configurations().values()
            if config.dd is not None and not config.is_baseline()
        )
        added = len(result.tuned_schedule.timed_instructions) - len(scheduled.timed_instructions)
        assert added <= accepted_pulses  # greedy validation may drop some windows

    def test_greedy_combination_never_regresses(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        tuner = IndependentWindowTuner(objective, budget=TuningBudget(dd_resolution=4, gs_resolution=3))
        result = tuner.tune(scheduled, windows)
        (value,) = objective([result.tuned_schedule])
        assert value == pytest.approx(result.tuned_value)

    def test_apply_configurations_roundtrip(self, tuning_problem):
        scheduled, windows, objective = tuning_problem
        configs = {
            windows[0].index: WindowConfiguration(windows[0].index, dd=DDConfig("xx", 2)),
            windows[1].index: WindowConfiguration(windows[1].index, gs=GSConfig(0.5)),
        }
        out = IndependentWindowTuner.apply_configurations(scheduled, windows, configs)
        assert out.validate_no_overlap()
        assert len(out.timed_instructions) == len(scheduled.timed_instructions) + 4
