"""Sanity checks on the top-level public API surface."""

import importlib

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing public symbol {name}"

    def test_key_entry_points_importable(self):
        assert callable(repro.get_application)
        assert callable(repro.transpile)
        assert callable(repro.tfim_hamiltonian)
        assert repro.VAQEMPipeline is not None
        assert repro.STANDARD_STRATEGIES[0] == "no_em"

    def test_exception_hierarchy(self):
        assert issubclass(repro.CircuitError, repro.ReproError)
        assert issubclass(repro.VAQEMError, repro.ReproError)
        assert issubclass(repro.TranspilerError, repro.ReproError)
        assert issubclass(repro.RuntimeSessionError, repro.ReproError)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.circuits", "repro.operators", "repro.backends", "repro.simulators",
            "repro.transpiler", "repro.mitigation", "repro.optimizers", "repro.vqe",
            "repro.vaqem", "repro.runtime", "repro.metrics", "repro.analysis",
        ],
    )
    def test_subpackages_import_cleanly(self, module):
        imported = importlib.import_module(module)
        assert imported.__name__ == module

    def test_quickstart_objects_compose(self):
        """The README quickstart objects can be constructed without side effects."""
        application = repro.get_application("UCCSD_H2")
        config = repro.VAQEMConfig(budget=repro.TuningBudget(max_windows=2))
        pipeline = repro.VAQEMPipeline(application, config)
        assert pipeline.device.num_qubits == 27
