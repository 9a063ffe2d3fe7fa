"""The three batch workloads: the fig12 VAQEM flow (serial and process tier)
and noisy Runtime-mode VQE.

Each workload builds its inputs in :meth:`setup`, runs one unit of user work
in :meth:`unit` — always through a fresh pipeline and engine, as a user pays
it — and judges that unit's outputs in :meth:`check`, outside the timed
region, against reference values held in ``reference.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent

#: The eight Fig. 12 strategies, in the paper's bar order.
STRATEGIES = (
    "no_em", "mem", "dd_xx", "dd_xy4", "vaqem_gs", "vaqem_xx", "vaqem_xy", "vaqem_gs_xy",
)
FIG12_APPS = ("UCCSD_H2", "HW_TFIM_4q_c_6r")
NOISY_VQE_APP = "UCCSD_H2"
#: ``--seed`` selects one of these VAQEM seeds (``seed % len``), so that every
#: input the benchmark can generate has reference outputs.
CONFIG_SEEDS = tuple(range(11, 19))
#: Outputs must match the references to this absolute tolerance.
TOLERANCE = 1e-9
REFERENCE_PATH = HERE / "reference.json"


def config_seed(seed: int) -> int:
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]


def load_reference(seed: int) -> Dict[str, Any]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[str(config_seed(seed))]


def _close(value, reference) -> bool:
    return abs(float(value) - float(reference)) <= TOLERANCE


class Fig12:
    """``VAQEMPipeline.run()`` over the eight strategies for two applications."""

    name = "vaqem_fig12"
    parallelism = None
    apps = FIG12_APPS

    def setup(self, seed: int) -> None:
        from repro import TuningBudget, VAQEMConfig, get_application

        self.seed = seed
        self.config = VAQEMConfig(
            angle_tuning_iterations=250,
            budget=TuningBudget(dd_resolution=4, gs_resolution=4, max_windows=10),
            shots=None,
            seed=config_seed(seed),
            parallelism=self.parallelism,
            max_workers=os.cpu_count() if self.parallelism else None,
        )
        self.applications = [get_application(name) for name in self.apps]

    def unit(self) -> Dict[str, Any]:
        from repro import EvaluationSummary, VAQEMPipeline

        summary = EvaluationSummary()
        energies = {}
        for application in self.applications:
            pipeline = VAQEMPipeline(application, self.config)
            try:
                result = pipeline.run(strategies=STRATEGIES)
            finally:
                pipeline.engine.close()
            energies[application.name] = dict(result.energies)
            summary.add(result.to_application_result())
        return {"energies": energies, "geomean_gs_xy": summary.geomean_improvement("vaqem_gs_xy")}

    def check(self, outputs: Dict[str, Any]) -> List[str]:
        reference = load_reference(self.seed)["fig12"]
        problems = []
        for app in self.apps:
            energies = reference["energies"][app]
            for strategy, expected in energies.items():
                value = outputs["energies"].get(app, {}).get(strategy)
                if value is None or not _close(value, expected):
                    problems.append(f"{app}/{strategy}: {value!r} != reference {expected!r}")
        if self.apps == FIG12_APPS and not _close(
            outputs["geomean_gs_xy"], reference["geomean_gs_xy"]
        ):
            problems.append(
                f"geomean_gs_xy {outputs['geomean_gs_xy']!r} != "
                f"reference {reference['geomean_gs_xy']!r}"
            )
        return problems

    @staticmethod
    def science(outputs: Dict[str, Any]) -> Dict[str, float]:
        return {"science.geomean_gs_xy": outputs["geomean_gs_xy"]}


class Fig12Process(Fig12):
    """The fig12 flow with the tuner's sweeps sharded over worker processes.

    Only H2 runs.  The tier acts on the tuner's sweeps, whose budget
    (ten windows) H2 fills as fully as TFIM does, and the shorter unit gives
    a run several samples: with both applications a run held two, and its
    median spread 17% between runs.
    """

    name = "fig12_process"
    parallelism = "process"
    apps = ("UCCSD_H2",)


class NoisyVQE:
    """Runtime-mode SPSA angle tuning on the noisy machine: 1024 shots, MEM on."""

    name = "noisy_vqe"
    parallelism = None

    def setup(self, seed: int) -> None:
        from repro import VAQEMConfig, get_application

        self.seed = seed
        self.config = VAQEMConfig(angle_tuning_iterations=50, shots=1024, seed=config_seed(seed))
        self.application = get_application(NOISY_VQE_APP)

    def unit(self) -> Dict[str, Any]:
        from repro import VAQEMPipeline

        pipeline = VAQEMPipeline(self.application, self.config)
        result = pipeline.tune_angles(mode="runtime")
        pipeline.engine.close()
        return {
            "optimal_value": result.optimal_value,
            "parameters": [float(x) for x in result.optimal_parameters],
            "num_evaluations": result.num_evaluations,
        }

    def final_energy(self, outputs: Dict[str, Any]) -> float:
        """Exact (infinite-shot) noisy ``<H>`` with MEM at the returned angles."""
        from repro import SPSA, VQE

        application = self.application
        vqe = VQE(application.ansatz, application.hamiltonian, SPSA(maxiter=1), seed=self.config.seed)
        objective = vqe.noisy_objective_factory(application.device(), shots=None, use_mem=True)
        return float(objective(outputs["parameters"]))

    def check(self, outputs: Dict[str, Any]) -> List[str]:
        reference = load_reference(self.seed)["noisy_vqe"]
        problems = []
        outputs["final_energy"] = self.final_energy(outputs)
        for key in ("final_energy", "optimal_value"):
            if not _close(outputs[key], reference[key]):
                problems.append(f"{key} {outputs[key]!r} != reference {reference[key]!r}")
        if outputs["num_evaluations"] != reference["num_evaluations"]:
            problems.append(f"num_evaluations {outputs['num_evaluations']} != reference")
        return problems

    @staticmethod
    def science(outputs: Dict[str, Any]) -> Dict[str, float]:
        return {"science.final_energy": outputs["final_energy"]}


BATCH_WORKLOADS = {workload.name: workload for workload in (Fig12, Fig12Process, NoisyVQE)}
