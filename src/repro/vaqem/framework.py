"""The VAQEM pipeline: the paper's feasible flow, end to end (Fig. 11, right).

Stage 1 — *angle tuning*: the ansatz gate-rotation angles are tuned with SPSA
against the ideal simulator (or through a Runtime session for the chemistry
applications).

Stage 2 — *error-mitigation tuning on the machine*: the bound circuit is
compiled (noise-aware layout, routing, basis translation, ALAP scheduling),
its idle windows are enumerated, and the independent-window tuner sweeps each
window's DD sequence count and/or adjacent-gate position against the measured
VQA objective with every other window held at baseline.  The per-window
optima are combined into the final mitigated schedule.

:class:`VAQEMPipeline` also evaluates the paper's comparison points (No-EM,
MEM baseline, one-round DD) so a single run produces everything Figs. 12-14
need.  Each strategy is tuned and scored on its own, so a strategy is the
unit the process tier maps over worker processes (:meth:`VAQEMPipeline.run`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.results import ApplicationResult, StrategyOutcome
from ..backends.device import DeviceModel
from ..engine.density_engine import NoisyDensityMatrixEngine
from ..engine.parallel import process_map, resolve_parallelism
from ..exceptions import VAQEMError
from ..mitigation.dd import uniform_dd
from ..mitigation.mem import MeasurementMitigator
from ..optimizers.spsa import SPSA
from ..runtime.session import RuntimeSession
from ..simulators.noise_model import NoiseModel
from ..transpiler.idle_windows import IdleWindow
from ..transpiler.pipeline import TranspileResult, transpile
from ..transpiler.scheduling import ScheduledCircuit
from ..vqe.applications import VQAApplication
from ..vqe.expectation import ExpectationEstimator
from ..vqe.vqe import VQE, VQEResult
from .config import VAQEMConfig
from .soundness import check_energy_soundness
from .window_tuner import IndependentWindowTuner, TuningResult

#: The strategies evaluated in Figs. 12 and 13, in presentation order.
STANDARD_STRATEGIES = (
    "no_em",
    "mem",
    "dd_xx",
    "dd_xy4",
    "vaqem_gs",
    "vaqem_xx",
    "vaqem_xy",
    "vaqem_gs_xy",
)


@dataclass
class VAQEMRunResult:
    """Everything produced by one pipeline run on one application."""

    application: str
    optimal_energy: float
    angle_result: VQEResult
    transpile_result: TranspileResult
    energies: Dict[str, float] = field(default_factory=dict)
    tuning_results: Dict[str, TuningResult] = field(default_factory=dict)
    evaluation_counts: Dict[str, int] = field(default_factory=dict)
    #: Execution-engine counters at the end of the run (cache hits, prefix
    #: reuse fraction, ...), for perf tracking by the benchmark harness.
    engine_stats: Dict[str, float] = field(default_factory=dict)

    def to_application_result(self) -> ApplicationResult:
        result = ApplicationResult(application=self.application, optimal_energy=self.optimal_energy)
        for strategy, energy in self.energies.items():
            result.add(
                StrategyOutcome(
                    strategy=strategy,
                    energy=energy,
                    num_evaluations=self.evaluation_counts.get(strategy, 0),
                )
            )
        return result

    def improvement(self, strategy: str, baseline: str = "mem") -> float:
        return self.to_application_result().improvement(strategy, baseline)


class VAQEMPipeline:
    """Runs the VAQEM feasible flow for one application."""

    def __init__(
        self,
        application: VQAApplication,
        config: Optional[VAQEMConfig] = None,
        device: Optional[DeviceModel] = None,
        noise_model: Optional[NoiseModel] = None,
        engine: Optional[NoisyDensityMatrixEngine] = None,
    ):
        self.application = application
        self.config = config or VAQEMConfig()
        self.device = device or application.device()
        if noise_model is None and engine is not None:
            noise_model = engine.noise_model
        self.noise_model = noise_model or NoiseModel.from_device(self.device)
        #: All machine executions of a serial run route through one shared
        #: engine, so every strategy evaluation and tuning sweep pools the
        #: same result cache and prefix snapshots.
        self.engine = engine or NoisyDensityMatrixEngine(self.noise_model, seed=self.config.seed)
        if self.engine.noise_model is not self.noise_model:
            raise VAQEMError("the injected engine must share the pipeline's noise model")
        self._angle_result: Optional[VQEResult] = None
        self._transpiled: Optional[TranspileResult] = None

    # ------------------------------------------------------------------
    # Stage 1: angle tuning
    # ------------------------------------------------------------------
    def tune_angles(self, mode: str = "ideal") -> VQEResult:
        """Tune the ansatz angles (ideal simulation or a Runtime session).

        In ``"ideal"`` mode the SPSA run is followed by a derivative-free
        polish (COBYLA) on the noise-free surface — simulation is not bound by
        Runtime's SPSA-only restriction, and a well-converged reference point
        is what makes the subsequent mitigation tuning meaningful (any noise
        can then only raise the measured energy).  ``mode="runtime"`` wraps
        the noisy objective in a :class:`RuntimeSession`, enforcing the 5-hour
        cap and SPSA-only restriction the paper describes for its chemistry
        applications.
        """
        optimizer = SPSA(maxiter=self.config.angle_tuning_iterations, seed=self.config.seed)
        vqe = VQE(self.application.ansatz, self.application.hamiltonian, optimizer, seed=self.config.seed)
        if mode == "ideal":
            spsa_result = vqe.run_ideal()
            from ..optimizers.scipy_optimizers import COBYLA

            polish = COBYLA(maxiter=max(150, 4 * self.application.num_parameters))
            polished = polish.minimize(vqe.ideal_objective, spsa_result.optimal_parameters)
            best = (
                polished
                if polished.optimal_value <= spsa_result.optimal_value
                else spsa_result
            )
            self._angle_result = VQEResult(
                optimal_parameters=np.asarray(best.optimal_parameters, dtype=float),
                optimal_value=float(best.optimal_value),
                history=list(spsa_result.history) + list(polished.history),
                num_evaluations=spsa_result.num_evaluations + polished.num_evaluations,
                execution_mode="ideal",
            )
        elif mode == "runtime":
            objective = vqe.noisy_objective_factory(
                self.device, self.noise_model, shots=self.config.shots, use_mem=self.config.use_mem
            )
            session = RuntimeSession(objective, machine_name=self.device.name)
            result = session.run_program(optimizer, vqe.initial_point())
            self._angle_result = VQE._to_vqe_result(result, "runtime")
        else:
            raise VAQEMError(f"unknown angle tuning mode '{mode}'")
        return self._angle_result

    @property
    def angle_result(self) -> VQEResult:
        if self._angle_result is None:
            self.tune_angles()
        return self._angle_result

    # ------------------------------------------------------------------
    # Stage 2 prerequisites: compile the tuned circuit
    # ------------------------------------------------------------------
    def compile(self) -> TranspileResult:
        """Bind the tuned angles, add measurements and compile for the device."""
        if self._transpiled is None:
            circuit = self.application.ansatz.bind_parameters(
                list(self.angle_result.optimal_parameters)
            )
            circuit.measure_all()
            self._transpiled = transpile(circuit, self.device)
        return self._transpiled

    def idle_windows(self) -> List[IdleWindow]:
        return self.compile().idle_windows

    # ------------------------------------------------------------------
    # Objective on the "machine"
    # ------------------------------------------------------------------
    def _mitigator(self, scheduled: ScheduledCircuit) -> Optional[MeasurementMitigator]:
        if not self.config.use_mem:
            return None
        measured = sorted(scheduled.measured_positions(), key=lambda pair: pair[1])
        physical = [scheduled.physical_qubit(pos) for pos, _ in measured]
        return MeasurementMitigator.from_device(self.device, physical)

    def _make_estimator(self, use_mem: Optional[bool] = None) -> ExpectationEstimator:
        scheduled_reference = self.compile().scheduled
        use_mem = self.config.use_mem if use_mem is None else use_mem
        mitigator = self._mitigator(scheduled_reference) if use_mem else None
        return ExpectationEstimator(
            self.noise_model,
            shots=self.config.shots,
            mitigator=mitigator,
            seed=self.config.seed,
            engine=self.engine,
        )

    def make_objective(self, use_mem: Optional[bool] = None):
        """The objective ``[ScheduledCircuit] -> [energy]`` on the noisy
        machine: every tuner sweep and strategy evaluation runs through it.

        Each call is one blocking batch on the pipeline's engine, which
        resolves duplicates from its caches and simulates the rest from
        their deepest common-prefix snapshots.
        """
        estimator = self._make_estimator(use_mem)
        hamiltonian = self.application.hamiltonian

        def objective(schedules: Sequence[ScheduledCircuit]) -> List[float]:
            return [result.value for result in estimator.estimate_batch(schedules, hamiltonian)]

        return objective

    # ------------------------------------------------------------------
    # Strategy evaluation
    # ------------------------------------------------------------------
    def _evaluate_schedule(self, scheduled: ScheduledCircuit, use_mem: bool) -> float:
        return float(self.make_objective(use_mem)([scheduled])[0])

    def evaluate_strategy(self, strategy: str) -> StrategyOutcome:
        """Evaluate one of the paper's comparison strategies."""
        compiled = self.compile()
        scheduled = compiled.scheduled
        windows = compiled.idle_windows
        details: Dict[str, object] = {}
        evaluations = 1

        if strategy == "no_em":
            energy = self._evaluate_schedule(scheduled, use_mem=False)
        elif strategy == "mem":
            energy = self._evaluate_schedule(scheduled, use_mem=True)
        elif strategy in ("dd_xx", "dd_xy4"):
            sequence = "xx" if strategy == "dd_xx" else "xy4"
            modified = uniform_dd(scheduled, windows, sequence=sequence, num_sequences=1)
            energy = self._evaluate_schedule(modified, use_mem=True)
        elif strategy in ("vaqem_gs", "vaqem_xx", "vaqem_xy", "vaqem_gs_xy"):
            tuning = self._run_tuner(strategy, scheduled, windows)
            energy = tuning.tuned_value
            details["tuning"] = tuning
            evaluations = tuning.num_evaluations
        else:
            raise VAQEMError(f"unknown strategy '{strategy}'")

        check_energy_soundness(
            energy,
            self.application.hamiltonian,
            tolerance=max(1e-6, 0.02 * abs(self.application.hamiltonian.ground_energy())),
            context=f"{self.application.name}/{strategy}",
        )
        return StrategyOutcome(strategy=strategy, energy=energy, num_evaluations=evaluations, details=details)

    def _run_tuner(
        self, strategy: str, scheduled: ScheduledCircuit, windows: Sequence[IdleWindow]
    ) -> TuningResult:
        tune_gs = strategy in ("vaqem_gs", "vaqem_gs_xy")
        tune_dd = strategy in ("vaqem_xx", "vaqem_xy", "vaqem_gs_xy")
        sequence = "xx" if strategy == "vaqem_xx" else "xy4"
        tuner = IndependentWindowTuner(
            objective=self.make_objective(use_mem=True),
            tune_gate_scheduling=tune_gs,
            tune_dd=tune_dd,
            dd_sequence=sequence,
            budget=self.config.budget,
        )
        return tuner.tune(scheduled, list(windows))

    # ------------------------------------------------------------------
    def run(self, strategies: Sequence[str] = STANDARD_STRATEGIES) -> VAQEMRunResult:
        """Run the full flow and evaluate the requested strategies.

        Under ``config.parallelism="process"`` the angles are tuned and the
        circuit compiled here, then each strategy is evaluated in a worker
        process on a fresh serial engine with this engine's kernel and seed;
        every engine's counters fold into :attr:`engine`'s stats.  The
        outcomes equal a serial run's bit for bit.
        """
        strategies = list(strategies)
        angle_result = self.angle_result
        compiled = self.compile()
        result = VAQEMRunResult(
            application=self.application.name,
            optimal_energy=self.application.exact_ground_energy(),
            angle_result=angle_result,
            transpile_result=compiled,
        )
        plan = resolve_parallelism(self.config.parallelism, self.config.max_workers, len(strategies))
        if plan.mode == "process":
            shipped = (
                self.application, self.config, self.device, self.noise_model,
                self.engine.kernel, self.engine.seed, angle_result, compiled,
            )
            outcomes = []
            for outcome, counters in process_map(
                _evaluate_on_fresh_engine, [(shipped, s) for s in strategies], plan.workers
            ):
                self.engine.stats.add_counters(counters)
                outcomes.append(outcome)
        else:
            outcomes = map(self.evaluate_strategy, strategies)
        for strategy, outcome in zip(strategies, outcomes):
            result.energies[strategy] = outcome.energy
            result.evaluation_counts[strategy] = outcome.num_evaluations
            tuning = outcome.details.get("tuning")
            if tuning is not None:
                result.tuning_results[strategy] = tuning
        result.engine_stats = self.engine.stats.as_dict()
        return result


def _evaluate_on_fresh_engine(task: Tuple[tuple, str]) -> Tuple[StrategyOutcome, Dict[str, int]]:
    """One strategy of a process run: the worker's :func:`process_map` task.

    Rebuilds the pipeline around a fresh serial engine from what the parent
    shipped, with its tuned angles and compiled circuit, and returns the
    strategy's outcome with the engine's counters.
    """
    (application, config, device, noise_model, kernel, seed, angle_result, compiled), strategy = task
    engine = NoisyDensityMatrixEngine(noise_model, seed=seed, kernel=kernel)
    pipeline = VAQEMPipeline(application, config, device, noise_model, engine)
    pipeline._angle_result = angle_result
    pipeline._transpiled = compiled
    outcome = pipeline.evaluate_strategy(strategy)
    return outcome, dataclasses.asdict(engine.stats)
