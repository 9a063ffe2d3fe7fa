"""The VQE driver.

Ties together an ansatz, a Hamiltonian, a classical optimizer and an execution
backend (ideal statevector or noisy scheduled simulation).  The paper's
feasible flow tunes gate-rotation angles against the *ideal* simulator (or
Qiskit Runtime for the chemistry problems) and only then moves to the machine
for mitigation tuning; both execution modes are provided here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..backends.device import DeviceModel
from ..circuits.circuit import QuantumCircuit
from ..engine.density_engine import NoisyDensityMatrixEngine
from ..engine.statevector_engine import StatevectorEngine
from ..exceptions import VQEError
from ..mitigation.mem import MeasurementMitigator
from ..operators.pauli import PauliSum
from ..optimizers.base import BatchObjective, OptimizationResult, Optimizer
from ..optimizers.spsa import SPSA
from ..simulators.noise_model import NoiseModel
from ..simulators.statevector import StatevectorProgram
from ..transpiler.pipeline import TranspileResult, transpile
from .expectation import ExpectationEstimator

#: Points per blocking batch when a trajectory is replayed: each chunk is
#: bound (and transpiled) and evaluated before the next is built.
TRAJECTORY_CHUNK = 4


@dataclass
class VQEResult:
    """Result of a VQE angle-tuning run."""

    optimal_parameters: np.ndarray
    optimal_value: float
    history: List[float] = field(default_factory=list)
    num_evaluations: int = 0
    execution_mode: str = "ideal"

    def __repr__(self):
        return (
            f"VQEResult(value={self.optimal_value:.6f}, evals={self.num_evaluations}, "
            f"mode={self.execution_mode})"
        )


class VQE:
    """Variational Quantum Eigensolver over a parameterised ansatz."""

    def __init__(
        self,
        ansatz: QuantumCircuit,
        hamiltonian: PauliSum,
        optimizer: Optional[Optimizer] = None,
        seed: int = 7,
        engine: Optional[StatevectorEngine] = None,
    ):
        if ansatz.num_qubits != hamiltonian.num_qubits:
            raise VQEError(
                f"ansatz has {ansatz.num_qubits} qubits but the Hamiltonian needs "
                f"{hamiltonian.num_qubits}"
            )
        self.ansatz = ansatz
        self.hamiltonian = hamiltonian
        self.optimizer = optimizer or SPSA(maxiter=80, seed=seed)
        self.seed = seed
        #: The ideal engine behind :meth:`evaluate_trajectory_ideal` only; the
        #: ideal objectives evaluate a compiled program instead, so the engine
        #: replays trajectories as an independent check of that program.
        self.engine = engine or StatevectorEngine(seed=seed)
        self._program: Optional[StatevectorProgram] = None
        self._program_source: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Objective functions
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return self.ansatz.num_parameters

    def initial_point(self, scale: float = 0.1) -> np.ndarray:
        """A reproducible small-angle starting point."""
        rng = np.random.default_rng(self.seed)
        return rng.uniform(-scale * np.pi, scale * np.pi, self.num_parameters())

    def bind(self, parameters: Sequence[float]) -> QuantumCircuit:
        """The ansatz with numeric angles bound (no measurements)."""
        return self.ansatz.bind_parameters(list(parameters))

    def _ideal_program(self) -> StatevectorProgram:
        """The ansatz compiled for ideal evaluation: built at first use and
        rebuilt when :attr:`ansatz` is replaced or its instruction count
        changes."""
        source = (self.ansatz, len(self.ansatz.instructions))
        if self._program_source != source:
            self._program = StatevectorProgram(self.ansatz)
            self._program_source = source
        return self._program

    def ideal_objective(self, parameters: Sequence[float]) -> float:
        """Noise-free ``<H>`` for a parameter vector.

        Bit-identical to the engine's expectation of the bound ansatz
        (:meth:`evaluate_trajectory_ideal`), without binding or hashing a
        circuit per evaluation.
        """
        state = self._ideal_program().statevector(parameters)
        return float(self.hamiltonian.expectation_from_statevector(state))

    def noisy_objective_factory(
        self,
        device: DeviceModel,
        noise_model: Optional[NoiseModel] = None,
        shots: Optional[int] = None,
        use_mem: bool = False,
        physical_qubits: Optional[Sequence[int]] = None,
        engine: Optional[NoisyDensityMatrixEngine] = None,
    ) -> Callable[[Sequence[float]], float]:
        """Build an objective that executes on the noisy scheduled simulator.

        Every call transpiles the bound ansatz, so this is the expensive mode;
        it is what the "machine execution" curves of Fig. 8 use.  All
        executions share one :class:`NoisyDensityMatrixEngine` (injected or
        created here), so replaying a parameter trajectory twice — e.g. with
        and without MEM — only simulates each distinct circuit once.
        """
        if noise_model is None and engine is not None:
            # An injected engine brings its own noise model; building a fresh
            # one here would fail the estimator's shared-model check below.
            noise_model = engine.noise_model
        noise_model = noise_model or NoiseModel.from_device(device)
        engine = engine or NoisyDensityMatrixEngine(noise_model, seed=self.seed)

        def objective(parameters: Sequence[float]) -> float:
            circuit = self.bind(parameters)
            circuit.measure_all()
            result = transpile(circuit, device, physical_qubits=physical_qubits)
            mitigator = None
            if use_mem:
                measured = result.scheduled.measured_positions()
                ordered = [pos for pos, _ in sorted(measured, key=lambda pair: pair[1])]
                mitigator = MeasurementMitigator.from_device(
                    device, [result.scheduled.physical_qubit(pos) for pos in ordered]
                )
            estimator = ExpectationEstimator(
                noise_model, shots=shots, mitigator=mitigator, seed=self.seed, engine=engine
            )
            return estimator.estimate(result.scheduled, self.hamiltonian).value

        return objective

    def ideal_batch_objective(self) -> BatchObjective:
        """A :class:`~repro.optimizers.base.BatchObjective` over the ideal
        objective.

        ``evaluate_batch`` loops over the compiled program on the caller's
        thread: an evaluation takes well under a millisecond, less than a
        trip through the engine's scheduler.  Values are element-wise
        :meth:`ideal_objective` calls.
        """
        return _IdealBatchObjective(self)

    def noisy_batch_objective_factory(
        self,
        device: DeviceModel,
        noise_model: Optional[NoiseModel] = None,
        shots: Optional[int] = None,
        use_mem: bool = False,
        physical_qubits: Optional[Sequence[int]] = None,
        engine: Optional[NoisyDensityMatrixEngine] = None,
    ) -> BatchObjective:
        """A :class:`~repro.optimizers.base.BatchObjective` on the noisy backend.

        Like :meth:`noisy_objective_factory` but batch-capable: every point of
        a batch is transpiled and the resulting schedules are evaluated in one
        :meth:`~repro.vqe.expectation.ExpectationEstimator.estimate_batch`
        call, so they share the engine's caches and prefix snapshots.
        Sampling randomness follows the *content-derived* engine seeding
        contract (not the estimator's stateful generator), so single-point
        calls and batches agree bit for bit; with ``shots=None`` the values
        also equal the serial :meth:`noisy_objective_factory` path.
        """
        if noise_model is None and engine is not None:
            noise_model = engine.noise_model
        noise_model = noise_model or NoiseModel.from_device(device)
        engine = engine or NoisyDensityMatrixEngine(noise_model, seed=self.seed)
        return _NoisyBatchObjective(
            self, device, noise_model, engine, shots, use_mem, physical_qubits
        )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def run_ideal(self, initial_point: Optional[Sequence[float]] = None) -> VQEResult:
        """Tune angles against the ideal simulator (the paper's default)."""
        point = np.asarray(initial_point, dtype=float) if initial_point is not None else self.initial_point()
        result = self.optimizer.minimize(self.ideal_objective, point)
        return self._to_vqe_result(result, "ideal")

    def evaluate_trajectory_ideal(self, parameter_history: Sequence[np.ndarray]) -> List[float]:
        """Ideal objective along a parameter trajectory (Fig. 8 top panel).

        The trajectory is evaluated in blocking
        :meth:`~repro.engine.base.ExecutionEngine.expectation_batch` calls of
        :data:`TRAJECTORY_CHUNK` points.  Values equal per-point
        :meth:`ideal_objective` calls bit for bit.
        """
        values: List[float] = []
        for start in range(0, len(parameter_history), TRAJECTORY_CHUNK):
            chunk = [self.bind(p) for p in parameter_history[start : start + TRAJECTORY_CHUNK]]
            values.extend(float(v) for v in self.engine.expectation_batch(chunk, self.hamiltonian))
        return values

    def evaluate_trajectory_noisy(
        self,
        parameter_history: Sequence[np.ndarray],
        device: DeviceModel,
        noise_model: Optional[NoiseModel] = None,
        shots: Optional[int] = None,
        use_mem: bool = True,
    ) -> List[float]:
        """Noisy objective along a parameter trajectory (Fig. 8 bottom panel).

        The trajectory is transpiled and evaluated in blocking
        :meth:`~repro.vqe.expectation.ExpectationEstimator.estimate_batch`
        calls of :data:`TRAJECTORY_CHUNK` points on one shared
        :class:`NoisyDensityMatrixEngine`, so repeated parameter vectors
        cost one simulation.  Per the seeding contract the chunk boundaries
        cannot change any value.
        """
        noise_model = noise_model or NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise_model, seed=self.seed)
        estimator: Optional[ExpectationEstimator] = None
        values: List[float] = []
        for start in range(0, len(parameter_history), TRAJECTORY_CHUNK):
            chunk = []
            for parameters in parameter_history[start : start + TRAJECTORY_CHUNK]:
                circuit = self.bind(parameters)
                circuit.measure_all()
                chunk.append(transpile(circuit, device).scheduled)
            if estimator is None:
                mitigator: Optional[MeasurementMitigator] = None
                if use_mem:
                    # Identical for every point: the ansatz (and therefore the
                    # measured layout) does not change along a trajectory.
                    measured = chunk[0].measured_positions()
                    ordered = [pos for pos, _ in sorted(measured, key=lambda pair: pair[1])]
                    mitigator = MeasurementMitigator.from_device(
                        device, [chunk[0].physical_qubit(pos) for pos in ordered]
                    )
                estimator = ExpectationEstimator(
                    noise_model, shots=shots, mitigator=mitigator, seed=self.seed, engine=engine
                )
            values.extend(
                float(r.value) for r in estimator.estimate_batch(chunk, self.hamiltonian)
            )
        return values

    @staticmethod
    def _to_vqe_result(result: OptimizationResult, mode: str) -> VQEResult:
        return VQEResult(
            optimal_parameters=np.asarray(result.optimal_parameters, dtype=float),
            optimal_value=float(result.optimal_value),
            history=list(result.history),
            num_evaluations=result.num_evaluations,
            execution_mode=mode,
        )


class _IdealBatchObjective:
    """Batch-capable ideal objective (see :meth:`VQE.ideal_batch_objective`)."""

    def __init__(self, vqe: VQE):
        self._vqe = vqe

    def __call__(self, parameters: Sequence[float]) -> float:
        return self.evaluate_batch([np.asarray(parameters, dtype=float)])[0]

    def evaluate_batch(self, points: Sequence[np.ndarray]) -> List[float]:
        return [self._vqe.ideal_objective(p) for p in points]


class _NoisyBatchObjective:
    """Batch-capable noisy objective (see :meth:`VQE.noisy_batch_objective_factory`).

    The estimator (and, with MEM, the mitigator) is built lazily on the first
    evaluation — the mitigator needs a transpiled schedule to read the
    measured layout, which is identical for every point of a trajectory.
    Sampling randomness is content-derived (`seed=None` estimator, seeded
    engine), so values are independent of batching.
    """

    def __init__(
        self,
        vqe: VQE,
        device: DeviceModel,
        noise_model: NoiseModel,
        engine: NoisyDensityMatrixEngine,
        shots: Optional[int],
        use_mem: bool,
        physical_qubits: Optional[Sequence[int]],
    ):
        self._vqe = vqe
        self._device = device
        self._noise_model = noise_model
        self._engine = engine
        self._shots = shots
        self._use_mem = use_mem
        self._physical_qubits = physical_qubits
        self._estimator: Optional[ExpectationEstimator] = None

    def __call__(self, parameters: Sequence[float]) -> float:
        return self.evaluate_batch([np.asarray(parameters, dtype=float)])[0]

    def _transpile(self, parameters: np.ndarray) -> TranspileResult:
        circuit = self._vqe.bind(parameters)
        circuit.measure_all()
        return transpile(circuit, self._device, physical_qubits=self._physical_qubits)

    def _ensure_estimator(self, result: TranspileResult) -> ExpectationEstimator:
        if self._estimator is None:
            mitigator: Optional[MeasurementMitigator] = None
            if self._use_mem:
                measured = result.scheduled.measured_positions()
                ordered = [pos for pos, _ in sorted(measured, key=lambda pair: pair[1])]
                mitigator = MeasurementMitigator.from_device(
                    self._device,
                    [result.scheduled.physical_qubit(pos) for pos in ordered],
                )
            self._estimator = ExpectationEstimator(
                self._noise_model, shots=self._shots, mitigator=mitigator, engine=self._engine
            )
        return self._estimator

    def evaluate_batch(self, points: Sequence[np.ndarray]) -> List[float]:
        schedules = []
        estimator: Optional[ExpectationEstimator] = None
        for parameters in points:
            result = self._transpile(np.asarray(parameters, dtype=float))
            estimator = self._ensure_estimator(result)
            schedules.append(result.scheduled)
        if estimator is None:
            return []
        return [
            float(r.value) for r in estimator.estimate_batch(schedules, self._vqe.hamiltonian)
        ]
