"""A Qiskit-Runtime-like session model (paper §VI-A).

The paper was among the first users of Qiskit Runtime and documents its
07/2021 constraints:

1. only the traditional gate-angle parameters can be tuned variationally,
2. only SPSA-family classical tuners are allowed,
3. a problem may hold the machine for at most 5 hours,
4. only one Runtime-enabled machine was available.

:class:`RuntimeSession` enforces those constraints around an objective
callable, and accounts for the wall-clock time each evaluation would take on
hardware so that the Fig. 15 execution-time breakdown can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import RuntimeSessionError
from ..optimizers.base import OptimizationResult, Optimizer


@dataclass
class RuntimeConstraints:
    """The 07/2021 Qiskit Runtime limitations the paper worked around."""

    max_session_hours: float = 5.0
    allowed_optimizers: Sequence[str] = ("spsa",)
    tunable_parameters: str = "gate_angles_only"

    def check_optimizer(self, optimizer: Optimizer) -> None:
        if optimizer.name not in self.allowed_optimizers:
            raise RuntimeSessionError(
                f"Qiskit Runtime (07/2021) only supports {list(self.allowed_optimizers)} "
                f"optimizers, got '{optimizer.name}'"
            )


@dataclass
class CircuitTimingModel:
    """How long one objective evaluation takes on the machine.

    One evaluation = ``num_measurement_groups`` circuits x ``shots`` repetitions
    of (circuit duration + reset), plus a fixed per-job classical overhead.
    """

    circuit_duration_us: float = 20.0
    reset_time_us: float = 250.0
    shots: int = 4096
    num_measurement_groups: int = 2
    per_job_overhead_s: float = 4.0

    def seconds_for_circuits(self, num_circuits: int) -> float:
        """Quantum time for executing ``num_circuits`` at ``shots`` repetitions
        plus one job's classical overhead."""
        per_shot_us = self.circuit_duration_us + self.reset_time_us
        return num_circuits * self.shots * per_shot_us * 1e-6 + self.per_job_overhead_s

    def seconds_per_evaluation(self) -> float:
        return self.seconds_for_circuits(self.num_measurement_groups)


class RuntimeSession:
    """Wraps an objective with Runtime's time cap and optimizer restrictions.

    Each :meth:`evaluate` call is charged the modelled time of one objective
    evaluation on the machine; the objective itself decides where the
    circuits run (``VAQEMPipeline`` and ``examples/h2_chemistry_runtime.py``
    pass a noisy VQE objective).
    """

    def __init__(
        self,
        objective: Optional[Callable[[np.ndarray], float]] = None,
        timing: Optional[CircuitTimingModel] = None,
        constraints: Optional[RuntimeConstraints] = None,
        machine_name: str = "fake_montreal",
    ):
        self.objective = objective
        self.timing = timing or CircuitTimingModel()
        self.constraints = constraints or RuntimeConstraints()
        self.machine_name = machine_name
        self.elapsed_seconds = 0.0
        self.num_evaluations = 0
        self.history: List[float] = []

    # ------------------------------------------------------------------
    @property
    def elapsed_hours(self) -> float:
        return self.elapsed_seconds / 3600.0

    def remaining_hours(self) -> float:
        return self.constraints.max_session_hours - self.elapsed_hours

    def _charge_evaluation(self) -> None:
        self.elapsed_seconds += self.timing.seconds_per_evaluation()
        if self.elapsed_hours > self.constraints.max_session_hours:
            raise RuntimeSessionError(
                f"Runtime session exceeded its {self.constraints.max_session_hours:.1f} h cap "
                f"after {self.num_evaluations} evaluations"
            )

    def evaluate(self, parameters: np.ndarray) -> float:
        """One charged objective evaluation."""
        if self.objective is None:
            raise RuntimeSessionError("this session was opened without an objective")
        self.num_evaluations += 1
        self._charge_evaluation()
        value = float(self.objective(np.asarray(parameters, dtype=float)))
        self.history.append(value)
        return value

    # ------------------------------------------------------------------
    def run_program(self, optimizer: Optimizer, initial_point: Sequence[float]) -> OptimizationResult:
        """Run a VQE tuning program inside the session (SPSA only)."""
        self.constraints.check_optimizer(optimizer)
        return optimizer.minimize(self.evaluate, initial_point)

    def max_evaluations_within_cap(self) -> int:
        """How many evaluations fit inside the 5-hour cap."""
        per_eval = self.timing.seconds_per_evaluation()
        return int(self.constraints.max_session_hours * 3600.0 // per_eval)

    def __repr__(self):
        return (
            f"RuntimeSession({self.machine_name}, {self.num_evaluations} evals, "
            f"{self.elapsed_hours:.2f}/{self.constraints.max_session_hours:.1f} h)"
        )
