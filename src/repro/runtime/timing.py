"""Execution-time accounting for the Fig. 15 breakdown.

The paper decomposes the end-to-end wall-clock time of each application into
four components: angle tuning in simulation, angle tuning through Qiskit
Runtime, error-mitigation tuning (the independent window sweeps, run as
regular cloud jobs), and queueing.  :class:`ExecutionTimeModel` computes each
component in minutes from the application's measured characteristics (number
of objective evaluations, circuit duration, window count and sweep budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..exceptions import ReproError
from .queue_model import QueueModel
from .session import CircuitTimingModel


@dataclass
class TimeBreakdown:
    """Per-application execution-time components, in minutes."""

    application: str
    angle_tuning_simulation_min: float = 0.0
    angle_tuning_runtime_min: float = 0.0
    em_tuning_min: float = 0.0
    queueing_min: float = 0.0

    @property
    def total_min(self) -> float:
        return (
            self.angle_tuning_simulation_min
            + self.angle_tuning_runtime_min
            + self.em_tuning_min
            + self.queueing_min
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "Tuning Angles - Sim": self.angle_tuning_simulation_min,
            "Tuning Angles - QR": self.angle_tuning_runtime_min,
            "Tuning EM": self.em_tuning_min,
            "Avg Queuing": self.queueing_min,
        }


class ExecutionTimeModel:
    """Analytic wall-clock model of the paper's feasible flow."""

    def __init__(
        self,
        queue_model: Optional[QueueModel] = None,
        simulation_seconds_per_evaluation: float = 0.35,
        timing: Optional[CircuitTimingModel] = None,
    ):
        self.queue_model = queue_model or QueueModel()
        self.simulation_seconds_per_evaluation = simulation_seconds_per_evaluation
        self.timing = timing or CircuitTimingModel()

    def angle_tuning_simulation_minutes(self, num_evaluations: int) -> float:
        return num_evaluations * self.simulation_seconds_per_evaluation / 60.0

    def angle_tuning_runtime_minutes(self, num_evaluations: int) -> float:
        return num_evaluations * self.timing.seconds_per_evaluation() / 60.0

    def em_tuning_minutes(self, num_window_evaluations: int) -> float:
        """EM tuning runs the same kind of measured jobs as Runtime evaluations."""
        return num_window_evaluations * self.timing.seconds_per_evaluation() / 60.0

    def queueing_minutes(self, device_name: str, num_job_submissions: int) -> float:
        if num_job_submissions < 1:
            raise ReproError("at least one job submission is required")
        return self.queue_model.average_wait_minutes(device_name, num_job_submissions)

    def breakdown(
        self,
        application: str,
        device_name: str,
        uses_runtime: bool,
        angle_tuning_evaluations: int,
        em_tuning_evaluations: int,
        num_job_submissions: int = 3,
    ) -> TimeBreakdown:
        """Full Fig. 15-style breakdown for one application."""
        out = TimeBreakdown(application=application)
        if uses_runtime:
            out.angle_tuning_runtime_min = self.angle_tuning_runtime_minutes(angle_tuning_evaluations)
        else:
            out.angle_tuning_simulation_min = self.angle_tuning_simulation_minutes(
                angle_tuning_evaluations
            )
        out.em_tuning_min = self.em_tuning_minutes(em_tuning_evaluations)
        out.queueing_min = self.queueing_minutes(device_name, num_job_submissions)
        return out
