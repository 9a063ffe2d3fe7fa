"""Simultaneous Perturbation Stochastic Approximation (SPSA).

SPSA is the only tuner Qiskit Runtime supported at the time of the paper
(§VI-A constraint 2), so it is the optimizer used for all angle tuning in the
reproduction.  Each iteration estimates the gradient from just two objective
evaluations with a random simultaneous perturbation of all parameters, which
makes it well suited to noisy objective functions: the per-step cost is O(1)
circuit evaluations regardless of the parameter count, versus O(p) for
parameter-shift gradients.

The gain schedules follow Spall's standard recommendations:
``a_k = a / (k + 1 + A)^alpha`` and ``c_k = c / (k + 1)^gamma``.

Evaluation budget
-----------------
Per Spall's algorithm the step is accepted *unconditionally* unless blocking
is enabled, so an iteration costs exactly ``2 * resamplings`` evaluations —
``1 + 2 * resamplings * maxiter`` for a whole run.  (An earlier version of
this optimizer evaluated the candidate point even with ``blocking=False``,
silently spending a hidden third evaluation per step and defeating the O(1)
property that justifies SPSA on sampled objectives.)  With ``blocking=True``
the candidate must be evaluated to decide acceptance, adding one evaluation
per iteration; if ``allowed_increase`` is left at its default ``None``, the
blocking threshold is calibrated from ``calibration_evaluations`` extra
evaluations of the initial point (2× their sample standard deviation — an
estimate of the objective's shot noise; for a deterministic objective the
spread is zero and blocking degenerates to strict descent).

Batched evaluation
------------------
All of an iteration's ``±c_k·Δ`` points (across every resampling) are
submitted as **one** batch via
:meth:`~repro.optimizers.base.TrackingObjective.evaluate_batch`: an
engine-backed :class:`~repro.optimizers.base.BatchObjective` pipelines them
through the engine's scheduler, while plain callables are evaluated
element-wise in the same order.  Per the engine seeding contract the values
— and therefore the whole optimization trajectory — are bit-identical either
way.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..exceptions import OptimizerError
from .base import Objective, OptimizationResult, Optimizer, TrackingObjective


class SPSA(Optimizer):
    """Spall's SPSA optimizer with optional parameter blocking and averaging."""

    name = "spsa"

    def __init__(
        self,
        maxiter: int = 100,
        learning_rate: float = 0.2,
        perturbation: float = 0.15,
        alpha: float = 0.602,
        gamma: float = 0.101,
        stability_constant: Optional[float] = None,
        resamplings: int = 1,
        blocking: bool = False,
        allowed_increase: Optional[float] = None,
        calibration_evaluations: int = 4,
        seed: Optional[int] = None,
        callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
    ):
        if maxiter < 1:
            raise OptimizerError("maxiter must be at least 1")
        if resamplings < 1:
            raise OptimizerError("resamplings must be at least 1")
        if calibration_evaluations < 1:
            raise OptimizerError("calibration_evaluations must be at least 1")
        self.maxiter = maxiter
        self.learning_rate = learning_rate
        self.perturbation = perturbation
        self.alpha = alpha
        self.gamma = gamma
        self.stability_constant = (
            stability_constant if stability_constant is not None else 0.1 * maxiter
        )
        self.resamplings = resamplings
        self.blocking = blocking
        #: Blocking threshold: a candidate raising the objective by more than
        #: this is rejected.  ``None`` (the default) calibrates the threshold
        #: to 2× the sample standard deviation of ``calibration_evaluations``
        #: repeat evaluations of the initial point — an estimate of the
        #: objective's noise floor — instead of a fixed constant.
        self.allowed_increase = allowed_increase
        self.calibration_evaluations = calibration_evaluations
        self.seed = seed
        self.callback = callback

    def _gains(self, iteration: int) -> tuple:
        a_k = self.learning_rate / ((iteration + 1 + self.stability_constant) ** self.alpha)
        c_k = self.perturbation / ((iteration + 1) ** self.gamma)
        return a_k, c_k

    def minimize(self, objective: Objective, initial_point: Sequence[float]) -> OptimizationResult:
        rng = np.random.default_rng(self.seed)
        tracked = TrackingObjective(objective)
        point = self._validate_initial_point(initial_point)
        current_value = tracked(point)
        iteration_values = [current_value]

        allowed_increase = self.allowed_increase
        if self.blocking and allowed_increase is None:
            # Noise calibration: repeat evaluations of the initial point.  On
            # a sampled objective their spread estimates the shot noise; on a
            # deterministic (or cached) objective it is exactly zero and
            # blocking becomes strict descent.
            repeats = tracked.evaluate_batch([point] * self.calibration_evaluations)
            allowed_increase = 2.0 * float(np.std([current_value] + repeats))

        accepted_steps = 0
        first_update_norm: Optional[float] = None
        last_update_norm = 0.0
        for iteration in range(self.maxiter):
            a_k, c_k = self._gains(iteration)
            deltas = [rng.choice([-1.0, 1.0], size=point.size) for _ in range(self.resamplings)]
            probes = []
            for delta in deltas:
                probes.append(point + c_k * delta)
                probes.append(point - c_k * delta)
            values = tracked.evaluate_batch(probes)

            gradient = np.zeros_like(point)
            for index, delta in enumerate(deltas):
                value_plus = values[2 * index]
                value_minus = values[2 * index + 1]
                gradient += (value_plus - value_minus) / (2.0 * c_k) * delta
            gradient /= self.resamplings

            update = a_k * gradient
            last_update_norm = float(np.linalg.norm(update))
            if first_update_norm is None:
                first_update_norm = last_update_norm
            candidate = point - update
            if self.blocking:
                candidate_value = tracked(candidate)
                if candidate_value > current_value + allowed_increase:
                    # Reject the step but keep annealing the gains.
                    iteration_values.append(current_value)
                else:
                    accepted_steps += 1
                    point = candidate
                    current_value = candidate_value
                    iteration_values.append(current_value)
            else:
                # Spall's SPSA: accept unconditionally — no extra evaluation.
                # The iteration value is the mean of the ± probe values, a
                # free unbiased proxy for the objective near the new point.
                accepted_steps += 1
                point = candidate
                current_value = float(np.mean(values))
                iteration_values.append(current_value)
            if self.callback is not None:
                self.callback(iteration, point.copy(), current_value)

        # Report the last *accepted* point, never the argmin of recorded
        # values: under shot noise that argmin is biased optimistic (see
        # TrackingObjective.best).  With blocking the reported value is the
        # candidate evaluation that accepted the point; without blocking it
        # is the final iteration's probe mean.
        if self.blocking:
            converged = accepted_steps > 0
            message = (
                f"SPSA finished {self.maxiter} iterations; accepted "
                f"{accepted_steps}/{self.maxiter} steps "
                f"(allowed_increase={allowed_increase:.3g})"
            )
        else:
            # Final-gain criterion: the annealed update magnitude should have
            # shrunk relative to where it started; a final step as large as
            # the first one means the iterates were still moving at full
            # stride when the budget ran out.
            converged = bool(
                first_update_norm is None
                or first_update_norm == 0.0
                or last_update_norm <= first_update_norm
            )
            message = (
                f"SPSA finished {self.maxiter} iterations; final update norm "
                f"{last_update_norm:.3g} (first {first_update_norm:.3g})"
            )
        return OptimizationResult(
            optimal_parameters=point,
            optimal_value=current_value,
            num_evaluations=tracked.num_evaluations,
            history=iteration_values,
            parameter_history=tracked.points,
            converged=converged,
            message=message,
            metadata={
                "accepted_steps": accepted_steps,
                "accepted_fraction": accepted_steps / self.maxiter,
                "allowed_increase": allowed_increase,
                "first_update_norm": first_update_norm,
                "last_update_norm": last_update_norm,
            },
        )
