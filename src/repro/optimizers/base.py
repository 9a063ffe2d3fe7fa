"""Classical optimizer interfaces.

All optimizers expose the same :meth:`Optimizer.minimize` signature so the
VQE driver can switch between them; the result record keeps the full
objective-value history, which is what the paper's convergence plots (Fig. 8)
are drawn from.

Batch-objective protocol
------------------------
An objective is, at minimum, a callable ``f(parameters) -> float``.  An
objective may *additionally* implement

``evaluate_batch(points: Sequence[np.ndarray]) -> List[float]``

returning one value per point, in input order, with every value equal to the
corresponding single-point call (bit for bit for deterministic or seeded
objectives).  Optimizers that evaluate several points per step — SPSA's
``±c_k·Δ`` pairs are the canonical case — probe for ``evaluate_batch`` and
evaluate all of a step's points as one batch, which lets an engine-backed
objective run them through one
:meth:`~repro.vqe.expectation.ExpectationEstimator.estimate_batch` call.
Plain callables fall back to element-wise evaluation transparently:
:meth:`TrackingObjective.evaluate_batch` performs the probe, so optimizers
only ever talk to the tracking wrapper.

Because the engine derives sampling randomness from content (see the seeding
contract in :mod:`repro.engine.base`), a batched evaluation returns exactly
the values the element-wise path would have produced — batching changes
wall-clock, never numbers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Protocol, Sequence, runtime_checkable

import numpy as np

from ..exceptions import OptimizerError

Objective = Callable[[np.ndarray], float]


@runtime_checkable
class BatchObjective(Protocol):
    """An objective that can evaluate many points in one submission.

    See the module docstring for the contract: ``evaluate_batch`` must return
    one value per point, ordered like the input and equal to element-wise
    ``__call__`` values.
    """

    def __call__(self, parameters: np.ndarray) -> float: ...

    def evaluate_batch(self, points: Sequence[np.ndarray]) -> List[float]: ...


@dataclass
class OptimizationResult:
    """Outcome of a classical minimisation run."""

    optimal_parameters: np.ndarray
    optimal_value: float
    num_evaluations: int
    history: List[float] = field(default_factory=list)
    parameter_history: List[np.ndarray] = field(default_factory=list)
    converged: bool = True
    message: str = ""
    #: Optimizer-specific diagnostics (e.g. SPSA's accepted-step fraction);
    #: never required for correctness, purely for reporting.
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self):
        return (
            f"OptimizationResult(value={self.optimal_value:.6f}, "
            f"evals={self.num_evaluations}, converged={self.converged})"
        )


class Optimizer(ABC):
    """Base class for classical parameter optimizers."""

    name = "optimizer"

    @abstractmethod
    def minimize(self, objective: Objective, initial_point: Sequence[float]) -> OptimizationResult:
        """Minimise ``objective`` starting from ``initial_point``."""

    @staticmethod
    def _validate_initial_point(initial_point: Sequence[float]) -> np.ndarray:
        point = np.asarray(initial_point, dtype=float).reshape(-1)
        if point.size == 0:
            raise OptimizerError("the initial point must contain at least one parameter")
        return point


class TrackingObjective:
    """Wraps an objective to record every evaluation (value and parameters)."""

    def __init__(self, objective: Objective):
        self._objective = objective
        self.values: List[float] = []
        self.points: List[np.ndarray] = []

    def __call__(self, parameters: np.ndarray) -> float:
        value = float(self._objective(np.asarray(parameters, dtype=float)))
        self.values.append(value)
        self.points.append(np.asarray(parameters, dtype=float).copy())
        return value

    def evaluate_batch(self, points: Sequence[np.ndarray]) -> List[float]:
        """Evaluate many points, batched when the inner objective supports it.

        Probes the wrapped objective for the :class:`BatchObjective` protocol
        and passes it the whole batch; plain callables are evaluated
        element-wise in input order.  Either way every evaluation is recorded
        exactly as individual :meth:`__call__`\\ s would have recorded it.
        """
        arrays = [np.asarray(p, dtype=float) for p in points]
        batch = getattr(self._objective, "evaluate_batch", None)
        if callable(batch):
            values = [float(v) for v in batch(arrays)]
            if len(values) != len(arrays):
                raise OptimizerError(
                    f"evaluate_batch returned {len(values)} values for {len(arrays)} points"
                )
        else:
            values = [float(self._objective(p)) for p in arrays]
        self.values.extend(values)
        self.points.extend(p.copy() for p in arrays)
        return values

    @property
    def num_evaluations(self) -> int:
        return len(self.values)

    def best(self) -> tuple:
        """(best_parameters, best_value) over every evaluation seen so far.

        Contract: the argmin over *recorded* values is only meaningful for
        deterministic (noise-free) objectives.  Under shot noise the minimum
        recorded value is biased optimistic — the argmin preferentially picks
        the evaluation whose noise happened to be most negative, so the
        reported value systematically undershoots the true objective at that
        point.  Optimizers driving sampled objectives should therefore report
        the *last accepted* point (and, if an honest value is needed,
        re-evaluate the incumbent) instead of calling :meth:`best`; the
        deterministic scipy wrappers keep using it.
        """
        if not self.values:
            raise OptimizerError("no evaluations recorded")
        index = int(np.argmin(self.values))
        return self.points[index], self.values[index]
