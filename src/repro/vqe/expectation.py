"""Expectation-value estimation of Pauli-sum observables on noisy hardware.

The estimator mirrors how a machine measures a VQE objective:

1. the (scheduled, possibly mitigation-modified) ansatz circuit is executed on
   the noisy backend, producing the pre-measurement density matrix;
2. for every qubit-wise-commuting measurement group of the Hamiltonian, the
   appropriate single-qubit basis rotations are applied and the Z-basis
   outcome distribution is extracted;
3. readout error distorts the distribution, measurement error mitigation
   (optionally) un-distorts it, shot noise (optionally) is added by sampling;
4. the weighted Pauli expectation values are summed.

Execution is routed through a
:class:`~repro.engine.density_engine.NoisyDensityMatrixEngine`, so a single
noisy execution of the ansatz body is shared by all measurement groups *and*
by every estimator call on content-identical schedules — plus, via the
engine's prefix-reuse fast path, partially shared by near-identical
schedules such as the window tuner's per-window candidates.
:meth:`ExpectationEstimator.estimate_batch` is the batched path every
library caller blocks on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..engine.base import ExpectationData
from ..engine.density_engine import NoisyDensityMatrixEngine, measure_pauli_sum
from ..exceptions import VQEError
from ..mitigation.mem import MeasurementMitigator
from ..operators.pauli import PauliSum
from ..simulators.noise_model import NoiseModel
from ..transpiler.scheduling import ScheduledCircuit

#: Sentinel distinguishing "use the estimator's configured shots" from an
#: explicit ``shots=None`` (exact infinite-shot) override.
_DEFAULT_SHOTS = object()


@dataclass
class ExpectationResult:
    """The estimated objective value plus per-group diagnostics."""

    value: float
    group_values: List[float]
    distributions: List[np.ndarray]
    shots_per_group: Optional[int]

    def __repr__(self):
        return f"ExpectationResult(value={self.value:.6f}, groups={len(self.group_values)})"


class ExpectationEstimator:
    """Estimates ``<H>`` for scheduled circuits under a noise model.

    Parameters
    ----------
    noise_model:
        The device noise model executions run under.
    shots:
        Shots per measurement group (``None`` = exact infinite-shot limit).
    mitigator:
        Optional measurement error mitigation applied to each distribution.
    seed:
        Seeds the estimator's sampling generator (sequential :meth:`estimate`
        calls consume it statefully, preserving historical behaviour).
    engine:
        The execution engine to route runs through.  By default a private
        :class:`NoisyDensityMatrixEngine` is created; inject a shared engine
        to pool caches across estimators (as :class:`~repro.vaqem.framework.
        VAQEMPipeline` does).
    """

    def __init__(
        self,
        noise_model: NoiseModel,
        shots: Optional[int] = None,
        mitigator: Optional[MeasurementMitigator] = None,
        seed: Optional[int] = None,
        engine: Optional[NoisyDensityMatrixEngine] = None,
    ):
        self.noise_model = noise_model
        self.shots = shots
        self.mitigator = mitigator
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.engine = engine or NoisyDensityMatrixEngine(noise_model, seed=seed)
        if self.engine.noise_model is not noise_model:
            raise VQEError("the injected engine must share the estimator's noise model")

    # ------------------------------------------------------------------
    def estimate(self, scheduled: ScheduledCircuit, hamiltonian: PauliSum) -> ExpectationResult:
        """Estimate the Hamiltonian expectation for one scheduled circuit.

        The noisy execution is engine-cached; shot sampling (when enabled)
        draws from the estimator's own stateful generator, so a seeded
        estimator reproduces the exact historical sequence of values.
        """
        state_for = getattr(self.engine, "measurement_state", self.engine.density_matrix)
        state = state_for(scheduled)
        data = measure_pauli_sum(
            state,
            scheduled,
            hamiltonian,
            self.noise_model,
            shots=self.shots,
            mitigator=self.mitigator,
            rng=self._rng if self.shots is not None else None,
        )
        return self._to_result(data)

    def estimate_batch(
        self,
        schedules: Sequence[ScheduledCircuit],
        hamiltonian: PauliSum,
        shots=_DEFAULT_SHOTS,
        seed: Optional[int] = None,
    ) -> List[ExpectationResult]:
        """Estimate ``<H>`` for many schedules through the engine's batch path.

        Follows the engine seeding contract: per-item sampling randomness is
        derived from content, so the output is order-stable and identical
        across repeated invocations.  With ``shots=None`` (exact mode) the
        values equal sequential :meth:`estimate` calls bit for bit.

        ``shots`` / ``seed`` override the estimator's configured shot count
        and the content-derived sampling seed *for this batch only* — the
        adaptive shot collector uses both to give every collection round its
        own budget and independent randomness (an engine-cached sampled
        value is otherwise bit-identical on repeat calls).
        """
        effective = self.shots if shots is _DEFAULT_SHOTS else shots
        data = self.engine.expectation_batch_full(
            schedules, hamiltonian, shots=effective, mitigator=self.mitigator, seed=seed
        )
        return [self._to_result(item, effective) for item in data]

    def _to_result(self, data: ExpectationData, shots=_DEFAULT_SHOTS) -> ExpectationResult:
        return ExpectationResult(
            value=data.value,
            group_values=list(data.group_values),
            distributions=list(data.distributions),
            shots_per_group=self.shots if shots is _DEFAULT_SHOTS else shots,
        )


def ideal_expectation(circuit, hamiltonian: PauliSum) -> float:
    """Noise-free expectation of a logical (unscheduled) circuit."""
    from ..simulators.statevector import StatevectorSimulator

    return StatevectorSimulator().expectation(circuit, hamiltonian)
