"""Adaptive allocation of a shot budget across Pauli measurement groups.

Estimating ``<H> = c_I + Σ_i <G_i>`` from samples spends shots on every
qubit-wise-commuting measurement group ``G_i`` of the Hamiltonian.  Splitting
a budget ``S`` uniformly is wasteful: the estimator variance is
``Σ_i σ_i² / s_i`` (``σ_i²`` the single-shot variance of group ``i``,
``s_i`` its shots), which for a fixed ``Σ s_i = S`` is minimised by Neyman
allocation ``s_i ∝ σ_i``.  The per-group variances are not known up front —
they depend on the prepared state — so :class:`AdaptiveShotCollector`
estimates them *while collecting*, in the style of Cirq's
``PauliStringSampleCollector``:

1. a uniform warm-up round measures every group and yields first variance
   estimates (plug-in: ``E[g²] − E[g]²`` over the sampled distribution,
   where ``g(b) = Σ_terms coeff · sign(b)``);
2. every subsequent round re-allocates its budget proportionally to the
   observed ``σ_i`` (largest-remainder rounding, so each round's total is
   exact) and refines the running per-group estimates;
3. collection stops when the budget is exhausted or the estimated standard
   error of ``<H>`` reaches ``target_stderr``.

Every round is submitted through
:meth:`~repro.vqe.expectation.ExpectationEstimator.submit_batch` — one
submission per measurement group, all in flight together — so rounds stream
through the engine's scheduler and the ansatz execution is engine-cached
across all groups and rounds (the noisy evolution runs **once**; only the
measurement/sampling stage repeats).  Each (round, group) submission carries
its own seed derived via :func:`repro.engine.fingerprint.derive_seed`, which
keeps rounds statistically independent *and* the whole collection
bit-reproducible: without an explicit per-call seed, a seeded engine would
serve every repeated round the identical cached sample.

Per-group totals are pooled shot-weighted, so the final value equals what a
single measurement of each group with its total shots would estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..engine.fingerprint import derive_seed
from ..exceptions import VQEError
from ..operators.pauli import MeasurementGroup, PauliSum
from ..transpiler.scheduling import ScheduledCircuit
from .expectation import ExpectationEstimator


@dataclass
class GroupEstimate:
    """Running shot-weighted estimate for one measurement group."""

    basis: str
    shots: int = 0
    value: float = 0.0
    variance: float = 0.0  # pooled single-shot variance estimate

    def fold(self, shots: int, value: float, variance: float) -> None:
        total = self.shots + shots
        if total == 0:
            return
        self.value = (self.value * self.shots + value * shots) / total
        self.variance = (self.variance * self.shots + variance * shots) / total
        self.shots = total


@dataclass
class CollectionResult:
    """Outcome of one adaptive collection run."""

    value: float
    stderr: float
    shots_used: int
    rounds: int
    #: One executed measurement circuit per (round, group) submission with a
    #: non-zero allocation — the convergence-cost metric, not wall-clock.
    circuits_executed: int
    groups: List[GroupEstimate] = field(default_factory=list)
    #: Per-round per-group allocations, ``round_allocations[r][g]`` shots.
    round_allocations: List[List[int]] = field(default_factory=list)

    @property
    def shots_per_group(self) -> List[int]:
        return [group.shots for group in self.groups]

    def __repr__(self):
        return (
            f"CollectionResult(value={self.value:.6f}, stderr={self.stderr:.2e}, "
            f"shots={self.shots_used}, rounds={self.rounds})"
        )


def allocate_shots(budget: int, weights: Sequence[float]) -> List[int]:
    """Split ``budget`` shots proportionally to ``weights``, exactly.

    Largest-remainder rounding: the returned allocations sum to ``budget``
    bit-exactly, and any group whose weight is at least the mean weight
    receives at least the uniform share ``budget // len(weights)`` (its quota
    is ≥ ``budget / n`` and rounding down costs less than one shot).
    Non-positive or degenerate weights fall back to a uniform split.
    """
    num_groups = len(weights)
    if num_groups == 0:
        raise VQEError("cannot allocate shots over zero measurement groups")
    if budget <= 0:
        return [0] * num_groups
    cleaned = [max(0.0, float(w)) for w in weights]
    total_weight = sum(cleaned)
    if total_weight <= 0.0:
        cleaned = [1.0] * num_groups
        total_weight = float(num_groups)
    quotas = [budget * w / total_weight for w in cleaned]
    allocations = [int(np.floor(q)) for q in quotas]
    remainder = budget - sum(allocations)
    by_fraction = sorted(
        range(num_groups), key=lambda i: (-(quotas[i] - allocations[i]), i)
    )
    for index in by_fraction[:remainder]:
        allocations[index] += 1
    return allocations


def group_distribution_moments(
    probabilities: np.ndarray, group: MeasurementGroup, num_bits: int
) -> tuple:
    """(mean, single-shot variance) of the group observable under a sampled
    outcome distribution.

    ``g(b) = Σ_terms coeff · sign(b)`` is the value one shot contributes; the
    plug-in variance is ``E[g²] − E[g]²`` over the distribution.  Clamped at
    zero — mitigated quasi-distributions can push the plug-in estimate
    slightly negative.
    """
    mean = 0.0
    second = 0.0
    for index, probability in enumerate(probabilities):
        if probability == 0.0:
            continue
        bitstring = format(index, f"0{num_bits}b")
        g = 0.0
        for pauli, coeff in group.terms:
            g += coeff * pauli.expectation_sign(bitstring)
        mean += probability * g
        second += probability * g * g
    return float(mean), float(max(second - mean * mean, 0.0))


class AdaptiveShotCollector:
    """Variance-adaptive streaming shot collection for one prepared state.

    Parameters
    ----------
    estimator:
        The :class:`~repro.vqe.expectation.ExpectationEstimator` measurements
        route through (its engine, noise model and mitigator apply).
    scheduled:
        The prepared (measured) schedule whose ``<H>`` is being collected.
    hamiltonian:
        The observable; its qubit-wise-commuting groups are the allocation
        targets.
    total_shots:
        The overall shot budget.  Exactly this many shots are allocated
        unless ``target_stderr`` stops collection early.
    round_shots:
        Budget per streaming round.  Defaults to ``max(32 · num_groups,
        total_shots // 8)`` so the warm-up measures every group and the
        allocation adapts several times within the budget.
    target_stderr:
        Optional early-stop threshold on the estimated standard error of the
        total.
    seed:
        Base seed for the per-(round, group) sampling seeds.  Defaults to the
        estimator engine's seed (or 0), keeping collection reproducible.
    priority:
        Slot-scheduler priority for the submitted rounds.
    """

    def __init__(
        self,
        estimator: ExpectationEstimator,
        scheduled: ScheduledCircuit,
        hamiltonian: PauliSum,
        total_shots: int,
        round_shots: Optional[int] = None,
        target_stderr: Optional[float] = None,
        seed: Optional[int] = None,
        priority: int = 0,
    ):
        if total_shots < 1:
            raise VQEError("total_shots must be at least 1")
        self.estimator = estimator
        self.scheduled = scheduled
        self.hamiltonian = hamiltonian
        self.total_shots = int(total_shots)
        self.groups = hamiltonian.group_commuting()
        if not self.groups:
            raise VQEError("the Hamiltonian has no non-identity terms to measure")
        if round_shots is None:
            round_shots = max(32 * len(self.groups), self.total_shots // 8)
        if round_shots < len(self.groups):
            raise VQEError(
                f"round_shots={round_shots} cannot cover {len(self.groups)} measurement groups"
            )
        self.round_shots = int(round_shots)
        self.target_stderr = target_stderr
        if seed is None:
            seed = getattr(estimator.engine, "seed", None)
        self.seed = 0 if seed is None else int(seed)
        self.priority = int(priority)
        #: One single-group observable per measurement group; the estimator
        #: measures each with its own shot count and seed.
        self._observables = []
        for group in self.groups:
            observable = PauliSum({}, num_qubits=hamiltonian.num_qubits)
            for pauli, coeff in group.terms:
                observable.add_term(pauli, coeff)
            self._observables.append(observable)

    # ------------------------------------------------------------------
    def _stderr(self, estimates: Sequence[GroupEstimate]) -> float:
        variance = 0.0
        for estimate in estimates:
            if estimate.shots > 0:
                variance += estimate.variance / estimate.shots
        return float(np.sqrt(variance))

    def collect(self) -> CollectionResult:
        """Run the streaming collection until budget exhaustion or target."""
        estimates = [GroupEstimate(basis=group.basis) for group in self.groups]
        round_allocations: List[List[int]] = []
        shots_used = 0
        circuits_executed = 0
        round_index = 0
        while shots_used < self.total_shots:
            budget = min(self.round_shots, self.total_shots - shots_used)
            if round_index == 0:
                # Warm-up: no variance information yet — uniform split.
                allocations = allocate_shots(budget, [1.0] * len(self.groups))
            else:
                # Neyman allocation s_i ∝ σ_i from the running estimates.
                allocations = allocate_shots(
                    budget, [np.sqrt(e.variance) for e in estimates]
                )
            # One submission per group with a non-zero allocation, all in
            # flight together: the round streams through the scheduler,
            # and the schedule body is engine-cached after the first group.
            submitted = []
            for group_index, shots in enumerate(allocations):
                if shots == 0:
                    continue
                seed = derive_seed(
                    self.seed, "shot-collector", str(round_index), str(group_index)
                )
                futures = self.estimator.submit_batch(
                    [self.scheduled],
                    self._observables[group_index],
                    shots=shots,
                    seed=seed,
                    priority=self.priority,
                )
                submitted.append((group_index, shots, futures[0]))
            for group_index, shots, future in submitted:
                result = future.result()
                value, variance = group_distribution_moments(
                    result.distributions[0],
                    self.groups[group_index],
                    self.hamiltonian.num_qubits,
                )
                estimates[group_index].fold(shots, value, variance)
                circuits_executed += 1
            round_allocations.append(allocations)
            shots_used += budget
            round_index += 1
            if self.target_stderr is not None and self._stderr(estimates) <= self.target_stderr:
                break
        total = self.hamiltonian.identity_coefficient() + sum(e.value for e in estimates)
        return CollectionResult(
            value=float(total),
            stderr=self._stderr(estimates),
            shots_used=shots_used,
            rounds=round_index,
            circuits_executed=circuits_executed,
            groups=estimates,
            round_allocations=round_allocations,
        )
