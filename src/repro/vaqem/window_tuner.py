"""The independent per-window error-mitigation tuner (paper §VI-C).

Qiskit Runtime cannot tune non-angle parameters and round-tripping every
candidate through the cloud is too slow, so the paper tunes mitigation
features *one idle window at a time*: while one window's configuration is
swept, every other window stays at the baseline; the per-window optima are
then combined.  This is sound because the tuned features only add or move
single-qubit gates inside idle windows, whose cross-window interactions are
negligible (§VI-C).

:class:`IndependentWindowTuner` implements exactly that flow against an
objective that submits schedules and returns one future per schedule
(``[ScheduledCircuit] -> [future]``; each future resolves to the
schedule's objective value, lower is better), so it can minimise a VQE
energy (the VAQEM use-case) or maximise a micro-benchmark fidelity (by
passing the negated fidelity).  A future is anything with ``.result()``:
an :class:`~repro.engine.futures.EngineFuture` from
:meth:`~repro.vqe.expectation.ExpectationEstimator.submit_batch`, or an
already resolved :class:`concurrent.futures.Future` wrapping a sequential
evaluation.

:meth:`IndependentWindowTuner.tune` pipelines the window sweeps: while
window *N*'s candidates execute on the engine's batch scheduler, the tuner
builds and submits window *N+1*'s candidates, so candidate generation
overlaps execution and process-tier workers never sit idle between
sweeps.  Each sweep is submitted as one batch, so candidates that differ
only inside the swept window share the simulated prefix.  The engine
seeding contract keeps the tuned result independent of this overlap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import VAQEMError
from ..mitigation.dd import DDConfig, apply_dd_configuration, insert_dd_sequences, max_sequences_in_window
from ..mitigation.gate_scheduling import (
    GSConfig,
    apply_gs_configuration,
    movable_gate,
    reschedule_gate,
)
from ..transpiler.idle_windows import IdleWindow
from ..transpiler.scheduling import ScheduledCircuit
from .config import TuningBudget, WindowConfiguration

#: ``[ScheduledCircuit] -> [future]``: one future per schedule, each
#: resolving to the schedule's objective value (see the module docstring).
Objective = Callable[[Sequence[ScheduledCircuit]], Sequence]

#: How many windows may have candidate batches in flight at once.  One
#: window ahead already hides candidate generation entirely; deeper
#: pipelines only add queue memory.
PIPELINE_DEPTH = 2


@dataclass
class WindowSweepRecord:
    """Everything evaluated while tuning one window."""

    window: IdleWindow
    candidates: List[WindowConfiguration] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    best: Optional[WindowConfiguration] = None
    best_value: float = float("inf")

    def record(self, candidate: WindowConfiguration, value: float) -> None:
        self.candidates.append(candidate)
        self.values.append(float(value))
        if value < self.best_value:
            self.best_value = float(value)
            self.best = candidate


@dataclass
class TuningResult:
    """Outcome of tuning every window of a scheduled circuit."""

    baseline_value: float
    tuned_value: float
    tuned_schedule: ScheduledCircuit
    window_records: List[WindowSweepRecord] = field(default_factory=list)
    num_evaluations: int = 0

    @property
    def improvement(self) -> float:
        """Objective improvement (baseline minus tuned; positive is better)."""
        return self.baseline_value - self.tuned_value

    def chosen_configurations(self) -> Dict[int, WindowConfiguration]:
        return {
            record.window.index: record.best
            for record in self.window_records
            if record.best is not None
        }


class _PipelinedWindowSweep:
    """In-flight tuning state of one window: its sweep with all others at baseline.

    When both techniques are enabled they are tuned in a coordinated,
    sequential manner inside the window: the best gate position is found
    first, then DD counts are swept on top of that position (the tuner
    keeps whichever combination minimises the objective, so destructive
    interactions are weeded out automatically).  That is a data dependency
    between two phases: the gate-scheduling (GS) candidates are independent
    of everything, but the DD candidates can only be generated once the GS
    futures resolved.  This object walks one window through ``submit GS ->
    resolve GS -> submit DD -> resolve DD`` while the driver keeps other
    windows' phases in flight around it.
    """

    def __init__(
        self,
        tuner: "IndependentWindowTuner",
        scheduled: ScheduledCircuit,
        window: IdleWindow,
        baseline_value: float,
    ):
        self.tuner = tuner
        self.scheduled = scheduled
        self.window = window
        self.record = WindowSweepRecord(window=window)
        self.record.record(WindowConfiguration(window.index), baseline_value)
        self._pending: List[Tuple[WindowConfiguration, object]] = []
        self._dd_submitted = False

    def submit_first(self) -> None:
        """Build and submit the window's first phase.

        Normally that is the GS sweep; when GS tuning is off (or the window
        has no movable gate) the DD candidates have no dependency to wait
        for, so they are submitted eagerly — a DD-only tuner pipelines
        exactly as well as a combined one.
        """
        tuner = self.tuner
        if tuner.tune_gate_scheduling and movable_gate(self.scheduled, self.window) is not None:
            # Every position is evaluated, including 1.0: the movable gate may
            # originally sit either after the window (ALAP, where 1.0 is a
            # near-duplicate of the baseline) or before it (where 1.0 is a
            # genuinely new placement at the window end).
            configs = [GSConfig(position=position) for position in tuner._gs_candidates()]
            schedules = [reschedule_gate(self.scheduled, self.window, c) for c in configs]
            futures = tuner._submit_candidates(schedules)
            self._pending = [
                (WindowConfiguration(self.window.index, gs=config), future)
                for config, future in zip(configs, futures)
            ]
        else:
            self._dd_submitted = True
            self._submit_dd(None)

    def resolve_next(self) -> bool:
        """Resolve the in-flight phase; returns ``True`` once the window is done.

        Resolving the GS phase submits the DD phase (whose candidates depend
        on the GS winner), so a ``False`` return means freshly-queued work.
        """
        for candidate, future in self._pending:
            self.record.record(candidate, float(future.result()))
        self._pending = []
        if not self._dd_submitted:
            self._dd_submitted = True
            best_gs: Optional[GSConfig] = None
            if self.record.best is not None and self.record.best.gs is not None:
                best_gs = self.record.best.gs
            self._submit_dd(best_gs)
            return not self._pending
        return True

    def _submit_dd(self, best_gs: Optional[GSConfig]) -> None:
        tuner = self.tuner
        if not tuner.tune_dd:
            return
        # Sweep DD counts on top of the best gate position and also on the
        # untouched (ALAP) position: the two techniques can interact, and the
        # coordinated tuning keeps whichever combination wins (including
        # "DD only" and "GS only").
        bases = [(None, self.scheduled)]
        if best_gs is not None:
            bases.append((best_gs, reschedule_gate(self.scheduled, self.window, best_gs)))
        candidates: List[WindowConfiguration] = []
        schedules: List[ScheduledCircuit] = []
        for gs_config, base_schedule in bases:
            for count in tuner._dd_candidates(self.window, self.scheduled):
                if count == 0:
                    continue  # baseline already recorded
                dd_config = DDConfig(tuner.dd_sequence, count)
                candidates.append(
                    WindowConfiguration(self.window.index, dd=dd_config, gs=gs_config)
                )
                schedules.append(insert_dd_sequences(base_schedule, self.window, dd_config))
        if candidates:
            futures = tuner._submit_candidates(schedules)
            self._pending = list(zip(candidates, futures))


class IndependentWindowTuner:
    """Tunes DD and/or GS per idle window against a futures-returning objective."""

    def __init__(
        self,
        objective: Objective,
        tune_gate_scheduling: bool = True,
        tune_dd: bool = True,
        dd_sequence: str = "xy4",
        budget: Optional[TuningBudget] = None,
    ):
        if not (tune_gate_scheduling or tune_dd):
            raise VAQEMError("enable at least one of gate scheduling / DD tuning")
        self.objective = objective
        self.tune_gate_scheduling = tune_gate_scheduling
        self.tune_dd = tune_dd
        self.dd_sequence = dd_sequence
        self.budget = budget or TuningBudget()
        self._evaluations = 0

    # ------------------------------------------------------------------
    def _submit_candidates(self, schedules: List[ScheduledCircuit]) -> List:
        """Submit a sweep's candidates, counting each submission as one
        evaluation (futures always resolve or raise)."""
        self._evaluations += len(schedules)
        futures = list(self.objective(schedules))
        if len(futures) != len(schedules):
            raise VAQEMError("objective returned a mismatched number of futures")
        return futures

    def _evaluate_one(self, scheduled: ScheduledCircuit) -> float:
        """One blocking evaluation: the baseline or a greedy re-validation."""
        return float(self._submit_candidates([scheduled])[0].result())

    def _dd_candidates(self, window: IdleWindow, scheduled: ScheduledCircuit) -> List[int]:
        """DD sequence counts to sweep for a window (always includes 0)."""
        maximum = max_sequences_in_window(window, scheduled, self.dd_sequence)
        if maximum <= 0:
            return [0]
        counts = np.unique(
            np.round(np.linspace(0, maximum, min(self.budget.dd_resolution, maximum + 1))).astype(int)
        )
        return [int(c) for c in counts]

    def _gs_candidates(self) -> List[float]:
        """Gate positions to sweep (always includes the ALAP baseline 1.0)."""
        positions = list(np.linspace(0.0, 1.0, self.budget.gs_resolution))
        if 1.0 not in positions:
            positions.append(1.0)
        return positions

    # ------------------------------------------------------------------
    def _select_windows(self, windows: Sequence[IdleWindow]) -> List[IdleWindow]:
        selected = sorted(windows, key=lambda w: -w.duration_ns)
        if self.budget.max_windows is not None:
            selected = selected[: self.budget.max_windows]
        return sorted(selected, key=lambda w: w.index)

    # ------------------------------------------------------------------
    def tune(self, scheduled: ScheduledCircuit, windows: Sequence[IdleWindow]) -> TuningResult:
        """Tune every (selected) window independently and combine the optima.

        The per-window optima are accumulated greedily in order of their
        individual improvement: a window's configuration is kept only if the
        combined objective keeps improving.  This realises the paper's
        guarantee that "any destructive interference between techniques will
        automatically be weeded out by the tuning logic" — with overlapping
        idle windows on coupled qubits, two individually-beneficial DD
        insertions can partially cancel each other's crosstalk refocusing, and
        the greedy validation drops whichever member of such a pair no longer
        helps.
        """
        self._evaluations = 0
        baseline_value = self._evaluate_one(scheduled)
        records = self._sweep_windows(scheduled, self._select_windows(windows), baseline_value)

        improving = [
            r
            for r in records
            if r.best is not None and not r.best.is_baseline() and r.best_value < baseline_value
        ]
        improving.sort(key=lambda r: r.best_value)

        accepted: Dict[int, WindowConfiguration] = {}
        combined = scheduled
        tuned_value = baseline_value
        for record in improving:
            candidate_configs = dict(accepted)
            candidate_configs[record.window.index] = record.best
            candidate_schedule = self.apply_configurations(scheduled, windows, candidate_configs)
            candidate_value = self._evaluate_one(candidate_schedule)
            if candidate_value < tuned_value:
                accepted = candidate_configs
                combined = candidate_schedule
                tuned_value = candidate_value
        return TuningResult(
            baseline_value=baseline_value,
            tuned_value=tuned_value,
            tuned_schedule=combined,
            window_records=records,
            num_evaluations=self._evaluations,
        )

    # ------------------------------------------------------------------
    def _sweep_windows(
        self,
        scheduled: ScheduledCircuit,
        windows: Sequence[IdleWindow],
        baseline_value: float,
    ) -> List[WindowSweepRecord]:
        """Producer/consumer sweep over the selected windows.

        Up to :data:`PIPELINE_DEPTH` windows have candidate batches queued on
        the objective at once: while the engine's scheduler executes the
        front window's batch, this thread builds (reschedules, inserts DD
        into) and submits the following windows' candidates.  Sweep records
        are collected in window order regardless of completion order.
        (On a shared engine the tuner's own batches stay FIFO — one
        submitter — and deep prefix sharing with its base schedule
        additionally serializes them against lookalike work, while *other*
        frontends' disjoint batches overlap freely; see
        ``docs/scheduler.md``.)
        """
        remaining = deque(windows)
        in_flight: "deque[_PipelinedWindowSweep]" = deque()
        records: List[WindowSweepRecord] = []
        while remaining or in_flight:
            while remaining and len(in_flight) < PIPELINE_DEPTH:
                sweep = _PipelinedWindowSweep(self, scheduled, remaining.popleft(), baseline_value)
                sweep.submit_first()
                in_flight.append(sweep)
            sweep = in_flight[0]
            if sweep.resolve_next():
                records.append(sweep.record)
                in_flight.popleft()
            # A False resolve_next() just queued the window's DD batch; loop
            # around so the pipeline tops up behind it before blocking again.
        return records

    # ------------------------------------------------------------------
    @staticmethod
    def apply_configurations(
        scheduled: ScheduledCircuit,
        windows: Sequence[IdleWindow],
        configurations: Dict[int, WindowConfiguration],
    ) -> ScheduledCircuit:
        """Apply a set of per-window configurations to a schedule."""
        window_by_index = {w.index: w for w in windows}
        gs_configs = {
            index: cfg.gs
            for index, cfg in configurations.items()
            if cfg is not None and cfg.gs is not None
        }
        dd_configs = {
            index: cfg.dd
            for index, cfg in configurations.items()
            if cfg is not None and cfg.dd is not None and cfg.dd.num_sequences > 0
        }
        out = apply_gs_configuration(
            scheduled, [window_by_index[i] for i in gs_configs], gs_configs
        )
        out = apply_dd_configuration(
            out, [window_by_index[i] for i in dd_configs], dd_configs
        )
        return out
