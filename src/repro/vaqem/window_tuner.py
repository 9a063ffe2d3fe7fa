"""The independent per-window error-mitigation tuner (paper §VI-C).

Qiskit Runtime cannot tune non-angle parameters and round-tripping every
candidate through the cloud is too slow, so the paper tunes mitigation
features *one idle window at a time*: while one window's configuration is
swept, every other window stays at the baseline; the per-window optima are
then combined.  This is sound because the tuned features only add or move
single-qubit gates inside idle windows, whose cross-window interactions are
negligible (§VI-C).

:class:`IndependentWindowTuner` implements exactly that flow against an
objective that evaluates a batch of schedules and returns one value per
schedule (``[ScheduledCircuit] -> [float]``, lower is better), so it can
minimise a VQE energy (the VAQEM use-case) or maximise a micro-benchmark
fidelity (by passing the negated fidelity).

Each step of a sweep depends on the one before it — the DD candidates sit
on the winning gate position — so :meth:`IndependentWindowTuner.tune`
sweeps one window at a time on the caller's thread.  Each phase of a sweep
is one objective call, so candidates that differ only inside the swept
window share the simulated prefix on a batching engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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

#: ``[ScheduledCircuit] -> [float]``: one objective value per schedule, in
#: input order (see the module docstring).
Objective = Callable[[Sequence[ScheduledCircuit]], Sequence[float]]


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


class IndependentWindowTuner:
    """Tunes DD and/or GS per idle window against a batch objective."""

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
    def _evaluate(self, schedules: List[ScheduledCircuit]) -> List[float]:
        """Evaluate a batch of candidates, counting each as one evaluation."""
        self._evaluations += len(schedules)
        values = [float(value) for value in self.objective(schedules)]
        if len(values) != len(schedules):
            raise VAQEMError("objective returned a mismatched number of values")
        return values

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
        baseline_value = self._evaluate([scheduled])[0]
        records = [
            self._sweep_window(scheduled, window, baseline_value)
            for window in self._select_windows(windows)
        ]

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
            candidate_value = self._evaluate([candidate_schedule])[0]
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
    def _sweep_window(
        self, scheduled: ScheduledCircuit, window: IdleWindow, baseline_value: float
    ) -> WindowSweepRecord:
        """Sweep one window with every other window at baseline.

        When both techniques are enabled they are tuned in a coordinated,
        sequential manner inside the window: the best gate position is
        found first, then DD counts are swept on top of that position and
        on the untouched (ALAP) one.  The techniques can interact, so the
        record keeps whichever combination minimises the objective
        (including "DD only" and "GS only"), weeding destructive
        interactions out automatically.
        """
        record = WindowSweepRecord(window=window)
        record.record(WindowConfiguration(window.index), baseline_value)
        best_gs: Optional[GSConfig] = None
        if self.tune_gate_scheduling and movable_gate(scheduled, window) is not None:
            # Every position is evaluated, including 1.0: the movable gate may
            # originally sit either after the window (ALAP, where 1.0 is a
            # near-duplicate of the baseline) or before it (where 1.0 is a
            # genuinely new placement at the window end).
            configs = [GSConfig(position=position) for position in self._gs_candidates()]
            schedules = [reschedule_gate(scheduled, window, config) for config in configs]
            for config, value in zip(configs, self._evaluate(schedules)):
                record.record(WindowConfiguration(window.index, gs=config), value)
            if record.best is not None:
                best_gs = record.best.gs
        if not self.tune_dd:
            return record
        bases = [(None, scheduled)]
        if best_gs is not None:
            bases.append((best_gs, reschedule_gate(scheduled, window, best_gs)))
        candidates: List[WindowConfiguration] = []
        schedules = []
        for gs_config, base_schedule in bases:
            for count in self._dd_candidates(window, scheduled):
                if count == 0:
                    continue  # baseline already recorded
                dd_config = DDConfig(self.dd_sequence, count)
                candidates.append(WindowConfiguration(window.index, dd=dd_config, gs=gs_config))
                schedules.append(insert_dd_sequences(base_schedule, window, dd_config))
        if candidates:
            for candidate, value in zip(candidates, self._evaluate(schedules)):
                record.record(candidate, value)
        return record

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
