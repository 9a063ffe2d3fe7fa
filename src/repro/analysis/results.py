"""Result records and the paper's comparison metrics.

Fig. 12 reports VQE energy *relative to the MEM baseline* (higher is better,
both energies being negative), and Fig. 13 reports energy *relative to the
simulated optimal* (a percentage of the exact ground energy recovered).  The
helpers here centralise those definitions so benchmarks, tests and examples
agree on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..exceptions import ReproError
from ..metrics.fidelity import geometric_mean

#: Floor used when a (noisy) energy has the wrong sign: the paper's metric is
#: a ratio of negative energies, so a non-negative estimate is treated as
#: recovering essentially none of the optimum.
_FRACTION_FLOOR = 1e-3


def fraction_of_optimal(measured_energy: float, optimal_energy: float) -> float:
    """Fraction of the exact ground energy recovered (Fig. 13's y-axis).

    Both energies are negative for the paper's problems; the fraction is
    clipped to ``[_FRACTION_FLOOR, 1]`` so that ratios of fractions stay
    meaningful even when noise pushes an estimate above zero.
    """
    if optimal_energy >= 0:
        raise ReproError("the exact ground energy is expected to be negative")
    fraction = measured_energy / optimal_energy
    return float(min(max(fraction, _FRACTION_FLOOR), 1.0))


def improvement_over_baseline(
    measured_energy: float, baseline_energy: float, optimal_energy: float
) -> float:
    """Fig. 12's metric: how much closer to the optimum than the baseline.

    Defined as the ratio of recovered fractions of the optimal energy, which
    equals the ratio of (negative) energies whenever both estimates have the
    correct sign and degrades gracefully otherwise.
    """
    measured_fraction = fraction_of_optimal(measured_energy, optimal_energy)
    baseline_fraction = fraction_of_optimal(baseline_energy, optimal_energy)
    return float(measured_fraction / baseline_fraction)


@dataclass
class StrategyOutcome:
    """Measured energy of one mitigation strategy on one application."""

    strategy: str
    energy: float
    num_evaluations: int = 0
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class ApplicationResult:
    """All strategy outcomes for one VQA application."""

    application: str
    optimal_energy: float
    outcomes: Dict[str, StrategyOutcome] = field(default_factory=dict)

    def add(self, outcome: StrategyOutcome) -> None:
        self.outcomes[outcome.strategy] = outcome

    def energy(self, strategy: str) -> float:
        if strategy not in self.outcomes:
            raise ReproError(f"no outcome recorded for strategy '{strategy}'")
        return self.outcomes[strategy].energy

    def fraction_of_optimal(self, strategy: str) -> float:
        return fraction_of_optimal(self.energy(strategy), self.optimal_energy)

    def improvement(self, strategy: str, baseline: str = "mem") -> float:
        return improvement_over_baseline(
            self.energy(strategy), self.energy(baseline), self.optimal_energy
        )

    def strategies(self) -> List[str]:
        return sorted(self.outcomes)


@dataclass
class EvaluationSummary:
    """Cross-application aggregation (the paper's "Geo Mean" column)."""

    results: List[ApplicationResult] = field(default_factory=list)

    def add(self, result: ApplicationResult) -> None:
        self.results.append(result)

    def applications(self) -> List[str]:
        return [r.application for r in self.results]

    def improvements(self, strategy: str, baseline: str = "mem") -> Dict[str, float]:
        return {r.application: r.improvement(strategy, baseline) for r in self.results}

    def geomean_improvement(self, strategy: str, baseline: str = "mem") -> float:
        values = list(self.improvements(strategy, baseline).values())
        return geometric_mean(values)

    def fractions_of_optimal(self, strategy: str) -> Dict[str, float]:
        return {r.application: r.fraction_of_optimal(strategy) for r in self.results}

    def table(self, strategies: Sequence[str], baseline: str = "mem") -> str:
        """A printable Fig. 12-style table of improvements plus the geomean row."""
        header = ["application"] + list(strategies)
        rows = [header]
        for result in self.results:
            rows.append(
                [result.application]
                + [f"{result.improvement(s, baseline):.2f}" for s in strategies]
            )
        rows.append(
            ["GeoMean"] + [f"{self.geomean_improvement(s, baseline):.2f}" for s in strategies]
        )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
        ]
        return "\n".join(lines)
