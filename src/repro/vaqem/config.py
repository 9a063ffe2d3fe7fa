"""Configuration objects for the VAQEM tuning framework."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..exceptions import EngineError, VAQEMError
from ..mitigation.dd import DDConfig
from ..mitigation.gate_scheduling import GSConfig


@dataclass(frozen=True)
class WindowConfiguration:
    """The tuned mitigation configuration of one idle window."""

    window_index: int
    dd: Optional[DDConfig] = None
    gs: Optional[GSConfig] = None

    def is_baseline(self) -> bool:
        dd_off = self.dd is None or self.dd.num_sequences == 0
        gs_off = self.gs is None or self.gs.position == 1.0
        return dd_off and gs_off


@dataclass
class TuningBudget:
    """How finely each window is swept (paper §VI-C: resolution is bounded by
    the available execution budget on the cloud)."""

    #: Number of DD sequence counts evaluated per window (spread between 0 and
    #: the maximum number that fits).
    dd_resolution: int = 6
    #: Number of gate positions evaluated per window (spread over [0, 1]).
    gs_resolution: int = 5
    #: Cap on the number of windows tuned (largest windows first); ``None``
    #: tunes every window, matching the paper.
    max_windows: Optional[int] = None

    def __post_init__(self):
        if self.dd_resolution < 2:
            raise VAQEMError("dd_resolution must be at least 2 (baseline + one candidate)")
        if self.gs_resolution < 2:
            raise VAQEMError("gs_resolution must be at least 2")
        if self.max_windows is not None and self.max_windows < 1:
            raise VAQEMError("max_windows must be positive when given")


@dataclass
class VAQEMConfig:
    """Top-level configuration of a VAQEM run (the strategy name picks the
    tuned techniques and DD sequence)."""

    #: Sweep budget per window.
    budget: TuningBudget = field(default_factory=TuningBudget)
    #: Shots per objective evaluation (None = exact expectation, i.e. the
    #: infinite-shot limit; the paper uses shot-based estimates on hardware).
    shots: Optional[int] = None
    #: Whether measurement error mitigation is applied (the paper's baseline
    #: always includes MEM; it is orthogonal to VAQEM).
    use_mem: bool = True
    #: SPSA iterations for the angle-tuning stage.
    angle_tuning_iterations: int = 200
    #: Random seed for the whole flow.
    seed: int = 11
    #: How :meth:`VAQEMPipeline.run <repro.vaqem.framework.VAQEMPipeline.run>`
    #: evaluates its strategies: ``None`` or ``"serial"`` one after another
    #: on the pipeline's engine, ``"process"`` one worker-process task per
    #: strategy, each on a fresh engine, with outcomes bit-identical to a
    #: serial run (:mod:`repro.engine.parallel`).  A run with one strategy
    #: runs serially.  After a process run the pipeline engine's caches are
    #: cold (the strategies ran elsewhere); its stats hold the workers'
    #: counters.
    parallelism: Optional[str] = None
    #: Worker processes of a process run (``None`` = one per core; never
    #: more than the strategies).
    max_workers: Optional[int] = None

    def __post_init__(self):
        from ..engine.parallel import resolve_parallelism

        try:
            resolve_parallelism(self.parallelism, self.max_workers, 0)
        except EngineError as error:
            raise VAQEMError(str(error)) from error
