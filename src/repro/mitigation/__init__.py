"""Error-mitigation techniques: DD insertion, gate scheduling and MEM."""

from .dd import (
    DD_SEQUENCES,
    DDConfig,
    apply_dd_configuration,
    insert_dd_sequences,
    max_sequences_in_window,
    uniform_dd,
)
from .gate_scheduling import (
    GSConfig,
    apply_gs_configuration,
    movable_gate,
    position_sweep_values,
    reschedule_gate,
    tunable_windows,
)
from .mem import MeasurementMitigator

__all__ = [
    "DD_SEQUENCES",
    "DDConfig",
    "insert_dd_sequences",
    "apply_dd_configuration",
    "uniform_dd",
    "max_sequences_in_window",
    "GSConfig",
    "reschedule_gate",
    "apply_gs_configuration",
    "movable_gate",
    "tunable_windows",
    "position_sweep_values",
    "MeasurementMitigator",
]
