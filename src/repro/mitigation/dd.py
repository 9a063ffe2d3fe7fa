"""Dynamical decoupling (DD) insertion into idle windows.

DD "decouples" an idle qubit from slowly varying environmental noise by
inserting gate sequences whose net action is the identity: ``XX``, ``YY``,
the universal ``XY4 = X Y X Y`` sequence, or ``XY8``.  The open questions the
paper's VAQEM answers variationally are *how many* repetitions of the base
sequence to insert in each idle window (too few leaves coherent error
un-refocused, too many accumulates gate error) and whether a window benefits
from DD at all.

:func:`insert_dd_sequences` operates on a :class:`ScheduledCircuit`: it adds
the pulses of ``num_sequences`` repetitions of the chosen base sequence into
one idle window, spaced as a *periodic* distribution (equal free evolution
between pulses), matching the paper's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..circuits.gates import Gate
from ..exceptions import MitigationError
from ..transpiler.idle_windows import IdleWindow
from ..transpiler.scheduling import ScheduledCircuit

#: Supported base sequences, each a tuple of single-qubit gate names whose
#: product is the identity (up to global phase).
DD_SEQUENCES: Dict[str, Tuple[str, ...]] = {
    "xx": ("x", "x"),
    "yy": ("y", "y"),
    "xy4": ("x", "y", "x", "y"),
    "xy8": ("x", "y", "x", "y", "y", "x", "y", "x"),
}


@dataclass(frozen=True)
class DDConfig:
    """A DD configuration for one idle window."""

    sequence: str = "xy4"
    num_sequences: int = 0

    def __post_init__(self):
        if self.sequence not in DD_SEQUENCES:
            raise MitigationError(
                f"unknown DD sequence '{self.sequence}'; options: {sorted(DD_SEQUENCES)}"
            )
        if self.num_sequences < 0:
            raise MitigationError("num_sequences must be non-negative")

    @property
    def num_pulses(self) -> int:
        return self.num_sequences * len(DD_SEQUENCES[self.sequence])


def max_sequences_in_window(
    window: IdleWindow, scheduled: ScheduledCircuit, sequence: str = "xy4"
) -> int:
    """How many repetitions of ``sequence`` fit in the window (paper's sweep cap)."""
    if sequence not in DD_SEQUENCES:
        raise MitigationError(f"unknown DD sequence '{sequence}'")
    pulse_duration = scheduled.device.single_qubit_gate.duration_ns
    pulses_per_seq = len(DD_SEQUENCES[sequence])
    if pulse_duration <= 0:
        raise MitigationError("device reports a non-positive single-qubit gate duration")
    return int(window.duration_ns // (pulses_per_seq * pulse_duration))


def insert_dd_sequences(
    scheduled: ScheduledCircuit,
    window: IdleWindow,
    config: DDConfig,
) -> ScheduledCircuit:
    """Return a copy of the schedule with DD pulses inserted into ``window``.

    The pulses are placed as a periodic distribution: the window is divided
    into ``num_pulses + 1`` equal free-evolution segments with one pulse after
    each of the first ``num_pulses`` segments.  ``num_sequences=0`` returns an
    unmodified copy (the baseline).
    """
    out = scheduled.copy()
    if config.num_sequences == 0:
        return out
    pulses = DD_SEQUENCES[config.sequence] * config.num_sequences
    pulse_duration = scheduled.device.single_qubit_gate.duration_ns
    total_pulse_time = len(pulses) * pulse_duration
    if total_pulse_time > window.duration_ns + 1e-9:
        raise MitigationError(
            f"{config.num_sequences} x {config.sequence} does not fit in a "
            f"{window.duration_ns:.1f} ns window"
        )
    free_time = window.duration_ns - total_pulse_time
    gap = free_time / (len(pulses) + 1)
    cursor = window.start_ns + gap
    for name in pulses:
        out.insert(Gate(name, 1), window.position, cursor, pulse_duration)
        cursor += pulse_duration + gap
    out.metadata.setdefault("dd_windows", {})
    out.metadata["dd_windows"][window.index] = (config.sequence, config.num_sequences)
    return out


def apply_dd_configuration(
    scheduled: ScheduledCircuit,
    windows: Sequence[IdleWindow],
    configs: Dict[int, DDConfig],
) -> ScheduledCircuit:
    """Apply per-window DD configurations (keyed by window index) in one pass."""
    out = scheduled
    for window in windows:
        config = configs.get(window.index)
        if config is None or config.num_sequences == 0:
            continue
        out = insert_dd_sequences(out, window, config)
    return out


def uniform_dd(
    scheduled: ScheduledCircuit,
    windows: Sequence[IdleWindow],
    sequence: str = "xy4",
    num_sequences: int = 1,
    skip_too_small: bool = True,
) -> ScheduledCircuit:
    """The paper's non-variational DD baseline: the same single round everywhere.

    Windows too small to host the sequence are skipped when
    ``skip_too_small`` is set (otherwise an error is raised).
    """
    out = scheduled
    for window in windows:
        capacity = max_sequences_in_window(window, scheduled, sequence)
        count = min(num_sequences, capacity) if skip_too_small else num_sequences
        if count <= 0:
            continue
        out = insert_dd_sequences(out, window, DDConfig(sequence, count))
    return out
