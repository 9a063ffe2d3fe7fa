"""Idle-window analysis of scheduled circuits.

An *idle window* is a maximal interval during a qubit's runtime (first gate to
measurement) in which no instruction acts on it.  Idle windows are where
decoherence and coherent phase errors accumulate, and they are the insertion
points for the two mitigation techniques VAQEM tunes (DD sequences and
single-qubit gate rescheduling).  Table I of the paper reports the number of
idle windows targeted per benchmark; that count is produced by
:func:`find_idle_windows` with the same minimum-duration filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .scheduling import ScheduledCircuit, TimedInstruction


@dataclass(frozen=True)
class IdleWindow:
    """A contiguous idle interval on one circuit position (qubit)."""

    index: int
    position: int
    physical_qubit: int
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def __repr__(self):
        return (
            f"IdleWindow(#{self.index}, q{self.position}->phys{self.physical_qubit}, "
            f"[{self.start_ns:.1f}, {self.end_ns:.1f}]ns, {self.duration_ns:.1f}ns)"
        )


def _busy_intervals(scheduled: ScheduledCircuit, position: int) -> List[Tuple[float, float]]:
    intervals = [
        (t.start_ns, t.end_ns)
        for t in scheduled.instructions_on(position)
        if t.name not in ("barrier",) and t.duration_ns > 0
    ]
    zero_duration = [
        (t.start_ns, t.start_ns)
        for t in scheduled.instructions_on(position)
        if t.name not in ("barrier",) and t.duration_ns == 0
    ]
    return sorted(intervals + zero_duration)


def find_idle_windows(
    scheduled: ScheduledCircuit,
    min_duration_ns: Optional[float] = None,
    include_pre_runtime: bool = False,
) -> List[IdleWindow]:
    """Locate idle windows on every qubit of a scheduled circuit.

    Parameters
    ----------
    scheduled:
        The scheduled circuit to analyse.
    min_duration_ns:
        Windows shorter than this are ignored (too short to host even one DD
        pulse pair).  Defaults to twice the device's single-qubit gate time.
    include_pre_runtime:
        Whether to report the interval between circuit start and a qubit's
        first gate.  The paper does not mitigate that region (the qubit is
        still in |0> and ALAP already protects it), so the default is False.
    """
    if min_duration_ns is None:
        min_duration_ns = 2.0 * scheduled.device.single_qubit_gate.duration_ns

    windows: List[IdleWindow] = []
    counter = 0
    for position in range(scheduled.num_qubits):
        runtime_start, runtime_end = scheduled.qubit_runtime(position)
        if runtime_end <= runtime_start:
            continue
        busy = _busy_intervals(scheduled, position)
        busy = [iv for iv in busy if iv[0] < runtime_end]
        cursor = 0.0 if include_pre_runtime else runtime_start
        for start, end in busy:
            if start - cursor >= min_duration_ns:
                windows.append(
                    IdleWindow(
                        index=counter,
                        position=position,
                        physical_qubit=scheduled.physical_qubit(position),
                        start_ns=cursor,
                        end_ns=start,
                    )
                )
                counter += 1
            cursor = max(cursor, end)
        if runtime_end - cursor >= min_duration_ns:
            windows.append(
                IdleWindow(
                    index=counter,
                    position=position,
                    physical_qubit=scheduled.physical_qubit(position),
                    start_ns=cursor,
                    end_ns=runtime_end,
                )
            )
            counter += 1
    return windows


def total_idle_time(scheduled: ScheduledCircuit, min_duration_ns: float = 0.0) -> float:
    """Sum of idle-window durations across all qubits (ns)."""
    return sum(w.duration_ns for w in find_idle_windows(scheduled, min_duration_ns))


def windows_by_qubit(windows: Sequence[IdleWindow]) -> Dict[int, List[IdleWindow]]:
    """Group idle windows by circuit position."""
    grouped: Dict[int, List[IdleWindow]] = {}
    for window in windows:
        grouped.setdefault(window.position, []).append(window)
    for group in grouped.values():
        group.sort(key=lambda w: w.start_ns)
    return grouped


def adjacent_single_qubit_gate(
    scheduled: ScheduledCircuit, window: IdleWindow, tolerance_ns: float = 1.0
) -> Optional[TimedInstruction]:
    """The movable single-qubit gate adjacent to an idle window, if any.

    ALAP scheduling leaves single-qubit gates immediately *after* their idle
    slack, so the primary candidate is the non-virtual single-qubit gate whose
    start coincides with the window end; failing that, the gate ending at the
    window start.  Virtual gates (rz) take no time and cannot refocus anything,
    so they are never candidates.
    """
    candidates = [
        t
        for t in scheduled.instructions_on(window.position)
        if len(t.qubits) == 1 and t.name in ("x", "sx", "y") and t.duration_ns > 0
    ]
    for timed in candidates:
        if abs(timed.start_ns - window.end_ns) <= tolerance_ns:
            return timed
    for timed in candidates:
        if abs(timed.end_ns - window.start_ns) <= tolerance_ns:
            return timed
    return None
