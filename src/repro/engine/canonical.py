"""The order every schedule is simulated and keyed in.

:meth:`NoisySimulator.prepare <repro.simulators.noisy_simulator.NoisySimulator.prepare>`
walks a schedule in time order, :meth:`ScheduledCircuit.sorted_instructions`:
by start time, measurements after same-start gates, and same-start
instructions in their ``timed_instructions`` order, which is therefore part
of the schedule's content.  The hash chains, segment keys, shard chains and
scheduler conflict keys digest the same order, so a shared chain prefix
always names an evolution prefix the simulator replays bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..transpiler.scheduling import ScheduledCircuit, TimedInstruction

__all__ = ["canonical_order"]


def canonical_order(scheduled: "ScheduledCircuit") -> List["TimedInstruction"]:
    """The processing order of ``scheduled``: ``scheduled.sorted_instructions()``."""
    return scheduled.sorted_instructions()
