"""Schedule-aware noisy density-matrix simulation.

This simulator plays the role of the quantum machine in the reproduction: it
walks a :class:`~repro.transpiler.scheduling.ScheduledCircuit` in time order,
applying each gate as one channel — its unitary followed by its noise
channels, composed once per distinct gate by the noise model
(:meth:`~repro.simulators.noise_model.NoiseModel.gate_step`) — and, crucially
for idle-time error mitigation, applying idle noise (relaxation, coherent
detuning phase, ZZ crosstalk with idle neighbours) for every gap a qubit
spends doing nothing.  Because the coherent idle errors are applied at the
times they physically occur, echo pulses and DD sequences inserted into idle
windows refocus them *emergently*, with no special-casing in the simulator.

Execution is factored into a resumable *cursor* API so that the execution
engine (:mod:`repro.engine`) can checkpoint the evolution at instruction
boundaries and resume a later schedule from a shared prefix:

* :meth:`NoisySimulator.prepare` derives the per-schedule lookup tables,
* :meth:`NoisySimulator.begin` produces the initial :class:`EvolutionCursor`,
* :meth:`NoisySimulator.advance` processes instructions up to a stop index.

:meth:`NoisySimulator.run` composes the three and is bit-identical to running
the schedule in one sweep; a cursor resumed from a checkpoint of an identical
prefix is bit-identical too, because processing an instruction only consults
schedule content at or before its start time.

The processing order is :meth:`ScheduledCircuit.sorted_instructions`, which
keeps same-start instructions in their listed order; the engine layer's
content keys digest the same order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..transpiler.scheduling import ScheduledCircuit, TimedInstruction
from .density_matrix import DensityMatrix
from .noise_model import ChannelOp, NoiseModel
from .readout import apply_readout_error, probabilities_to_counts


@dataclass
class SimOp:
    """One state-space operation of a schedule's op stream: a channel on
    circuit ``positions``.

    The channel is an idle or measurement-prelude noise channel, or a whole
    gate step (unitary and gate noise in one channel).  ``index`` is the
    position of the originating instruction in the context's processing
    order — backends use it to align work (e.g. fusion boundaries) to
    instruction boundaries deterministically.
    """

    channel: ChannelOp
    positions: Tuple[int, ...]
    index: int


@dataclass
class ScheduleContext:
    """Per-schedule lookup tables shared by every cursor over that schedule."""

    ordered: List[TimedInstruction]
    busy: Dict[int, List[Tuple[float, float]]]
    #: Per position, the running maximum of ``busy``'s end times: where an
    #: idle-overlap scan can start (see :meth:`NoisySimulator._idle_overlap`).
    busy_reach: Dict[int, List[float]]
    neighbors: Dict[int, List[int]]
    initial_last_time: Dict[int, float]
    #: Circuit position of each physical qubit in the layout.
    positions: Dict[int, int]


class EvolutionCursor:
    """Mid-schedule simulation state: density matrix plus idle bookkeeping.

    ``next_index`` points at the next entry of the context's ``ordered`` list
    to process.  Cursors are cheap to copy (the density matrix dominates), so
    the engine snapshots them at instruction boundaries for prefix reuse.
    """

    __slots__ = ("state", "last_time", "next_index")

    def __init__(self, state: DensityMatrix, last_time: Dict[int, float], next_index: int = 0):
        self.state = state
        self.last_time = last_time
        self.next_index = next_index

    def copy(self) -> "EvolutionCursor":
        return EvolutionCursor(self.state.copy(), dict(self.last_time), self.next_index)

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint (used by the engine's snapshot budget)."""
        return int(self.state.data.nbytes)


class NoisySimulator:
    """Density-matrix simulator driven by a scheduled circuit and a noise model."""

    def __init__(self, noise_model: NoiseModel, seed: Optional[int] = None):
        self.noise_model = noise_model
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Core evolution
    # ------------------------------------------------------------------
    def prepare(self, scheduled: ScheduledCircuit) -> ScheduleContext:
        """Build the per-schedule lookup tables used while stepping.

        ``context.ordered`` is the simulator's processing order (time order)
        and is what the engine layer's schedule hash chains digest, so chain
        prefixes always identify exactly the instruction sequence
        :meth:`advance` replays.
        """
        if scheduled.num_qubits > 10:
            raise SimulationError("density-matrix simulation is limited to 10 qubits")
        ordered = scheduled.sorted_instructions()
        # Idle tracking starts at each qubit's first activity, since noise on
        # |0> before the runtime begins has no observable effect.
        initial_last_time: Dict[int, float] = {}
        for position in range(scheduled.num_qubits):
            ops = [t for t in ordered if position in t.qubits and t.name != "barrier"]
            initial_last_time[position] = min((t.start_ns for t in ops), default=0.0)
        positions = {p: i for i, p in enumerate(scheduled.physical_qubits)}
        busy = self._busy_intervals(scheduled)
        return ScheduleContext(
            ordered=ordered,
            busy=busy,
            busy_reach={
                q: list(accumulate((b_end for _, b_end in spans), max))
                for q, spans in busy.items()
            },
            neighbors=self._coupled_positions(scheduled, positions),
            initial_last_time=initial_last_time,
            positions=positions,
        )

    def begin(
        self, scheduled: ScheduledCircuit, context: Optional[ScheduleContext] = None
    ) -> EvolutionCursor:
        """The cursor at time zero (|0...0> density matrix, nothing processed)."""
        context = context or self.prepare(scheduled)
        return EvolutionCursor(
            DensityMatrix(scheduled.num_qubits), dict(context.initial_last_time), 0
        )

    def advance(
        self,
        scheduled: ScheduledCircuit,
        cursor: EvolutionCursor,
        context: Optional[ScheduleContext] = None,
        stop_index: Optional[int] = None,
    ) -> EvolutionCursor:
        """Process instructions ``cursor.next_index .. stop_index`` in place.

        Measurement instructions contribute their pre-readout relaxation but
        no collapse; sampling happens in :meth:`probabilities` / :meth:`counts`.
        """
        context = context or self.prepare(scheduled)
        stop = len(context.ordered) if stop_index is None else min(stop_index, len(context.ordered))
        state = cursor.state
        for op in self.schedule_ops(
            scheduled, context, cursor.last_time, cursor.next_index, stop
        ):
            state.apply_superop(op.channel.superop, op.positions)
        cursor.next_index = stop
        return cursor

    def schedule_ops(
        self,
        scheduled: ScheduledCircuit,
        context: ScheduleContext,
        last_time: Dict[int, float],
        start: int,
        stop: int,
    ):
        """Yield the :class:`SimOp` stream of instructions ``start .. stop``.

        This is *the* definition of the schedule's operator sequence: the
        dense path (:meth:`advance`) and the PTM backend
        (:class:`~repro.simulators.ptm.PTMEvolver`) both consume it, so they
        apply the identical operators in the identical order.  ``last_time``
        is mutated in place as instructions stream out (op payloads never
        depend on simulation state, so consumers may buffer ops — e.g. for
        fusion — without changing the stream).
        """
        noise = self.noise_model
        for index in range(start, stop):
            timed = context.ordered[index]
            name = timed.name
            if name == "barrier":
                continue
            for position in timed.qubits:
                yield from self._idle_ops(
                    scheduled, context, position, last_time[position], timed.start_ns, index
                )
            if name == "measure":
                for op in noise.measurement_prelude_channels(scheduled.physical_qubit(timed.qubits[0])):
                    yield SimOp(op, self._map_positions(context, op.qubits, timed.qubits), index)
                last_time[timed.qubits[0]] = timed.end_ns
                continue
            if name not in ("id", "delay"):
                physical = tuple(scheduled.physical_qubit(q) for q in timed.qubits)
                step = noise.gate_step(name, physical, timed.instruction.gate.matrix())
                yield SimOp(step, tuple(timed.qubits), index)
            for position in timed.qubits:
                last_time[position] = timed.end_ns

    def run(self, scheduled: ScheduledCircuit) -> DensityMatrix:
        """Evolve the density matrix through the full schedule."""
        context = self.prepare(scheduled)
        cursor = self.begin(scheduled, context)
        self.advance(scheduled, cursor, context)
        return cursor.state

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _busy_intervals(scheduled: ScheduledCircuit) -> Dict[int, List[Tuple[float, float]]]:
        intervals: Dict[int, List[Tuple[float, float]]] = {
            q: [] for q in range(scheduled.num_qubits)
        }
        for timed in scheduled.timed_instructions:
            if timed.name == "barrier" or timed.duration_ns <= 0:
                continue
            for q in timed.qubits:
                intervals[q].append((timed.start_ns, timed.end_ns))
        for q in intervals:
            intervals[q].sort()
        return intervals

    @staticmethod
    def _coupled_positions(
        scheduled: ScheduledCircuit, positions: Dict[int, int]
    ) -> Dict[int, List[int]]:
        """Circuit positions coupled to each position on the device;
        ``positions`` maps physical qubits to positions."""
        device = scheduled.device
        coupled: Dict[int, List[int]] = {q: [] for q in range(scheduled.num_qubits)}
        for position, physical in enumerate(scheduled.physical_qubits):
            for neighbor in device.neighbors(physical):
                if neighbor in positions:
                    coupled[position].append(positions[neighbor])
        return coupled

    @staticmethod
    def _idle_overlap(
        busy: List[Tuple[float, float]], reach: List[float], start: float, end: float
    ) -> float:
        """Length of [start, end] during which a qubit with the given busy list idles.

        ``busy`` is sorted by start time and ``reach`` holds the running
        maximum of its end times.  The scan starts at the first interval whose
        reach exceeds ``start`` (every earlier one ends by ``start``) and
        stops at the first one starting at or beyond ``end``: the skipped
        intervals contribute exactly zero, so the sum is the full scan's,
        bit for bit.
        """
        if end <= start:
            return 0.0
        occupied = 0.0
        for index in range(bisect_right(reach, start), len(busy)):
            b_start, b_end = busy[index]
            if b_start >= end:
                break
            lo = max(start, b_start)
            hi = min(end, b_end)
            if hi > lo:
                occupied += hi - lo
        return (end - start) - occupied

    @classmethod
    def idle_partners(
        cls, context: ScheduleContext, position: int, start: float, end: float
    ) -> Optional[Tuple[int, ...]]:
        """The idle-gap rule: what idling ``position`` over ``[start, end]`` involves.

        ``None`` when the gap is at most 1e-9 ns, which applies no idle noise.
        Otherwise the coupled positions that idle through at least half of
        the gap, in coupling order: the ZZ-crosstalk partners handed to the
        noise model's idle channels.  :meth:`schedule_ops` and the segment keys
        (:func:`repro.engine.segments.schedule_segment_keys`) both call this,
        so the keys always describe the channels the walk applies.
        """
        if end - start <= 1e-9:
            return None
        busy = context.busy
        reach = context.busy_reach
        return tuple(
            other
            for other in context.neighbors[position]
            if cls._idle_overlap(busy[other], reach[other], start, end) >= 0.5 * (end - start)
        )

    def _idle_ops(
        self,
        scheduled: ScheduledCircuit,
        context: ScheduleContext,
        position: int,
        start: float,
        end: float,
        index: int,
    ):
        partners = self.idle_partners(context, position, start, end)
        if partners is None:
            return
        physical = scheduled.physical_qubit(position)
        idle_neighbors = [scheduled.physical_qubit(other) for other in partners]
        ops = self.noise_model.idle_channels(physical, start, end, idle_neighbors)
        for op in ops:
            if len(op.qubits) == 1:
                yield SimOp(op, (position,), index)
            else:
                # Two-qubit (ZZ) channel: map physical qubits back to positions.
                other_position = partners[idle_neighbors.index(op.qubits[1])]
                yield SimOp(op, (position, other_position), index)

    @staticmethod
    def _map_positions(context: ScheduleContext, op_qubits, fallback_positions) -> Tuple[int, ...]:
        mapping = context.positions
        try:
            return tuple(mapping[p] for p in op_qubits)
        except KeyError:
            return tuple(fallback_positions)

    # ------------------------------------------------------------------
    # Measurement interfaces
    # ------------------------------------------------------------------
    def measured_probabilities(self, scheduled: ScheduledCircuit) -> Tuple[np.ndarray, List[int]]:
        """Outcome distribution over classical bits, with readout error applied.

        Returns ``(probabilities, clbit_order)`` where bit *i* of an outcome
        index corresponds to ``clbit_order[i]``.
        """
        measured = scheduled.measured_positions()
        if not measured:
            raise SimulationError("the scheduled circuit contains no measurements")
        state = self.run(scheduled)
        return state_measured_probabilities(state, scheduled, self.noise_model)

    def counts(
        self,
        scheduled: ScheduledCircuit,
        shots: int = 4096,
        exact: bool = False,
        seed: Optional[int] = None,
    ) -> Dict[str, int]:
        """Sampled (or exact expected) measurement counts keyed by bitstring.

        An explicit ``seed`` makes the sampling deterministic regardless of how
        many times the simulator's own generator has been consumed — the same
        contract :meth:`StatevectorSimulator.counts` honours.
        """
        probs, _ = self.measured_probabilities(scheduled)
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        return probabilities_to_counts(probs, shots, rng=rng, exact=exact)

    def density_matrix(self, scheduled: ScheduledCircuit) -> DensityMatrix:
        """Alias of :meth:`run` for API clarity."""
        return self.run(scheduled)


def _segment_last_time_updates(timed: TimedInstruction) -> Tuple[Tuple[int, float], ...]:
    """The ``last_time`` updates processing ``timed`` applies, as replay data.

    Mirrors :meth:`NoisySimulator.schedule_ops` exactly: barriers update
    nothing, a measure advances only its measured position, every other
    instruction advances all of its positions to its end time.
    """
    if timed.name == "barrier":
        return ()
    if timed.name == "measure":
        return ((timed.qubits[0], timed.end_ns),)
    return tuple((position, timed.end_ns) for position in timed.qubits)


def state_measured_probabilities(
    state: DensityMatrix, scheduled: ScheduledCircuit, noise_model: NoiseModel
) -> Tuple[np.ndarray, List[int]]:
    """Readout-error-distorted outcome distribution of a pre-measurement state.

    Shared by :class:`NoisySimulator` and the execution engine (which obtains
    ``state`` from its cache rather than a fresh run).
    """
    measured = scheduled.measured_positions()
    if not measured:
        raise SimulationError("the scheduled circuit contains no measurements")
    measured = sorted(measured, key=lambda pair: pair[1])
    positions = [pos for pos, _ in measured]
    clbits = [cl for _, cl in measured]
    probs = state.marginal_probabilities(positions)
    confusions = [
        noise_model.readout_confusion(scheduled.physical_qubit(pos)) for pos in positions
    ]
    probs = apply_readout_error(probs, confusions)
    return probs, clbits
