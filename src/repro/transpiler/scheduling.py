"""Instruction scheduling: assigning start times to every gate.

The scheduler converts a basis-translated, routed circuit into a
:class:`ScheduledCircuit` — a list of :class:`TimedInstruction` with explicit
start times and durations drawn from the device's calibration.  Two policies
are provided:

* **ALAP** (as late as possible) — the compilation default on IBM's stack and
  the paper's baseline.  Gates are pushed toward the end of the circuit so
  qubits stay in |0> as long as possible before their runtime begins.
* **ASAP** (as soon as possible) — used for comparison and by the
  gate-scheduling mitigation sweep.

Explicit ``delay`` instructions occupy their qubit for the requested duration
during scheduling and are then dropped from the timed instruction list; the
time they reserved shows up as an idle gap, which is exactly how the idle
window analysis and the noisy simulator treat unoccupied time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..backends.device import DeviceModel
from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import Gate
from ..exceptions import TranspilerError


@dataclass(frozen=True)
class TimedInstruction:
    """An instruction pinned to a start time (nanoseconds)."""

    instruction: Instruction
    start_ns: float
    duration_ns: float
    #: Memo of :func:`repro.engine.fingerprint.timed_instruction_token`;
    #: derived from the fields, so it stays out of eq, hash and repr.
    _token: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # Pickled schedules (e.g. shipped to process-tier workers) leave the
        # memo behind; it is rebuilt on first use.
        return {**self.__dict__, "_token": None}

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns

    @property
    def name(self) -> str:
        return self.instruction.name

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.instruction.qubits

    def shifted(self, new_start_ns: float) -> "TimedInstruction":
        return replace(self, start_ns=float(new_start_ns))

    def __repr__(self):
        return f"{self.name}{list(self.qubits)}@[{self.start_ns:.1f}, {self.end_ns:.1f}]ns"


@dataclass
class ScheduledCircuit:
    """A fully scheduled circuit bound to physical qubits of a device.

    ``physical_qubits[i]`` is the device qubit that circuit position ``i``
    refers to; all noise lookups go through this mapping.
    """

    num_qubits: int
    num_clbits: int
    device: DeviceModel
    physical_qubits: Tuple[int, ...]
    timed_instructions: List[TimedInstruction] = field(default_factory=list)
    name: str = "scheduled"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.physical_qubits) != self.num_qubits:
            raise TranspilerError("physical_qubits must have one entry per circuit qubit")

    # -- basic queries ------------------------------------------------------
    @property
    def duration_ns(self) -> float:
        ends = [t.end_ns for t in self.timed_instructions if t.name != "barrier"]
        return max(ends) if ends else 0.0

    def sorted_instructions(self) -> List[TimedInstruction]:
        return sorted(self.timed_instructions, key=lambda t: (t.start_ns, t.name == "measure"))

    def instructions_on(self, position: int) -> List[TimedInstruction]:
        return [t for t in self.sorted_instructions() if position in t.qubits]

    def physical_qubit(self, position: int) -> int:
        return self.physical_qubits[position]

    def count_ops(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for timed in self.timed_instructions:
            counts[timed.name] = counts.get(timed.name, 0) + 1
        return counts

    def qubit_runtime(self, position: int) -> Tuple[float, float]:
        """The paper's "runtime" of a qubit: first gate start to measurement start.

        Falls back to the circuit end when the qubit is never measured.
        """
        ops = [t for t in self.instructions_on(position) if t.name != "barrier"]
        if not ops:
            return (0.0, 0.0)
        start = min(t.start_ns for t in ops)
        measures = [t.start_ns for t in ops if t.name == "measure"]
        end = min(measures) if measures else max(t.end_ns for t in ops)
        return (start, end)

    # -- mutation used by mitigation passes -----------------------------------
    def copy(self) -> "ScheduledCircuit":
        return ScheduledCircuit(
            num_qubits=self.num_qubits,
            num_clbits=self.num_clbits,
            device=self.device,
            physical_qubits=self.physical_qubits,
            timed_instructions=list(self.timed_instructions),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def insert(self, gate: Gate, position: int, start_ns: float, duration_ns: Optional[float] = None) -> None:
        """Insert a gate at an absolute start time (used by DD insertion)."""
        if duration_ns is None:
            duration_ns = self.device.gate_duration(gate.name, [self.physical_qubit(position)])
        timed = TimedInstruction(Instruction(gate, (position,)), float(start_ns), float(duration_ns))
        self.timed_instructions.append(timed)

    def remove(self, timed: TimedInstruction) -> None:
        self.timed_instructions.remove(timed)

    def replace(self, old: TimedInstruction, new: TimedInstruction) -> None:
        index = self.timed_instructions.index(old)
        self.timed_instructions[index] = new

    def validate_no_overlap(self, tolerance_ns: float = 1e-6) -> bool:
        """Check that no two instructions overlap on the same qubit."""
        per_qubit: Dict[int, List[Tuple[float, float]]] = {}
        for timed in self.timed_instructions:
            if timed.name in ("barrier",):
                continue
            for q in timed.qubits:
                per_qubit.setdefault(q, []).append((timed.start_ns, timed.end_ns))
        for intervals in per_qubit.values():
            intervals.sort()
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                if s2 < e1 - tolerance_ns:
                    return False
        return True

    def measured_positions(self) -> List[Tuple[int, int]]:
        """(position, clbit) pairs for every measurement."""
        return [
            (t.qubits[0], t.instruction.clbits[0])
            for t in self.sorted_instructions()
            if t.name == "measure"
        ]

    def __repr__(self):
        return (
            f"ScheduledCircuit({self.name}, qubits={self.num_qubits}, "
            f"duration={self.duration_ns:.0f}ns, ops={len(self.timed_instructions)})"
        )


def _instruction_duration(
    inst: Instruction, device: DeviceModel, physical_qubits: Sequence[int]
) -> float:
    if inst.name == "delay":
        return float(inst.gate.params[0])
    if inst.name == "barrier":
        return 0.0
    try:
        physical = [physical_qubits[q] for q in inst.qubits]
    except IndexError:
        # An explicit physical_qubits list shorter than the circuit width
        # must fail as a typed error, not a bare IndexError.
        raise TranspilerError(
            f"instruction '{inst.name}' on qubits {list(inst.qubits)} is outside "
            f"the {len(physical_qubits)}-entry physical_qubits mapping"
        ) from None
    return device.gate_duration(inst.name, physical)


def schedule_circuit(
    circuit: QuantumCircuit,
    device: DeviceModel,
    physical_qubits: Optional[Sequence[int]] = None,
    policy: str = "alap",
    name: Optional[str] = None,
) -> ScheduledCircuit:
    """Assign start times to every instruction of ``circuit``.

    ``physical_qubits`` maps circuit positions onto device qubits (identity by
    default, which requires the circuit width to not exceed the device size).
    """
    if policy not in ("alap", "asap"):
        raise TranspilerError(f"unknown scheduling policy '{policy}'")
    if physical_qubits is None:
        if circuit.num_qubits > device.num_qubits:
            raise TranspilerError("circuit is wider than the device")
        physical_qubits = tuple(range(circuit.num_qubits))
    else:
        physical_qubits = tuple(int(q) for q in physical_qubits)

    durations = [
        _instruction_duration(inst, device, physical_qubits) for inst in circuit.instructions
    ]

    # Forward (ASAP) pass.
    available = [0.0] * circuit.num_qubits
    asap_start: List[float] = []
    for inst, duration in zip(circuit.instructions, durations):
        qubits = inst.qubits if inst.qubits else tuple(range(circuit.num_qubits))
        start = max(available[q] for q in qubits)
        asap_start.append(start)
        for q in qubits:
            available[q] = start + duration
    total = max(available) if available else 0.0

    if policy == "asap":
        starts = asap_start
    else:
        # Backward (ALAP) pass: latest feasible start keeping the ASAP makespan.
        latest_free = [total] * circuit.num_qubits
        alap_start = [0.0] * len(circuit.instructions)
        for index in range(len(circuit.instructions) - 1, -1, -1):
            inst = circuit.instructions[index]
            duration = durations[index]
            qubits = inst.qubits if inst.qubits else tuple(range(circuit.num_qubits))
            end = min(latest_free[q] for q in qubits)
            start = end - duration
            if start < -1e-9:
                raise TranspilerError("ALAP scheduling produced a negative start time")
            alap_start[index] = max(start, 0.0)
            for q in qubits:
                latest_free[q] = alap_start[index]
        starts = alap_start

    timed: List[TimedInstruction] = []
    for inst, start, duration in zip(circuit.instructions, starts, durations):
        if inst.name in ("delay", "barrier"):
            # Delays only reserve time; barriers only order instructions.
            continue
        timed.append(TimedInstruction(inst, float(start), float(duration)))
    timed.sort(key=lambda t: (t.start_ns, t.name == "measure"))

    return ScheduledCircuit(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        device=device,
        physical_qubits=physical_qubits,
        timed_instructions=timed,
        name=name or f"{circuit.name}_{policy}",
        metadata=dict(circuit.metadata),
    )
