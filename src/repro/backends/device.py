"""Device models: qubit/gate calibration properties of the target machines.

A :class:`DeviceModel` carries everything the transpiler, scheduler and noisy
simulator need to know about a machine: coupling map, per-qubit coherence
times (T1, T2), static frequency detunings and their slow drift, readout
confusion probabilities, per-gate durations and error rates, and always-on ZZ
crosstalk strengths between coupled qubits.

Two "views" of a device are important for reproducing the paper:

* the *calibration view* — the Markovian numbers a provider exposes (T1, T2,
  gate errors, readout errors).  This is what a Qiskit-style noise model is
  built from and plays the role of the paper's "noisy simulation".
* the *device view* — calibration plus the coherent, slowly drifting
  detunings and crosstalk that real hardware has but calibration data does
  not capture.  This plays the role of the paper's "real machine".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import BackendError


@dataclass
class QubitProperties:
    """Calibration and hidden properties of one physical qubit.

    Times are nanoseconds; frequencies are radians per nanosecond.
    """

    t1_ns: float
    t2_ns: float
    readout_error_01: float  # P(measure 1 | prepared 0)
    readout_error_10: float  # P(measure 0 | prepared 1)
    #: Quasi-static frequency detuning (coherent Z error rate), rad/ns.
    #: This is *not* part of the published calibration data.
    static_detuning: float = 0.0
    #: Amplitude of the slow sinusoidal drift of the detuning, rad/ns.
    drift_amplitude: float = 0.0
    #: Period of the slow drift, ns.
    drift_period_ns: float = 50000.0
    #: Phase offset of the drift.
    drift_phase: float = 0.0

    def __post_init__(self):
        if self.t1_ns <= 0 or self.t2_ns <= 0:
            raise BackendError("T1 and T2 must be positive")
        if self.t2_ns > 2 * self.t1_ns + 1e-9:
            raise BackendError("T2 cannot exceed 2*T1")
        for p in (self.readout_error_01, self.readout_error_10):
            if not 0.0 <= p < 0.5:
                raise BackendError("readout error probabilities must lie in [0, 0.5)")

    @property
    def t_phi_ns(self) -> float:
        """Pure-dephasing time derived from T1 and T2: 1/Tphi = 1/T2 - 1/(2*T1)."""
        rate = 1.0 / self.t2_ns - 1.0 / (2.0 * self.t1_ns)
        if rate <= 0:
            return math.inf
        return 1.0 / rate

    def detuning_at(self, time_ns: float) -> float:
        """Instantaneous detuning (rad/ns) including the slow drift component."""
        if self.drift_amplitude == 0.0:
            return self.static_detuning
        return self.static_detuning + self.drift_amplitude * math.sin(
            2.0 * math.pi * time_ns / self.drift_period_ns + self.drift_phase
        )

    def integrated_detuning(self, start_ns: float, end_ns: float) -> float:
        """Coherent phase accumulated between ``start_ns`` and ``end_ns`` (rad).

        The drift integral is evaluated analytically so idle-noise application
        is exact regardless of how the interval is split by echo pulses.
        """
        duration = end_ns - start_ns
        if duration <= 0:
            return 0.0
        phase = self.static_detuning * duration
        if self.drift_amplitude:
            omega = 2.0 * math.pi / self.drift_period_ns
            phase += (self.drift_amplitude / omega) * (
                math.cos(omega * start_ns + self.drift_phase)
                - math.cos(omega * end_ns + self.drift_phase)
            )
        return phase


@dataclass
class GateProperties:
    """Duration and error rate of one gate type on a specific qubit (pair)."""

    duration_ns: float
    error: float

    def __post_init__(self):
        if self.duration_ns < 0:
            raise BackendError("gate duration must be non-negative")
        if not 0.0 <= self.error < 1.0:
            raise BackendError("gate error must lie in [0, 1)")


class DeviceModel:
    """A complete model of a target quantum machine."""

    def __init__(
        self,
        name: str,
        num_qubits: int,
        coupling_edges: Sequence[Tuple[int, int]],
        qubit_properties: Sequence[QubitProperties],
        single_qubit_gate: GateProperties,
        two_qubit_gates: Dict[Tuple[int, int], GateProperties],
        readout_duration_ns: float = 3200.0,
        zz_crosstalk_rad_per_ns: Optional[Dict[FrozenSet[int], float]] = None,
        dt_ns: float = 0.2222,
        basis_gates: Tuple[str, ...] = ("rz", "sx", "x", "cx"),
    ):
        if len(qubit_properties) != num_qubits:
            raise BackendError("qubit_properties length must equal num_qubits")
        self.name = name
        self.num_qubits = int(num_qubits)
        self.coupling_edges: List[Tuple[int, int]] = [
            (int(a), int(b)) for a, b in coupling_edges
        ]
        for a, b in self.coupling_edges:
            if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
                raise BackendError(f"invalid coupling edge ({a}, {b})")
        self.qubits: List[QubitProperties] = list(qubit_properties)
        self.single_qubit_gate = single_qubit_gate
        self.two_qubit_gates = dict(two_qubit_gates)
        self.readout_duration_ns = float(readout_duration_ns)
        self.zz_crosstalk = dict(zz_crosstalk_rad_per_ns or {})
        self.dt_ns = float(dt_ns)
        self.basis_gates = tuple(basis_gates)

    # -- topology -----------------------------------------------------------
    def neighbors(self, qubit: int) -> List[int]:
        out = set()
        for a, b in self.coupling_edges:
            if a == qubit:
                out.add(b)
            elif b == qubit:
                out.add(a)
        return sorted(out)

    def is_coupled(self, a: int, b: int) -> bool:
        return (a, b) in self.coupling_edges or (b, a) in self.coupling_edges

    # -- per-gate lookups -----------------------------------------------------
    def gate_duration(self, name: str, qubits: Sequence[int]) -> float:
        """Duration in nanoseconds of a gate on specific qubits.

        Virtual gates (``rz``) and barriers take zero time, matching IBM
        hardware where Z rotations are frame changes.
        """
        name = name.lower()
        if name in ("rz", "p", "barrier", "id"):
            return 0.0
        if name == "measure":
            return self.readout_duration_ns
        if name == "delay":
            raise BackendError("delay durations are carried by the instruction itself")
        if name in ("cx", "cz", "swap", "rzz", "rxx", "cry"):
            key = (qubits[0], qubits[1])
            props = self.two_qubit_gates.get(key) or self.two_qubit_gates.get((key[1], key[0]))
            if props is None:
                raise BackendError(
                    f"no calibrated two-qubit gate between qubits {qubits[0]} and {qubits[1]}"
                )
            factor = 3.0 if name == "swap" else 1.0  # a SWAP compiles to 3 CX
            return props.duration_ns * factor
        return self.single_qubit_gate.duration_ns

    def gate_error(self, name: str, qubits: Sequence[int]) -> float:
        """Average error rate of a gate on specific qubits."""
        name = name.lower()
        if name in ("rz", "p", "barrier", "id", "delay"):
            return 0.0
        if name == "measure":
            q = qubits[0]
            return 0.5 * (self.qubits[q].readout_error_01 + self.qubits[q].readout_error_10)
        if name in ("cx", "cz", "swap", "rzz", "rxx", "cry"):
            key = (qubits[0], qubits[1])
            props = self.two_qubit_gates.get(key) or self.two_qubit_gates.get((key[1], key[0]))
            if props is None:
                raise BackendError(
                    f"no calibrated two-qubit gate between qubits {qubits[0]} and {qubits[1]}"
                )
            factor = 3.0 if name == "swap" else 1.0
            return min(0.999, props.error * factor)
        return self.single_qubit_gate.error

    def zz_rate(self, a: int, b: int) -> float:
        """Always-on ZZ coupling strength between two qubits (rad/ns)."""
        return self.zz_crosstalk.get(frozenset((a, b)), 0.0)

    def readout_confusion_matrix(self, qubit: int) -> np.ndarray:
        """2x2 column-stochastic confusion matrix ``M[measured, prepared]``."""
        q = self.qubits[qubit]
        return np.array(
            [
                [1.0 - q.readout_error_01, q.readout_error_10],
                [q.readout_error_01, 1.0 - q.readout_error_10],
            ]
        )

    # -- quality ranking ------------------------------------------------------
    def qubit_quality(self, qubit: int) -> float:
        """A scalar figure of merit used by the noise-aware layout pass.

        Larger is better: combines coherence, readout fidelity and the best
        two-qubit gate error incident on the qubit.
        """
        q = self.qubits[qubit]
        coherence = min(q.t1_ns, q.t2_ns)
        readout = 1.0 - 0.5 * (q.readout_error_01 + q.readout_error_10)
        cx_errors = [
            props.error
            for (a, b), props in self.two_qubit_gates.items()
            if qubit in (a, b)
        ]
        cx_quality = 1.0 - (min(cx_errors) if cx_errors else 0.05)
        return coherence * readout * cx_quality

    def best_qubits(self, count: int) -> List[int]:
        """The ``count`` highest-quality qubits (descending quality)."""
        if count > self.num_qubits:
            raise BackendError(
                f"device {self.name} has only {self.num_qubits} qubits, {count} requested"
            )
        ranked = sorted(range(self.num_qubits), key=self.qubit_quality, reverse=True)
        return ranked[:count]

    def __repr__(self):
        return f"DeviceModel({self.name}, {self.num_qubits} qubits, {len(self.coupling_edges)} edges)"
