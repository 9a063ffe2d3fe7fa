"""The :class:`QuantumCircuit` intermediate representation.

A circuit is an ordered list of :class:`Instruction` objects, each of which is
a gate applied to a tuple of qubit indices (and, for measurements, a classical
bit index).  The representation is deliberately flat and index-based — the
transpiler converts it to a DAG when data-flow analysis is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import CircuitError, ParameterError
from .gates import Barrier, Delay, Gate, Measure, standard_gate
from .parameter import Parameter, ParameterExpression

ParamValue = Union[int, float, ParameterExpression]


@dataclass(frozen=True)
class Instruction:
    """One gate application inside a circuit."""

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return self.gate.name

    def __repr__(self):
        bits = ", ".join(str(q) for q in self.qubits)
        return f"{self.gate.name}({bits})"


class QuantumCircuit:
    """An ordered sequence of gates on ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of qubits in the register.
    num_clbits:
        Number of classical bits; defaults to ``num_qubits``.
    name:
        Optional human-readable circuit name.
    """

    def __init__(self, num_qubits: int, num_clbits: Optional[int] = None, name: str = "circuit"):
        if num_qubits <= 0:
            raise CircuitError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._num_clbits = int(num_clbits) if num_clbits is not None else int(num_qubits)
        self.name = name
        self._instructions: List[Instruction] = []
        # Optional metadata attached by builders (e.g. ansatz hyper-parameters).
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        return self._num_clbits

    @property
    def instructions(self) -> List[Instruction]:
        """The instruction list (a live reference; mutate with care)."""
        return self._instructions

    @property
    def parameters(self) -> frozenset:
        """All unbound symbolic parameters used anywhere in the circuit."""
        params = set()
        for inst in self._instructions:
            params |= inst.gate.parameters
        return frozenset(params)

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    def sorted_parameters(self) -> List[Parameter]:
        """Parameters sorted by name, then by creation order among equal names
        (the binding order of a parameter sequence, independent of hashing)."""
        return sorted(self.parameters, key=lambda p: (p.name, p._uid))

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names in the circuit."""
        counts: Dict[str, int] = {}
        for inst in self._instructions:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return counts

    def depth(self, gate_filter: Optional[Iterable[str]] = None) -> int:
        """Longest path length through the circuit.

        Parameters
        ----------
        gate_filter:
            When given, only gates whose name is in this collection contribute
            to the depth (e.g. ``("cx",)`` gives the two-qubit depth used by
            Table I of the paper).  Barriers never contribute but still
            synchronise qubits.
        """
        allowed = set(gate_filter) if gate_filter is not None else None
        level: Dict[int, int] = {q: 0 for q in range(self._num_qubits)}
        for inst in self._instructions:
            qubits = inst.qubits if inst.qubits else tuple(range(self._num_qubits))
            current = max(level[q] for q in qubits)
            counts = allowed is None or inst.name in allowed
            if inst.name == "barrier":
                counts = False
            new_level = current + (1 if counts else 0)
            for q in qubits:
                level[q] = max(level[q], new_level)
        return max(level.values()) if level else 0

    def cx_depth(self) -> int:
        """Circuit depth counting only CX gates (the paper's Table I metric)."""
        return self.depth(gate_filter=("cx",))

    def __len__(self) -> int:
        return len(self._instructions)

    def __repr__(self):
        ops = ", ".join(f"{n}:{c}" for n, c in sorted(self.count_ops().items()))
        return f"QuantumCircuit({self.name}, qubits={self._num_qubits}, ops=[{ops}])"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_qubits(self, qubits: Sequence[int], arity: int) -> Tuple[int, ...]:
        if len(qubits) != arity:
            raise CircuitError(f"expected {arity} qubit(s), got {len(qubits)}")
        out = []
        for q in qubits:
            try:
                q = int(q)
            except (TypeError, ValueError):
                raise CircuitError(f"qubit index {q!r} is not an integer") from None
            if not 0 <= q < self._num_qubits:
                raise CircuitError(f"qubit index {q} out of range for {self._num_qubits} qubits")
            out.append(q)
        if len(set(out)) != len(out):
            raise CircuitError(f"duplicate qubit indices in {qubits}")
        return tuple(out)

    def append(self, gate: Gate, qubits: Sequence[int], clbits: Sequence[int] = ()) -> "QuantumCircuit":
        """Append a gate to the circuit and return ``self`` (for chaining)."""
        if not isinstance(gate, Gate):
            raise CircuitError(f"expected a Gate, got {type(gate).__name__}")
        qubits = self._check_qubits(qubits, gate.num_qubits if gate.name != "barrier" else len(qubits))
        try:
            clbits = tuple(int(c) for c in clbits)
        except (TypeError, ValueError):
            raise CircuitError(f"clbit indices {clbits!r} are not integers") from None
        for c in clbits:
            if not 0 <= c < self._num_clbits:
                raise CircuitError(f"clbit index {c} out of range for {self._num_clbits} clbits")
        self._instructions.append(Instruction(gate, qubits, clbits))
        return self

    # Named helpers -----------------------------------------------------
    def id(self, qubit: int):
        return self.append(standard_gate("id"), [qubit])

    def x(self, qubit: int):
        return self.append(standard_gate("x"), [qubit])

    def y(self, qubit: int):
        return self.append(standard_gate("y"), [qubit])

    def z(self, qubit: int):
        return self.append(standard_gate("z"), [qubit])

    def h(self, qubit: int):
        return self.append(standard_gate("h"), [qubit])

    def s(self, qubit: int):
        return self.append(standard_gate("s"), [qubit])

    def sdg(self, qubit: int):
        return self.append(standard_gate("sdg"), [qubit])

    def t(self, qubit: int):
        return self.append(standard_gate("t"), [qubit])

    def tdg(self, qubit: int):
        return self.append(standard_gate("tdg"), [qubit])

    def sx(self, qubit: int):
        return self.append(standard_gate("sx"), [qubit])

    def sxdg(self, qubit: int):
        return self.append(standard_gate("sxdg"), [qubit])

    def rx(self, theta: ParamValue, qubit: int):
        return self.append(standard_gate("rx", theta), [qubit])

    def ry(self, theta: ParamValue, qubit: int):
        return self.append(standard_gate("ry", theta), [qubit])

    def rz(self, phi: ParamValue, qubit: int):
        return self.append(standard_gate("rz", phi), [qubit])

    def p(self, lam: ParamValue, qubit: int):
        return self.append(standard_gate("p", lam), [qubit])

    def u3(self, theta: ParamValue, phi: ParamValue, lam: ParamValue, qubit: int):
        return self.append(standard_gate("u3", theta, phi, lam), [qubit])

    def cx(self, control: int, target: int):
        return self.append(standard_gate("cx"), [control, target])

    def cz(self, control: int, target: int):
        return self.append(standard_gate("cz"), [control, target])

    def swap(self, qubit_a: int, qubit_b: int):
        return self.append(standard_gate("swap"), [qubit_a, qubit_b])

    def rzz(self, theta: ParamValue, qubit_a: int, qubit_b: int):
        return self.append(standard_gate("rzz", theta), [qubit_a, qubit_b])

    def rxx(self, theta: ParamValue, qubit_a: int, qubit_b: int):
        return self.append(standard_gate("rxx", theta), [qubit_a, qubit_b])

    def cry(self, theta: ParamValue, control: int, target: int):
        return self.append(standard_gate("cry", theta), [control, target])

    def delay(self, duration_ns: float, qubit: int):
        return self.append(Delay(duration_ns), [qubit])

    def barrier(self, *qubits: int):
        qubits = tuple(qubits) if qubits else tuple(range(self._num_qubits))
        return self.append(Barrier(len(qubits)), qubits)

    def measure(self, qubit: int, clbit: Optional[int] = None):
        clbit = qubit if clbit is None else clbit
        return self.append(Measure(), [qubit], [clbit])

    def measure_all(self):
        """Measure every qubit into the classical bit of the same index."""
        self.barrier()
        for q in range(self._num_qubits):
            self.measure(q, q)
        return self

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        out = QuantumCircuit(self._num_qubits, self._num_clbits, name or self.name)
        out._instructions = list(self._instructions)
        out.metadata = dict(self.metadata)
        return out

    def bind_parameters(
        self, values: Union[Mapping[Parameter, float], Sequence[float]]
    ) -> "QuantumCircuit":
        """Return a copy with symbolic parameters replaced by numbers.

        ``values`` may be a mapping ``{Parameter: value}`` or a sequence; a
        sequence is matched against :meth:`sorted_parameters`.
        """
        if not isinstance(values, Mapping):
            params = self.sorted_parameters()
            values = list(values)
            if len(values) != len(params):
                raise ParameterError(
                    f"expected {len(params)} parameter values, got {len(values)}"
                )
            values = dict(zip(params, values))
        out = QuantumCircuit(self._num_qubits, self._num_clbits, self.name)
        out.metadata = dict(self.metadata)
        for inst in self._instructions:
            out._instructions.append(
                Instruction(inst.gate.bind(values), inst.qubits, inst.clbits)
            )
        return out

    def compose(self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Return a new circuit equal to ``self`` followed by ``other``.

        ``qubits`` maps the other circuit's qubit *i* onto ``qubits[i]`` of
        this circuit (identity mapping by default).
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if len(qubits) != other.num_qubits:
            raise CircuitError("qubit mapping length must match the composed circuit width")
        out = self.copy()
        for inst in other.instructions:
            mapped = tuple(qubits[q] for q in inst.qubits)
            out.append(inst.gate, mapped, inst.clbits)
        return out

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse circuit (measurements are not allowed)."""
        out = QuantumCircuit(self._num_qubits, self._num_clbits, f"{self.name}_dg")
        for inst in reversed(self._instructions):
            if inst.name == "measure":
                raise CircuitError("cannot invert a circuit containing measurements")
            out.append(inst.gate.inverse(), inst.qubits, inst.clbits)
        return out

    def remove_final_measurements(self) -> "QuantumCircuit":
        """Return a copy without measurement instructions (and trailing barrier)."""
        out = QuantumCircuit(self._num_qubits, self._num_clbits, self.name)
        out.metadata = dict(self.metadata)
        kept = [inst for inst in self._instructions if inst.name != "measure"]
        while kept and kept[-1].name == "barrier":
            kept.pop()
        out._instructions = kept
        return out

    def has_measurements(self) -> bool:
        return any(inst.name == "measure" for inst in self._instructions)

    def measured_qubits(self) -> List[Tuple[int, int]]:
        """List of ``(qubit, clbit)`` pairs in measurement order."""
        return [
            (inst.qubits[0], inst.clbits[0])
            for inst in self._instructions
            if inst.name == "measure"
        ]

    # ------------------------------------------------------------------
    # Dense unitary (for small verification circuits)
    # ------------------------------------------------------------------
    def to_unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (no measurements, all parameters bound).

        Qubit 0 is the most-significant bit of the state index (big-endian),
        matching the convention used throughout :mod:`repro.simulators`.
        Tests compare decomposition, routing and simulation against it.
        """
        if self.has_measurements():
            raise CircuitError("cannot build the unitary of a circuit with measurements")
        dim = 2 ** self._num_qubits
        if self._num_qubits > 12:
            raise CircuitError("to_unitary is only intended for small circuits (<= 12 qubits)")
        unitary = np.eye(dim, dtype=complex)
        for inst in self._instructions:
            if inst.name in ("barrier", "delay", "id"):
                continue
            full = _embed_unitary(inst.gate.matrix(), inst.qubits, self._num_qubits)
            unitary = full @ unitary
        return unitary

    def draw(self) -> str:
        """A minimal text rendering: one instruction per line."""
        lines = [f"{self.name} ({self._num_qubits} qubits)"]
        for inst in self._instructions:
            params = ""
            if inst.gate.params:
                params = "(" + ", ".join(_fmt_param(p) for p in inst.gate.params) + ")"
            lines.append(f"  {inst.name}{params} {list(inst.qubits)}")
        return "\n".join(lines)


def _fmt_param(p) -> str:
    if isinstance(p, ParameterExpression):
        return repr(p)
    return f"{float(p):.4g}"


def _embed_unitary(matrix: np.ndarray, qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Embed a k-qubit unitary acting on ``qubits`` into the full Hilbert space.

    Big-endian convention: qubit 0 corresponds to the left-most tensor factor.
    """
    k = len(qubits)
    dim = 2 ** num_qubits
    op = np.zeros((dim, dim), dtype=complex)
    others = [q for q in range(num_qubits) if q not in qubits]
    # Enumerate basis states by the values of the acted-on and spectator qubits.
    for col in range(dim):
        col_bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        small_col = 0
        for idx, q in enumerate(qubits):
            small_col = (small_col << 1) | col_bits[q]
        for small_row in range(2 ** k):
            amp = matrix[small_row, small_col]
            if amp == 0:
                continue
            row_bits = list(col_bits)
            for idx, q in enumerate(qubits):
                row_bits[q] = (small_row >> (k - 1 - idx)) & 1
            row = 0
            for b in row_bits:
                row = (row << 1) | b
            op[row, col] += amp
    return op
