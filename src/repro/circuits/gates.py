"""Gate library.

Gates are light-weight immutable descriptions: a name, the number of qubits
they act on and (for rotation gates) a tuple of parameters which may be
numeric or symbolic :class:`~repro.circuits.parameter.ParameterExpression`
objects.  The unitary matrix of a gate is produced by :meth:`Gate.matrix`,
which requires all parameters to be bound.

The gate set intentionally mirrors the IBM heavy-hex basis used by the paper
(``rz``, ``sx``, ``x``, ``cx``) plus the higher-level gates that ansatz and
micro-benchmarks are written in (``h``, ``ry``, ``rx``, ``y``, ``z``, ``cz``,
``swap``, ...).  ``delay`` and ``barrier`` are scheduling directives, and
``measure`` marks terminal read-out.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..exceptions import CircuitError, ParameterError
from .parameter import ParameterExpression, bind_value, free_parameters

ParamValue = Union[int, float, ParameterExpression]

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class Gate:
    """An immutable gate description.

    Parameters
    ----------
    name:
        Lower-case gate mnemonic, e.g. ``"rx"``.
    num_qubits:
        Arity of the gate.
    params:
        Rotation angles or other numeric gate parameters (possibly symbolic).
    """

    def __init__(self, name: str, num_qubits: int, params: Sequence[ParamValue] = ()):
        self._name = name
        self._num_qubits = int(num_qubits)
        self._params: Tuple[ParamValue, ...] = tuple(params)

    # -- basic attributes -----------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def params(self) -> Tuple[ParamValue, ...]:
        return self._params

    @property
    def parameters(self) -> frozenset:
        """Unbound symbolic parameters appearing in this gate."""
        return free_parameters(self._params)

    def is_parameterized(self) -> bool:
        return bool(self.parameters)

    # -- transformations -------------------------------------------------
    def bind(self, binding) -> "Gate":
        """Return a copy with symbolic parameters substituted from ``binding``."""
        if not self.is_parameterized():
            return self
        new_params = [bind_value(p, binding) for p in self._params]
        return type(self)._rebuild(self._name, self._num_qubits, new_params)

    @classmethod
    def _rebuild(cls, name, num_qubits, params):
        return Gate(name, num_qubits, params)

    def inverse(self) -> "Gate":
        """Return the inverse gate.

        Self-inverse gates return themselves; rotation gates negate their
        angle.  Gates without a known inverse raise :class:`CircuitError`.
        """
        name = self._name
        if name in _SELF_INVERSE:
            return self
        if name in _ROTATION_GATES:
            return Gate(name, self._num_qubits, tuple(-p for p in self._params))
        if name == "s":
            return Gate("sdg", 1)
        if name == "sdg":
            return Gate("s", 1)
        if name == "t":
            return Gate("tdg", 1)
        if name == "tdg":
            return Gate("t", 1)
        if name == "sx":
            return Gate("sxdg", 1)
        if name == "sxdg":
            return Gate("sx", 1)
        if name == "u3":
            theta, phi, lam = self._params
            return Gate("u3", 1, (-theta, -lam, -phi))
        raise CircuitError(f"gate '{name}' has no defined inverse")

    # -- matrix ----------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of the gate (requires bound parameters).

        Matrices are cached per ``(name, params)``: hot loops (schedule-aware
        simulation, basis translation) request the same handful of distinct
        gates thousands of times.  The returned array is read-only — copy it
        before mutating.
        """
        if self.is_parameterized():
            raise ParameterError(
                f"cannot build the matrix of '{self._name}' with unbound parameters"
            )
        try:
            params = tuple(float(p) for p in self._params)
        except (TypeError, ValueError) as error:
            # A Gate built directly (bypassing standard_gate) can carry
            # non-numeric params; fail as a typed error, not a bare ValueError.
            raise ParameterError(
                f"gate '{self._name}' has non-numeric parameter(s) {self._params!r}: {error}"
            ) from None
        return _cached_matrix(self._name, params)

    # -- dunder ------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self._name == other._name
            and self._num_qubits == other._num_qubits
            and self._params == other._params
        )

    def __hash__(self):
        return hash((self._name, self._num_qubits, self._params))

    def __repr__(self):
        if self._params:
            args = ", ".join(repr(p) for p in self._params)
            return f"Gate({self._name}, {args})"
        return f"Gate({self._name})"


class Barrier(Gate):
    """A scheduling barrier across a group of qubits (no unitary action)."""

    def __init__(self, num_qubits: int):
        super().__init__("barrier", num_qubits)

    def matrix(self):
        return np.eye(2 ** self.num_qubits, dtype=complex)

    def inverse(self):
        return self


class Delay(Gate):
    """Explicit idle time on one qubit, expressed in nanoseconds."""

    def __init__(self, duration_ns: float):
        if duration_ns < 0:
            raise CircuitError("delay duration must be non-negative")
        super().__init__("delay", 1, (float(duration_ns),))

    @property
    def duration(self) -> float:
        return float(self._params[0])

    def matrix(self):
        return np.eye(2, dtype=complex)

    def inverse(self):
        return self


class Measure(Gate):
    """Terminal Z-basis measurement of a single qubit into a classical bit."""

    def __init__(self):
        super().__init__("measure", 1)

    def matrix(self):
        raise CircuitError("measurement has no unitary matrix")

    def inverse(self):
        raise CircuitError("measurement is not invertible")


@lru_cache(maxsize=1024)
def _cached_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    try:
        builder = _MATRIX_BUILDERS[name]
    except KeyError:
        raise CircuitError(f"gate '{name}' has no matrix definition") from None
    try:
        matrix = builder(*params)
    except TypeError:
        # A Gate built directly (bypassing standard_gate) can carry the wrong
        # parameter count; fail as a typed error, not a bare TypeError.
        expected = GATE_NUM_PARAMS.get(name, 0)
        raise CircuitError(
            f"gate '{name}' expects {expected} parameter(s), got {len(params)}"
        ) from None
    matrix.flags.writeable = False
    return matrix


# ----------------------------------------------------------------------------
# Matrix builders
# ----------------------------------------------------------------------------

def _id_matrix() -> np.ndarray:
    return np.eye(2, dtype=complex)


def _x_matrix() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _y_matrix() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _z_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _h_matrix() -> np.ndarray:
    return np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)


def _s_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _sdg_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=complex)


def _t_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)


def _tdg_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex)


def _sx_matrix() -> np.ndarray:
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def _sxdg_matrix() -> np.ndarray:
    return _sx_matrix().conj().T


def _rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(phi: float) -> np.ndarray:
    return np.array([[np.exp(-1j * phi / 2), 0], [0, np.exp(1j * phi / 2)]], dtype=complex)


def _p_matrix(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _cx_matrix() -> np.ndarray:
    # Control is the first qubit; basis ordering is big-endian |q0 q1>.
    m = np.eye(4, dtype=complex)
    m[[2, 3]] = m[[3, 2]]
    return m


def _cz_matrix() -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[3, 3] = -1
    return m


def _swap_matrix() -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[[1, 2]] = m[[2, 1]]
    return m


def _rzz_matrix(theta: float) -> np.ndarray:
    phase = np.exp(-1j * theta / 2)
    anti = np.exp(1j * theta / 2)
    return np.diag([phase, anti, anti, phase]).astype(complex)


def _rxx_matrix(theta: float) -> np.ndarray:
    c = math.cos(theta / 2)
    s = -1j * math.sin(theta / 2)
    m = np.eye(4, dtype=complex) * c
    m[0, 3] = s
    m[1, 2] = s
    m[2, 1] = s
    m[3, 0] = s
    return m


def _cry_matrix(theta: float) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = _ry_matrix(theta)
    return m


_MATRIX_BUILDERS: Dict[str, callable] = {
    "id": _id_matrix,
    "x": _x_matrix,
    "y": _y_matrix,
    "z": _z_matrix,
    "h": _h_matrix,
    "s": _s_matrix,
    "sdg": _sdg_matrix,
    "t": _t_matrix,
    "tdg": _tdg_matrix,
    "sx": _sx_matrix,
    "sxdg": _sxdg_matrix,
    "rx": _rx_matrix,
    "ry": _ry_matrix,
    "rz": _rz_matrix,
    "p": _p_matrix,
    "u3": _u3_matrix,
    "cx": _cx_matrix,
    "cz": _cz_matrix,
    "swap": _swap_matrix,
    "rzz": _rzz_matrix,
    "rxx": _rxx_matrix,
    "cry": _cry_matrix,
}

_SELF_INVERSE = {"id", "x", "y", "z", "h", "cx", "cz", "swap", "barrier", "delay"}
_ROTATION_GATES = {"rx", "ry", "rz", "p", "rzz", "rxx", "cry"}

#: Gate arities for every known gate name.
GATE_ARITY: Dict[str, int] = {
    "id": 1, "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "sx": 1, "sxdg": 1, "rx": 1, "ry": 1, "rz": 1, "p": 1, "u3": 1,
    "cx": 2, "cz": 2, "swap": 2, "rzz": 2, "rxx": 2, "cry": 2,
    "delay": 1, "barrier": 0, "measure": 1,
}

#: Number of angle parameters each gate expects.
GATE_NUM_PARAMS: Dict[str, int] = {
    "rx": 1, "ry": 1, "rz": 1, "p": 1, "u3": 3, "rzz": 1, "rxx": 1, "cry": 1,
    "delay": 1,
}

#: Gates whose action is purely a virtual frame change (zero duration on IBM hardware).
VIRTUAL_GATES = frozenset({"rz", "p", "barrier"})

#: The hardware basis used by the paper's IBM devices.
IBM_BASIS = ("rz", "sx", "x", "cx")


def standard_gate(name: str, *params: ParamValue) -> Gate:
    """Construct a gate by name with validation of arity/parameter count."""
    name = name.lower()
    if name == "barrier":
        raise CircuitError("use Barrier(num_qubits) to construct barriers")
    if name == "measure":
        return Measure()
    if name == "delay":
        if len(params) != 1:
            raise CircuitError("delay takes exactly one duration parameter")
        return Delay(params[0])
    if name not in GATE_ARITY:
        raise CircuitError(f"unknown gate '{name}'")
    expected = GATE_NUM_PARAMS.get(name, 0)
    if len(params) != expected:
        raise CircuitError(
            f"gate '{name}' expects {expected} parameter(s), got {len(params)}"
        )
    return Gate(name, GATE_ARITY[name], params)
