"""Differential tests for the shared contraction kernel.

:mod:`repro.simulators.contraction` replaced three hand-written ways of
applying a small operator to chosen axes of a state: the density matrix's
``np.tensordot`` helper, the statevector's ``np.moveaxis`` gate functions and
the Pauli-vector state's own ``np.tensordot`` code.  Those functions are kept
here, verbatim, as the reference, and every case is compared with
``np.array_equal`` — the plans promise the same bits, not a tolerance.

The cases cover one- and two-qubit targets on 1 to 6 qubits; row, column and
doubled (superoperator) axes of the density tensor; C-ordered, F-ordered and
strided operators; and Pauli-vector batches of 1 and 3 rows.  A batch of 3
is the case where the tensor's axes differ in size, so a product reshaped by
the wrong shape would scramble it; the density matrix's all-2 axes cannot
show that.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.simulators import DensityMatrix, PauliVectorState, StatevectorSimulator
from repro.simulators.contraction import qubit_plan


# ----------------------------------------------------------------------------
# The reference implementations
# ----------------------------------------------------------------------------

def reference_contract(data, matrix, axes, tensor_shape, radix):
    """``np.tensordot`` into ``axes`` of ``data`` viewed as ``tensor_shape``,
    with the operator's output axes moved back into place."""
    k = len(axes)
    rank = len(tensor_shape)
    tensor = data.reshape(tensor_shape)
    op = matrix.reshape((radix,) * (2 * k))
    out = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    remaining = [axis for axis in range(rank) if axis not in axes]
    position = {}
    for index, axis in enumerate(axes):
        position[axis] = index
    for index, axis in enumerate(remaining):
        position[axis] = k + index
    out = np.transpose(out, [position[axis] for axis in range(rank)])
    return out.reshape(data.shape)


def reference_single_qubit(state, matrix, qubit, num_qubits):
    tensor = state.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, qubit, 0)
    shape = tensor.shape
    tensor = matrix @ tensor.reshape(2, -1)
    tensor = tensor.reshape(shape)
    tensor = np.moveaxis(tensor, 0, qubit)
    return tensor.reshape(-1)


def reference_two_qubit(state, matrix, qubit_a, qubit_b, num_qubits):
    tensor = state.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, (qubit_a, qubit_b), (0, 1))
    shape = tensor.shape
    tensor = matrix @ tensor.reshape(4, -1)
    tensor = tensor.reshape(shape)
    tensor = np.moveaxis(tensor, (0, 1), (qubit_a, qubit_b))
    return tensor.reshape(-1)


def reference_gate(state, matrix, qubits, num_qubits):
    if len(qubits) == 1:
        return reference_single_qubit(state, matrix, qubits[0], num_qubits)
    return reference_two_qubit(state, matrix, qubits[0], qubits[1], num_qubits)


# ----------------------------------------------------------------------------
# Seeded cases
# ----------------------------------------------------------------------------

#: Operator layouts.  ``block`` is a sub-block view (rows and columns strided
#: past the operator's width); ``step`` takes every other row and column, so
#: neither axis has unit stride.
LAYOUTS = ("C", "F", "block", "step")

#: (qubits, target width); each test draws ``TRIALS`` seeded cases of each.
CASES = [(n, k) for n in range(1, 7) for k in (1, 2) if k <= n]
TRIALS = 3


def _trials(*parts):
    for trial in range(TRIALS):
        yield np.random.default_rng([1200, *parts, trial])


def _operator(rng, dim, layout, real=False):
    def draw(rows, cols):
        values = rng.standard_normal((rows, cols))
        return values if real else values + 1j * rng.standard_normal((rows, cols))

    if layout == "C":
        return draw(dim, dim)
    if layout == "F":
        return np.asfortranarray(draw(dim, dim))
    if layout == "block":
        return draw(dim + 3, dim + 5)[1 : 1 + dim, 2 : 2 + dim]
    return draw(2 * dim, 2 * dim)[::2, ::2]


def _targets(rng, n, k):
    return tuple(int(q) for q in rng.permutation(n)[:k])


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n,k", CASES)
class TestAgainstReference:
    def test_density_rows_and_columns(self, n, k, layout):
        shape = (2,) * (2 * n)
        for rng in _trials(1, n, k):
            qubits = _targets(rng, n, k)
            matrix = _operator(rng, 2 ** k, layout)
            data = _complex(rng, 2 ** n, 2 ** n)
            for offset in (0, n):
                axes = [offset + q for q in qubits]
                expected = reference_contract(data, matrix, axes, shape, 2)
                got = qubit_plan(shape, qubits, n, (offset,)).apply(matrix, data)
                assert np.array_equal(got, expected)
                assert got.strides == expected.strides

    def test_density_superoperator(self, n, k, layout):
        for rng in _trials(2, n, k):
            qubits = _targets(rng, n, k)
            superop = _operator(rng, 4 ** k, layout)
            data = _complex(rng, 2 ** n, 2 ** n)
            axes = list(qubits) + [n + q for q in qubits]
            expected = reference_contract(data, superop, axes, (2,) * (2 * n), 2)
            rho = DensityMatrix(n, data=data)
            rho.apply_superop(superop, qubits)
            assert np.array_equal(rho.data, expected)

    def test_density_unitary_and_kraus(self, n, k, layout):
        shape = (2,) * (2 * n)
        for rng in _trials(3, n, k):
            qubits = _targets(rng, n, k)
            columns = [n + q for q in qubits]
            first = _operator(rng, 2 ** k, layout)
            second = _operator(rng, 2 ** k, layout)
            data = _complex(rng, 2 ** n, 2 ** n)

            def conjugate(matrix):
                state = reference_contract(data, matrix, list(qubits), shape, 2)
                return reference_contract(state, matrix.conj(), columns, shape, 2)

            rho = DensityMatrix(n, data=data)
            rho.apply_unitary(first, qubits)
            assert np.array_equal(rho.data, conjugate(first))

            expected = np.zeros_like(data)
            for matrix in (first, second):
                expected += conjugate(matrix)
            rho = DensityMatrix(n, data=data)
            rho.apply_kraus([first, second], qubits)
            assert np.array_equal(rho.data, expected)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_pauli_vector_batch(self, n, k, layout, rows):
        for rng in _trials(5, n, k, rows):
            positions = _targets(rng, n, k)
            ptm = _operator(rng, 4 ** k, layout, real=True)
            data = rng.standard_normal((rows, 4 ** n))
            axes = [p + 1 for p in positions]
            expected = np.ascontiguousarray(
                reference_contract(data, ptm, axes, (rows,) + (4,) * n, 4)
            )
            state = PauliVectorState(n, data=data)
            state.apply_ptm(ptm, positions)
            assert np.array_equal(state.data, expected)
            assert state.data.flags.c_contiguous


# Not ``step``: for an operator without a unit stride, the reference's ``@``
# runs numpy's own loop instead of BLAS when the state is no larger than the
# operator.  Gate matrices, the only operators a statevector is given, are
# always C- or F-contiguous.
@pytest.mark.parametrize("layout", ("C", "F", "block"))
@pytest.mark.parametrize("n,k", CASES)
def test_statevector_gate(n, k, layout):
    for rng in _trials(4, n, k):
        qubits = _targets(rng, n, k)
        matrix = _operator(rng, 2 ** k, layout)
        state = _complex(rng, 2 ** n)
        expected = reference_gate(state, matrix, qubits, n)
        got = qubit_plan((2,) * n, qubits, n).apply(matrix, state)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", range(1, 7))
def test_statevector_circuits_match_the_moveaxis_loop(n):
    """Whole circuits, through the simulator, including ``sxdg`` (whose
    matrix is F-ordered) and two-qubit gates in both qubit orders."""
    rng = np.random.default_rng([1200, 6, n])
    circuit = QuantumCircuit(n)
    for _ in range(12):
        if n > 1 and rng.random() < 0.4:
            a, b = _targets(rng, n, 2)
            if rng.random() < 0.5:
                circuit.cx(a, b)
            else:
                circuit.rzz(float(rng.uniform(-3, 3)), a, b)
            continue
        q = int(rng.integers(n))
        choice = int(rng.integers(4))
        if choice == 0:
            circuit.h(q)
        elif choice == 1:
            circuit.sxdg(q)
        elif choice == 2:
            circuit.rx(float(rng.uniform(-math.pi, math.pi)), q)
        else:
            circuit.ry(float(rng.uniform(-math.pi, math.pi)), q)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    for inst in circuit.instructions:
        state = reference_gate(state, inst.gate.matrix(), tuple(inst.qubits), n)
    assert np.array_equal(StatevectorSimulator().run_statevector(circuit), state)


# ----------------------------------------------------------------------------
# Target validation
# ----------------------------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


class TestTargetValidation:
    """Targets are validated as qubits when a plan is built, and a failed
    build is never cached — so a bad target raises however many valid plans
    of the same width are cached."""

    def test_density_matrix(self):
        rho = DensityMatrix(2)
        rho.apply_unitary(_X, (1,))
        rho.apply_unitary(_CX, (0, 1))
        rho.apply_superop(np.eye(4), (0,))
        before = rho.data.copy()
        # Qubit 2 would be column axis 0 of the rank-4 density tensor.
        for bad in ((2,), (-1,)):
            with pytest.raises(SimulationError):
                rho.apply_unitary(_X, bad)
            with pytest.raises(SimulationError):
                rho.apply_superop(np.eye(4), bad)
            with pytest.raises(SimulationError):
                rho.apply_kraus([_X], bad)
        with pytest.raises(SimulationError):
            rho.apply_unitary(_CX, (1, 1))
        with pytest.raises(SimulationError):
            rho.apply_superop(np.eye(16), (0, 2))
        assert np.array_equal(rho.data, before)

    def test_pauli_vector_state(self):
        state = PauliVectorState(2, batch=3)
        state.apply_ptm(np.eye(4), (1,))
        state.apply_ptm(np.eye(16), (0, 1))
        # Position -1 would be axis 0, the batch axis.
        for bad in ((-1,), (2,)):
            with pytest.raises(SimulationError):
                state.apply_ptm(np.eye(4), bad)
        with pytest.raises(SimulationError):
            state.apply_ptm(np.eye(16), (0, 0))

    def test_plans(self):
        qubit_plan((2, 2, 2), (2,), 3)
        with pytest.raises(SimulationError):
            qubit_plan((2, 2, 2), (3,), 3)
        qubit_plan((2,) * 6, (2,), 3, (0, 3))
        with pytest.raises(SimulationError):
            qubit_plan((2,) * 6, (3,), 3, (0, 3))
