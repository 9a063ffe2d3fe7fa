"""Unit tests for the QuantumCircuit IR."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuits import Parameter, QuantumCircuit
from repro.circuits.gates import standard_gate
from repro.exceptions import CircuitError, ParameterError


class TestConstruction:
    def test_requires_positive_width(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_default_clbits_match_qubits(self):
        assert QuantumCircuit(3).num_clbits == 3

    def test_append_validates_qubit_range(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.x(2)

    def test_append_rejects_duplicate_qubits(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.cx(1, 1)

    def test_append_rejects_wrong_arity(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.append(standard_gate("cx"), [0])

    def test_append_rejects_bad_clbit(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.measure(0, 5)

    def test_named_helpers_chain(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        assert [inst.name for inst in circuit.instructions] == ["h", "cx"]

    def test_len_counts_instructions(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.x(0)
        assert len(circuit) == 2


class TestIntrospection:
    def test_count_ops(self, bell):
        assert bell.count_ops() == {"h": 1, "cx": 1}

    def test_depth_simple(self, bell):
        assert bell.depth() == 2

    def test_depth_parallel_gates(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.x(1)
        assert circuit.depth() == 1

    def test_cx_depth_counts_only_cx(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(0, 1)
        assert circuit.cx_depth() == 2
        assert circuit.depth() == 4

    def test_barrier_synchronises_but_does_not_count(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.barrier()
        circuit.x(1)
        # The barrier orders x(1) after x(0) (depth 2) but contributes no
        # depth of its own (otherwise this would be 3).
        assert circuit.depth() == 2

    def test_parameters_collected(self):
        theta, phi = Parameter("theta"), Parameter("phi")
        circuit = QuantumCircuit(1)
        circuit.rx(theta, 0)
        circuit.rz(phi, 0)
        assert circuit.parameters == frozenset({theta, phi})
        assert circuit.num_parameters == 2

    def test_sorted_parameters_by_name(self):
        circuit = QuantumCircuit(1)
        b, a = Parameter("b"), Parameter("a")
        circuit.rx(b, 0)
        circuit.rz(a, 0)
        assert [p.name for p in circuit.sorted_parameters()] == ["a", "b"]

    def test_sorted_parameters_breaks_name_ties_by_creation_order(self):
        params = [Parameter("x") for _ in range(6)]
        circuit = QuantumCircuit(1)
        for parameter in reversed(params):
            circuit.rz(parameter, 0)
        assert circuit.sorted_parameters() == params

    def test_sorted_parameters_ignore_the_hash_seed(self):
        # Equal names used to keep the frozenset's iteration order, which
        # PYTHONHASHSEED decides; binding order must not depend on it.
        script = (
            "from repro.circuits import Parameter, QuantumCircuit\n"
            "params = [Parameter('x') for _ in range(6)]\n"
            "circuit = QuantumCircuit(1)\n"
            "for parameter in params:\n"
            "    circuit.rz(parameter, 0)\n"
            "print([params.index(p) for p in circuit.sorted_parameters()])\n"
        )
        source = str(Path(repro.__file__).resolve().parents[1])
        environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=source)
        completed = subprocess.run(
            [sys.executable, "-c", script], env=environment, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert completed.stdout.strip() == "[0, 1, 2, 3, 4, 5]"

    def test_measured_qubits(self):
        circuit = QuantumCircuit(2)
        circuit.measure(1, 0)
        assert circuit.measured_qubits() == [(1, 0)]

    def test_draw_contains_gates(self, bell):
        text = bell.draw()
        assert "h" in text and "cx" in text


class TestTransformations:
    def test_bind_parameters_with_mapping(self):
        theta = Parameter("theta")
        circuit = QuantumCircuit(1)
        circuit.ry(theta, 0)
        bound = circuit.bind_parameters({theta: 0.5})
        assert not bound.parameters
        assert bound.instructions[0].gate.params == (0.5,)

    def test_bind_parameters_with_sequence_sorted_order(self):
        a, b = Parameter("a"), Parameter("b")
        circuit = QuantumCircuit(1)
        circuit.ry(b, 0)
        circuit.rz(a, 0)
        bound = circuit.bind_parameters([1.0, 2.0])  # a=1.0, b=2.0
        assert bound.instructions[0].gate.params == (2.0,)
        assert bound.instructions[1].gate.params == (1.0,)

    def test_bind_wrong_length_raises(self):
        circuit = QuantumCircuit(1)
        circuit.ry(Parameter("t"), 0)
        with pytest.raises(ParameterError):
            circuit.bind_parameters([1.0, 2.0])

    def test_copy_is_independent(self, bell):
        copy = bell.copy()
        copy.x(0)
        assert len(copy) == len(bell) + 1

    def test_compose_identity_mapping(self, bell):
        tail = QuantumCircuit(2)
        tail.x(1)
        combined = bell.compose(tail)
        assert [inst.name for inst in combined.instructions] == ["h", "cx", "x"]

    def test_compose_with_qubit_mapping(self):
        main = QuantumCircuit(3)
        sub = QuantumCircuit(2)
        sub.cx(0, 1)
        combined = main.compose(sub, qubits=[2, 0])
        assert combined.instructions[0].qubits == (2, 0)

    def test_compose_wrong_mapping_length(self, bell):
        with pytest.raises(CircuitError):
            bell.compose(QuantumCircuit(2), qubits=[0])

    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit(1)
        circuit.rx(0.3, 0)
        circuit.rz(0.7, 0)
        inverse = circuit.inverse()
        assert [inst.name for inst in inverse.instructions] == ["rz", "rx"]
        assert inverse.instructions[0].gate.params == (-0.7,)

    def test_inverse_rejects_measurements(self):
        circuit = QuantumCircuit(1)
        circuit.measure(0, 0)
        with pytest.raises(CircuitError):
            circuit.inverse()

    def test_circuit_times_inverse_is_identity(self, bound_su2_4q):
        product = bound_su2_4q.compose(bound_su2_4q.inverse())
        assert np.allclose(product.to_unitary(), np.eye(16), atol=1e-9)

    def test_remove_final_measurements(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.measure_all()
        stripped = circuit.remove_final_measurements()
        assert not stripped.has_measurements()
        assert stripped.count_ops() == {"h": 1}

    def test_measure_all_measures_every_qubit(self):
        circuit = QuantumCircuit(3)
        circuit.measure_all()
        assert sorted(q for q, _ in circuit.measured_qubits()) == [0, 1, 2]


class TestUnitary:
    def test_bell_unitary(self, bell):
        unitary = bell.to_unitary()
        state = unitary[:, 0]
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(state, expected, atol=1e-12)

    def test_unitary_requires_no_measurements(self):
        circuit = QuantumCircuit(1)
        circuit.measure(0, 0)
        with pytest.raises(CircuitError):
            circuit.to_unitary()

    def test_unitary_requires_bound_parameters(self):
        circuit = QuantumCircuit(1)
        circuit.rx(Parameter("t"), 0)
        with pytest.raises(ParameterError):
            circuit.to_unitary()

    def test_cx_orientation_in_full_unitary(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.cx(0, 1)
        state = circuit.to_unitary()[:, 0]
        assert np.allclose(np.abs(state) ** 2, [0, 0, 0, 1])

    def test_gate_on_second_qubit_embedding(self):
        circuit = QuantumCircuit(2)
        circuit.x(1)
        state = circuit.to_unitary()[:, 0]
        assert np.allclose(np.abs(state) ** 2, [0, 1, 0, 0])
