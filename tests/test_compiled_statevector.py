"""The compiled ideal objective against the gate-by-gate walk it replaced.

``StatevectorProgram`` compiles a circuit once and evaluates it at many
parameter vectors; ``VQE.ideal_objective`` evaluates such a program instead
of binding, hashing and walking a fresh circuit per point.  The reference
below is that walk — ``bind_parameters`` followed by the statevector loop
``run_statevector`` used to run — kept here so the compiled path is checked
against code it does not share.  Arithmetic is unchanged, so states must be
``np.array_equal`` and energies ``==``.
"""

import math

import numpy as np
import pytest

from repro.circuits import Parameter, QuantumCircuit
from repro.circuits.gates import Gate
from repro.exceptions import ParameterError, SimulationError
from repro.operators import tfim_hamiltonian
from repro.simulators.contraction import qubit_plan
from repro.simulators.statevector import StatevectorProgram, StatevectorSimulator
from repro.vqe import VQE
from repro.vqe.applications import application_names, get_application


def reference_statevector(circuit: QuantumCircuit, values) -> np.ndarray:
    """Bind, then apply every gate's matrix through its contraction plan."""
    bound = circuit.bind_parameters(list(values))
    num_qubits = bound.num_qubits
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = 1.0
    for inst in bound.instructions:
        if inst.name in ("barrier", "delay", "id", "measure"):
            continue
        plan = qubit_plan((2,) * num_qubits, tuple(inst.qubits), num_qubits)
        state = plan.apply(inst.gate.matrix(), state)
    return state


def reference_objective(vqe: VQE, values) -> float:
    state = reference_statevector(vqe.ansatz, values)
    return float(vqe.hamiltonian.expectation_from_statevector(state))


def points(num_parameters: int, seed: int = 5):
    """Seeded points plus the special values: zeros, -0.0, ±π and 1e3."""
    rng = np.random.default_rng(seed)
    out = [rng.uniform(-math.pi, math.pi, num_parameters) for _ in range(3)]
    out += [np.zeros(num_parameters), np.full(num_parameters, -0.0)]
    out += [np.full(num_parameters, math.pi), np.full(num_parameters, -math.pi)]
    out.append(np.full(num_parameters, 1e3))
    return out


def synthetic_ansatz() -> QuantumCircuit:
    """Every parametric builder, affine angles, and a u3 mixing numbers and
    symbols, around fixed gates and instructions the walk skips.  The
    two-term angle with a constant, its terms listed against parameter
    order, makes the order of summation matter."""
    a, b, c = Parameter("a"), Parameter("b"), Parameter("c")
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.rx(2 * a - 0.3, 0)
    circuit.ry(-b, 1)
    circuit.rz(a + b, 2)
    circuit.p(c, 1)
    circuit.u3(a, 0.25, -c, 2)
    circuit.barrier()
    circuit.rzz(2 * c - 0.3, 0, 1)
    circuit.rxx(-a, 1, 2)
    circuit.delay(100.0, 1)
    circuit.cry(c + 0.5 * b - 0.2, 2, 0)
    circuit.cx(0, 2)
    circuit.sx(1)
    circuit.id(0)
    circuit.measure_all()
    return circuit


@pytest.mark.parametrize("name", application_names())
def test_applications_match_the_bound_walk(name):
    application = get_application(name)
    vqe = VQE(application.ansatz, application.hamiltonian, seed=3)
    program = StatevectorProgram(application.ansatz)
    for values in points(vqe.num_parameters()):
        assert np.array_equal(program.statevector(values), reference_statevector(vqe.ansatz, values))
        assert vqe.ideal_objective(values) == reference_objective(vqe, values)


def test_synthetic_ansatz_covers_every_parametric_builder():
    circuit = synthetic_ansatz()
    names = {inst.name for inst in circuit.instructions if inst.gate.is_parameterized()}
    assert names == {"rx", "ry", "rz", "p", "u3", "rzz", "rxx", "cry"}
    program = StatevectorProgram(circuit)
    assert [p.name for p in program.parameters] == ["a", "b", "c"]
    vqe = VQE(circuit, tfim_hamiltonian(3), seed=1)
    for values in points(3, seed=8):
        assert np.array_equal(program.statevector(values), reference_statevector(circuit, values))
        assert vqe.ideal_objective(values) == reference_objective(vqe, values)


def test_bound_circuit_runs_with_no_values():
    circuit = synthetic_ansatz().bind_parameters([0.4, -1.1, 2.5])
    program = StatevectorProgram(circuit)
    assert program.parameters == []
    expected = reference_statevector(circuit, [])
    assert np.array_equal(program.statevector(), expected)
    assert np.array_equal(StatevectorSimulator().run_statevector(circuit), expected)


def test_batch_objective_equals_pointwise_objective():
    application = get_application("UCCSD_H2")
    vqe = VQE(application.ansatz, application.hamiltonian, seed=3)
    batch = points(vqe.num_parameters())
    assert vqe.ideal_batch_objective().evaluate_batch(batch) == [
        reference_objective(vqe, values) for values in batch
    ]


def test_growing_or_replacing_the_ansatz_rebuilds_the_program():
    circuit = synthetic_ansatz().remove_final_measurements()
    vqe = VQE(circuit, tfim_hamiltonian(3), seed=1)
    values = [0.3, -0.7, 1.9]
    before = vqe.ideal_objective(values)
    circuit.x(1)
    after = vqe.ideal_objective(values)
    assert after == reference_objective(vqe, values)
    assert after != before
    vqe.ansatz = synthetic_ansatz()
    assert vqe.ideal_objective(values) == before


def test_wrong_vector_length_raises_parameter_error():
    program = StatevectorProgram(synthetic_ansatz())
    vqe = VQE(synthetic_ansatz(), tfim_hamiltonian(3), seed=1)
    for values in ([0.1, 0.2], [0.1, 0.2, 0.3, 0.4]):
        with pytest.raises(ParameterError):
            program.statevector(values)
        with pytest.raises(ParameterError):
            vqe.ideal_objective(values)


def test_run_statevector_still_rejects_unbound_and_wide_gates():
    simulator = StatevectorSimulator()
    with pytest.raises(SimulationError):
        simulator.run_statevector(synthetic_ansatz())
    wide = QuantumCircuit(3)
    wide.append(Gate("cx", 3), [0, 1, 2])
    with pytest.raises(SimulationError):
        simulator.run_statevector(wide)
