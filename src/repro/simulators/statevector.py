"""Ideal statevector simulation.

This is the "Ideal Simulation" backend of the paper's feasible flow: gate
rotation angles are tuned against noise-free expectation values before error
mitigation is tuned on the (noisy) machine.

Qubit 0 is the most-significant bit of the computational-basis index
(big-endian), consistently with :meth:`QuantumCircuit.to_unitary` and the
Pauli-string labelling in :mod:`repro.operators`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import _MATRIX_BUILDERS, GATE_NUM_PARAMS
from ..circuits.parameter import ParameterExpression
from ..exceptions import CircuitError, ParameterError, SimulationError
from ..operators.pauli import PauliSum
from .contraction import qubit_plan
from .readout import probabilities_to_counts


def measured_distribution_from_probabilities(
    probs: np.ndarray, circuit: QuantumCircuit
) -> np.ndarray:
    """Map a computational-basis distribution onto the circuit's classical bits.

    Measurements are applied in circuit order, so when several measurements
    target the same classical bit the last one wins (matching per-shot
    overwrite semantics on hardware).
    """
    num_qubits = circuit.num_qubits
    measured = circuit.measured_qubits() or [(q, q) for q in range(num_qubits)]
    num_clbits = max(c for _, c in measured) + 1
    indices = np.arange(probs.size)
    keys = np.zeros(probs.size, dtype=np.int64)
    for qubit, clbit in measured:
        bits = (indices >> (num_qubits - 1 - qubit)) & 1
        mask = np.int64(1) << (num_clbits - 1 - clbit)
        keys = (keys & ~mask) | (bits << (num_clbits - 1 - clbit))
    return np.bincount(keys, weights=probs, minlength=2 ** num_clbits)


class StatevectorProgram:
    """A circuit compiled once for repeated ideal evaluation.

    Compiling walks the circuit once: every fixed gate keeps its matrix and
    its contraction plan, every parametric gate keeps its plan, its matrix
    builder and, per gate parameter, the affine map from the parameter vector
    (ordered as :meth:`QuantumCircuit.sorted_parameters`) to the angle.
    :meth:`statevector` then computes each angle the way
    :meth:`ParameterExpression.bind` does, calls the same builder and makes
    the same ``plan.apply`` calls as evolving the bound circuit, so its states
    equal that walk bit for bit without binding or hashing a circuit.
    """

    def __init__(self, circuit: QuantumCircuit):
        num_qubits = circuit.num_qubits
        self.num_qubits = num_qubits
        self.parameters = circuit.sorted_parameters()
        index = {parameter: i for i, parameter in enumerate(self.parameters)}
        shape = (2,) * num_qubits
        steps = []
        for inst in circuit.instructions:
            name = inst.name
            if name in ("barrier", "delay", "id", "measure"):
                continue
            gate = inst.gate
            if gate.is_parameterized():
                builder = _MATRIX_BUILDERS.get(name)
                if builder is None or len(gate.params) != GATE_NUM_PARAMS.get(name, 0):
                    raise CircuitError(
                        f"gate '{name}' has no matrix definition for {len(gate.params)} parameter(s)"
                    )
                matrix = None
                angles = tuple(_affine(value, index) for value in gate.params)
            else:
                matrix, builder, angles = gate.matrix(), None, ()
            if len(inst.qubits) > 2:
                raise SimulationError(f"unsupported gate arity for '{name}'")
            plan = qubit_plan(shape, tuple(inst.qubits), num_qubits)
            steps.append((plan, matrix, builder, angles))
        self._steps = steps

    def statevector(self, values: Sequence[float] = ()) -> np.ndarray:
        """The final statevector at parameter ``values`` (ordered as
        :attr:`parameters`)."""
        values = [float(value) for value in values]
        if len(values) != len(self.parameters):
            raise ParameterError(
                f"expected {len(self.parameters)} parameter values, got {len(values)}"
            )
        state = np.zeros(2 ** self.num_qubits, dtype=complex)
        state[0] = 1.0
        for plan, matrix, builder, angles in self._steps:
            if matrix is None:
                bound = []
                for const, terms in angles:
                    for i, coeff in terms:
                        const += coeff * values[i]
                    bound.append(const)
                matrix = builder(*bound)
            state = plan.apply(matrix, state)
        return state


def _affine(value, index: Dict) -> Tuple[float, Tuple[Tuple[int, float], ...]]:
    """A gate parameter as ``(constant, ((parameter index, coefficient), ...))``,
    with the terms in the expression's own coefficient order."""
    if isinstance(value, ParameterExpression):
        return (value.constant, tuple((index[p], c) for p, c in value.terms))
    return (float(value), ())


class StatevectorSimulator:
    """Exact, noise-free simulator for circuits of up to ~20 qubits."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    # -- state evolution ---------------------------------------------------
    def run_statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Return the final statevector of ``circuit`` (measurements ignored)."""
        if circuit.parameters:
            raise SimulationError("circuit still contains unbound parameters")
        return StatevectorProgram(circuit).statevector()

    # -- measurement --------------------------------------------------------
    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Computational-basis outcome probabilities of the final state."""
        state = self.run_statevector(circuit)
        return np.abs(state) ** 2

    def measured_distribution(self, circuit: QuantumCircuit) -> np.ndarray:
        """Outcome distribution over classical bits.

        Only qubits that are explicitly measured contribute; bit *i* of an
        outcome index corresponds to classical bit *i*.  Circuits without
        measurements are measured on all qubits.
        """
        return measured_distribution_from_probabilities(self.probabilities(circuit), circuit)

    def counts(
        self, circuit: QuantumCircuit, shots: int = 4096, seed: Optional[int] = None
    ) -> Dict[str, int]:
        """Sample measurement counts (bit *i* of the key is classical bit *i*).

        Sampling goes through :func:`repro.simulators.readout.
        probabilities_to_counts`, like the noisy simulator's, so an explicit
        ``seed`` reproduces the same counts regardless of how much of the
        simulator's own generator has been consumed.
        """
        distribution = self.measured_distribution(circuit)
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        return probabilities_to_counts(distribution, shots, rng=rng)

    # -- observables ---------------------------------------------------------
    def expectation(self, circuit: QuantumCircuit, observable: PauliSum) -> float:
        """Exact expectation value ``<psi|H|psi>`` of ``observable``."""
        bare = circuit.remove_final_measurements()
        if bare.num_qubits != observable.num_qubits:
            raise SimulationError(
                f"observable acts on {observable.num_qubits} qubits, circuit has {bare.num_qubits}"
            )
        state = self.run_statevector(bare)
        return observable.expectation_from_statevector(state)
