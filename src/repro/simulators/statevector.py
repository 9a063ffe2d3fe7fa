"""Ideal statevector simulation.

This is the "Ideal Simulation" backend of the paper's feasible flow: gate
rotation angles are tuned against noise-free expectation values before error
mitigation is tuned on the (noisy) machine.

Qubit 0 is the most-significant bit of the computational-basis index
(big-endian), consistently with :meth:`QuantumCircuit.to_unitary` and the
Pauli-string labelling in :mod:`repro.operators`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..exceptions import SimulationError
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


class StatevectorSimulator:
    """Exact, noise-free simulator for circuits of up to ~20 qubits."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    # -- state evolution ---------------------------------------------------
    def run_statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Return the final statevector of ``circuit`` (measurements ignored)."""
        if circuit.parameters:
            raise SimulationError("circuit still contains unbound parameters")
        num_qubits = circuit.num_qubits
        state = np.zeros(2 ** num_qubits, dtype=complex)
        state[0] = 1.0
        for inst in circuit.instructions:
            name = inst.name
            if name in ("barrier", "delay", "id", "measure"):
                continue
            matrix = inst.gate.matrix()
            if len(inst.qubits) > 2:
                raise SimulationError(f"unsupported gate arity for '{name}'")
            state = qubit_plan((2,) * num_qubits, tuple(inst.qubits), num_qubits).apply(matrix, state)
        return state

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
