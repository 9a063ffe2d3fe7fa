"""Ideal statevector execution engine.

Wraps :class:`~repro.simulators.statevector.StatevectorSimulator` behind the
:class:`~repro.engine.base.ExecutionEngine` API with a content-hash state
cache: repeated executions of the same bound circuit (trajectory replays,
parity tests) reuse the evolved statevector, and
expectation values are additionally memoised per observable.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache import LRUCache
from ..circuits.circuit import QuantumCircuit
from ..operators.pauli import PauliSum
from ..simulators.readout import probabilities_to_counts
from ..simulators.statevector import (
    StatevectorSimulator,
    measured_distribution_from_probabilities,
)
from .base import EngineResult, ExecutionEngine
from .fingerprint import circuit_fingerprint, circuit_hash_chain, observable_fingerprint

#: Byte budget of the evolved statevectors (sized by each array's bytes).
STATE_CACHE_BYTES = 16 << 20
#: Byte budget of the memoised expectation values at 8 bytes per float
#: (4,096 values).
EXPECTATION_CACHE_BYTES = 32 << 10


class StatevectorEngine(ExecutionEngine):
    """Cached, noise-free execution of logical circuits.

    The asynchronous ``submit`` / ``submit_batch`` / ``submit_expectation_batch``
    API is inherited unchanged from
    :class:`~repro.engine.base.ExecutionEngine` — exact expectations need no
    per-call kwargs beyond the observable.
    """

    name = "statevector"

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed=seed)
        self._simulator = StatevectorSimulator()
        self._states = LRUCache(STATE_CACHE_BYTES)
        self._expectations = LRUCache(EXPECTATION_CACHE_BYTES)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _state_for(
        self, circuit: QuantumCircuit, fingerprint: Optional[str] = None
    ) -> Tuple[np.ndarray, str, bool]:
        """The evolved state of ``circuit``; ``fingerprint`` is its
        :func:`circuit_fingerprint` when the caller already has it."""
        if fingerprint is None:
            fingerprint = circuit_fingerprint(circuit)
        with self._lock:
            self.stats.executions += 1
            cached = self._states.get(fingerprint)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached, fingerprint, True
            self.stats.cache_misses += 1
        state = self._simulator.run_statevector(circuit)
        state.flags.writeable = False
        self._states.put(fingerprint, state, state.nbytes)
        with self._lock:
            self.stats.instructions_simulated += len(circuit.instructions)
        return state, fingerprint, False

    def run(self, circuit: QuantumCircuit) -> EngineResult:
        """Evolve ``circuit`` to its final statevector.

        As on every engine, ``result.probabilities`` is the outcome
        distribution over *classical bits* when the circuit measures
        (``None`` otherwise); use :meth:`probabilities` for the raw
        computational-basis distribution of the full register.
        Accepts an ingested program (:class:`repro.frontend.IngestedProgram`)
        in place of a circuit, as do all engine entry points.
        """
        circuit = self._resolve_program(circuit)
        state, fingerprint, from_cache = self._state_for(circuit)
        probabilities = None
        clbit_order = None
        measured = circuit.measured_qubits()
        if measured:
            probabilities = measured_distribution_from_probabilities(np.abs(state) ** 2, circuit)
            clbit_order = list(range(max(clbit for _, clbit in measured) + 1))
        return EngineResult(
            fingerprint=fingerprint,
            engine=self.name,
            state=state,
            probabilities=probabilities,
            clbit_order=clbit_order,
            from_cache=from_cache,
        )

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Exact computational-basis distribution of the full register
        (measurement instructions are irrelevant here; compare
        ``result.probabilities``, which marginalises onto classical bits).
        Documented in ``docs/api.md``."""
        state, _, _ = self._state_for(self._resolve_program(circuit))
        return np.abs(state) ** 2

    def counts(
        self, circuit: QuantumCircuit, shots: int = 4096, seed: Optional[int] = None
    ) -> Dict[str, int]:
        """Sampled counts under the engine seeding contract (documented in
        ``docs/api.md``; the frontend fuzz suite checks ingested programs'
        sampled bits through it)."""
        circuit = self._resolve_program(circuit)
        fingerprint = circuit_fingerprint(circuit)
        rng = self._sampling_rng(seed, "counts", fingerprint, str(shots))
        state, _, _ = self._state_for(circuit, fingerprint)
        distribution = measured_distribution_from_probabilities(np.abs(state) ** 2, circuit)
        return probabilities_to_counts(distribution, shots, rng=rng)

    # ------------------------------------------------------------------
    def expectation(
        self,
        circuit: QuantumCircuit,
        observable: PauliSum,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> float:
        """Exact ``<psi|H|psi>`` (the ideal engine ignores ``shots``/``seed``)."""
        from ..exceptions import SimulationError

        circuit = self._resolve_program(circuit)
        bare = circuit.remove_final_measurements()
        if bare.num_qubits != observable.num_qubits:
            raise SimulationError(
                f"observable acts on {observable.num_qubits} qubits, circuit has {bare.num_qubits}"
            )
        key = (circuit_fingerprint(bare), observable_fingerprint(observable))
        with self._lock:
            self.stats.expectation_calls += 1
            cached = self._expectations.get(key)
        if cached is not None:
            with self._lock:
                self.stats.expectation_cache_hits += 1
            return cached
        state, _, _ = self._state_for(bare, key[0])
        value = float(observable.expectation_from_statevector(state))
        self._expectations.put(key, value, 8)
        return value

    # ------------------------------------------------------------------
    def _shard_chain(self, kind: str, circuit: QuantumCircuit) -> List[str]:
        return circuit_hash_chain(circuit)

    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop the cached statevectors and memoised expectation values."""
        self._states.clear()
        self._expectations.clear()

    def cache_report(self) -> Dict[str, Dict[str, int]]:
        return {"states": self._states.as_dict(), "expectations": self._expectations.as_dict()}
