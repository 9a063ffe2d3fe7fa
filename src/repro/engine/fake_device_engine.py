"""Fake-device execution engine: transpile-and-run against a device model.

:class:`FakeDeviceEngine` is the "submit to the machine" backend: it accepts
*logical* circuits, compiles them for its device (noise-aware layout,
routing, basis translation, ALAP scheduling) and executes the schedule on the
noisy density-matrix engine.  The compilation is cached per circuit content,
so resubmitting the same circuit — the dominant pattern in VQE trajectory
replays and mitigation sweeps — skips straight to the (equally cached) noisy
execution.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Union

from ..backends.device import DeviceModel
from ..backends.fake import get_device
from ..circuits.circuit import QuantumCircuit
from ..operators.pauli import PauliSum
from ..simulators.noise_model import NoiseModel
from ..simulators.readout import probabilities_to_counts
from ..transpiler.pipeline import TranspileResult, transpile
from .base import EngineResult, ExecutionEngine
from .density_engine import _LRUCache, NoisyDensityMatrixEngine
from .fingerprint import circuit_fingerprint, circuit_hash_chain

#: Sentinel distinguishing "use the engine's configured shots" from an
#: explicit ``shots=None`` (exact infinite-shot) request.
_DEFAULT_SHOTS = object()


class FakeDeviceEngine(ExecutionEngine):
    """Noisy execution of logical circuits on a fake IBM-style device."""

    name = "fake_device"

    def __init__(
        self,
        device: Union[DeviceModel, str],
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
        shots: int = 4096,
        physical_qubits: Optional[Sequence[int]] = None,
        scheduling_policy: str = "alap",
        transpile_cache_entries: int = 256,
        kernel: Optional[str] = None,
    ):
        super().__init__(seed=seed)
        self.device = get_device(device) if isinstance(device, str) else device
        self.noise_model = noise_model or NoiseModel.from_device(self.device)
        self.shots = int(shots)
        self.physical_qubits = list(physical_qubits) if physical_qubits is not None else None
        self.scheduling_policy = scheduling_policy
        self.transpile_cache_entries = int(transpile_cache_entries)
        #: Simulation kernel of the inner noisy engine (``"dense"`` /
        #: ``"ptm"``; ``None`` defers to ``REPRO_ENGINE_KERNEL``) — see
        #: :class:`NoisyDensityMatrixEngine` and ``docs/ptm.md``.
        self._noisy = NoisyDensityMatrixEngine(self.noise_model, seed=seed, kernel=kernel)
        self.kernel = self._noisy.kernel
        self._transpiled = _LRUCache(transpile_cache_entries)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _transpile_key(self, circuit: QuantumCircuit):
        """Transpile-cache key: circuit content plus the compilation context.

        ``physical_qubits`` / ``scheduling_policy`` are plain attributes a
        caller may reassign after construction; keying on them makes such
        changes miss the cache instead of silently reusing the old layout.
        """
        return (
            circuit_fingerprint(circuit),
            tuple(self.physical_qubits) if self.physical_qubits is not None else None,
            self.scheduling_policy,
        )

    def transpile(self, circuit: QuantumCircuit) -> TranspileResult:
        """Compile ``circuit`` for the device, cached by circuit content and
        compilation context."""
        circuit = self._resolve_program(circuit)
        key = self._transpile_key(circuit)
        with self._lock:
            cached = self._transpiled.get(key)
            if cached is not None:
                self.stats.transpile_cache_hits += 1
                return cached
            self.stats.transpile_cache_misses += 1
        result = transpile(
            circuit,
            self.device,
            physical_qubits=self.physical_qubits,
            scheduling_policy=self.scheduling_policy,
        )
        with self._lock:
            self._transpiled.put(key, result)
        return result

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit) -> EngineResult:
        """Transpile and execute one logical circuit; samples ``self.shots`` counts."""
        circuit = self._resolve_program(circuit)
        fingerprint = circuit_fingerprint(circuit)
        compiled = self.transpile(circuit)
        inner = self._noisy.run(compiled.scheduled)
        counts = None
        if inner.probabilities is not None:
            # Sample straight from the distribution the inner run already
            # produced — one pipeline pass per submission, and the stats
            # reflect one execution per circuit.
            rng = self._sampling_rng(None, "counts", fingerprint, str(self.shots))
            counts = probabilities_to_counts(inner.probabilities, self.shots, rng=rng)
        return EngineResult(
            fingerprint=fingerprint,
            engine=self.name,
            state=inner.state,
            probabilities=inner.probabilities,
            clbit_order=inner.clbit_order,
            counts=counts,
            from_cache=inner.from_cache,
            metadata={"device": self.device.name, "schedule_fingerprint": inner.fingerprint},
        )

    def counts(
        self, circuit: QuantumCircuit, shots: Optional[int] = None, seed: Optional[int] = None
    ) -> Dict[str, int]:
        """Sampled measurement counts for one logical circuit.

        ``shots=None`` falls back to the engine's configured shot count (an
        exact distribution is available via ``run(...).probabilities``); an
        explicit ``seed`` overrides the engine seeding contract for this
        call only.
        """
        shots = self.shots if shots is None else int(shots)
        circuit = self._resolve_program(circuit)
        compiled = self.transpile(circuit)
        probabilities, _ = self._noisy.measured_probabilities(compiled.scheduled)
        rng = self._sampling_rng(seed, "counts", circuit_fingerprint(circuit), str(shots))
        return probabilities_to_counts(probabilities, shots, rng=rng)

    def expectation(
        self,
        circuit: QuantumCircuit,
        observable: PauliSum,
        shots=_DEFAULT_SHOTS,
        mitigator=None,
        seed: Optional[int] = None,
    ) -> float:
        """``<observable>`` measured on the noisy device execution.

        The circuit must measure every observable qubit (add
        ``circuit.measure_all()`` before submitting, as on real hardware).
        Like :meth:`run`, sampling uses the engine's configured ``shots`` by
        default; pass ``shots=None`` explicitly for the exact
        (infinite-shot) value.  An explicit ``seed`` overrides the engine
        seeding contract for this call only.
        """
        if shots is _DEFAULT_SHOTS:
            shots = self.shots
        circuit = self._resolve_program(circuit)
        compiled = self.transpile(circuit)
        return self._noisy.expectation(
            compiled.scheduled, observable, shots=shots, mitigator=mitigator, seed=seed
        )

    def expectation_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        observable: PauliSum,
        shots=_DEFAULT_SHOTS,
        mitigator=None,
        seed: Optional[int] = None,
    ):
        """Batched ``<observable>``; equals element-wise :meth:`expectation`.

        Overrides the base implementation so the configured-``shots`` default
        applies to the batch path too (the base class would pass an explicit
        ``shots=None``).  ``seed`` applies to every item, as on element-wise
        calls.
        """
        if shots is _DEFAULT_SHOTS:
            shots = self.shots
        kwargs = {"observable": observable, "shots": shots, "mitigator": mitigator, "seed": seed}
        return self._dispatch_batch("expectation", circuits, kwargs)

    def submit_expectation_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        observable: PauliSum,
        shots=_DEFAULT_SHOTS,
        mitigator=None,
        submitter=None,
        priority: int = 0,
        seed: Optional[int] = None,
    ):
        """Asynchronous :meth:`expectation_batch`; the configured-``shots``
        default applies exactly as on the blocking path, and ``submitter`` /
        ``priority`` feed the engine's scheduler."""
        if shots is _DEFAULT_SHOTS:
            shots = self.shots
        kwargs = {"observable": observable, "shots": shots, "mitigator": mitigator, "seed": seed}
        return self._submit_job("expectation", circuits, kwargs, submitter, priority)

    # ------------------------------------------------------------------
    def _serial_call(self, kind: str, item, kwargs):
        if kind == "run":
            return self.run(item)
        if kind == "expectation":
            return self.expectation(
                item, kwargs["observable"], shots=kwargs["shots"],
                mitigator=kwargs.get("mitigator"), seed=kwargs.get("seed"),
            )
        return super()._serial_call(kind, item, kwargs)

    def _shard_chain(self, kind: str, circuit: QuantumCircuit):
        return circuit_hash_chain(circuit)

    # ------------------------------------------------------------------
    @property
    def noisy_engine(self) -> NoisyDensityMatrixEngine:
        """The underlying schedule-level engine (shares this engine's caches)."""
        return self._noisy

    def clear_caches(self) -> None:
        """Drop the transpilation cache and the inner engine's caches."""
        with self._lock:
            self._transpiled.clear()
        self._noisy.clear_caches()

    def reset_stats(self) -> None:
        """Zero both this engine's and the inner noisy engine's counters."""
        super().reset_stats()
        self._noisy.reset_stats()

    def close(self) -> None:
        """Drain this engine's scheduler and the inner engine's."""
        super().close()
        self._noisy.close()
