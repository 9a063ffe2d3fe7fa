"""Unified batched execution engines (see :mod:`repro.engine.base`)."""

from .base import EngineResult, EngineStats, ExecutionEngine, ExpectationData
from .canonical import canonical_order
from .density_engine import NoisyDensityMatrixEngine, measure_pauli_sum
from .fake_device_engine import FakeDeviceEngine
from .futures import EngineFuture, gather
from .scheduler import BatchScheduler
from .fingerprint import (
    circuit_fingerprint,
    circuit_hash_chain,
    derive_seed,
    device_fingerprint,
    observable_fingerprint,
    schedule_fingerprint,
)
from .parallel import (
    PARALLELISM_MODES,
    EngineWorkerSpec,
    ParallelismPlan,
    plan_shards,
    resolve_parallelism,
)
from .statevector_engine import StatevectorEngine

__all__ = [
    "ExecutionEngine",
    "EngineResult",
    "EngineStats",
    "ExpectationData",
    "StatevectorEngine",
    "NoisyDensityMatrixEngine",
    "FakeDeviceEngine",
    "measure_pauli_sum",
    "EngineFuture",
    "BatchScheduler",
    "gather",
    "canonical_order",
    "circuit_fingerprint",
    "circuit_hash_chain",
    "schedule_fingerprint",
    "device_fingerprint",
    "observable_fingerprint",
    "derive_seed",
    "PARALLELISM_MODES",
    "ParallelismPlan",
    "EngineWorkerSpec",
    "plan_shards",
    "resolve_parallelism",
]
