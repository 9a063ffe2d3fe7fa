"""Content fingerprints of circuits, schedules, devices and observables.

The execution engine keys every cache on *content*, never on object identity:
two independently constructed but identical scheduled circuits must hit the
same cache line, and any difference in timing, gate parameters, layout or
device calibration must miss.  Fingerprints are hex digests of BLAKE2b over a
canonical byte encoding of the object.

For prefix reuse the engine needs more than a single digest: it needs the
*hash chain* of a schedule — ``chain[k]`` identifies the schedule's processing
prefix of ``k`` instructions (in the simulator's time order), rooted in
everything that influences how a prefix is simulated (device calibration,
layout, register sizes and each qubit's first-activity time).  Two schedules
with ``chain_a[k] == chain_b[k]`` evolve bit-identically through their first
``k`` instructions, so a snapshot taken at depth ``k`` of one can seed the
other.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.device import DeviceModel
    from ..circuits.circuit import QuantumCircuit
    from ..transpiler.scheduling import ScheduledCircuit, TimedInstruction

_SEP = b"\x1f"


def _digest(*parts: str) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(_SEP)
    return hasher.hexdigest()


# ----------------------------------------------------------------------------
# Devices
# ----------------------------------------------------------------------------

_device_fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def device_fingerprint(device: "DeviceModel") -> str:
    """Digest of everything calibration-dependent simulation consults.

    Memoised per device instance; device models are treated as immutable
    (every mutation site in the code base builds a fresh model).
    """
    try:
        cached = _device_fingerprints.get(device)
    except TypeError:  # un-weakref-able exotic device stand-ins
        cached = None
    if cached is not None:
        return cached
    qubit_parts = [
        "|".join(
            repr(value)
            for value in (
                q.t1_ns, q.t2_ns, q.readout_error_01, q.readout_error_10,
                q.static_detuning, q.drift_amplitude, q.drift_period_ns, q.drift_phase,
            )
        )
        for q in device.qubits
    ]
    gate_parts = [
        f"{pair}:{props.duration_ns!r}:{props.error!r}"
        for pair, props in sorted(device.two_qubit_gates.items())
    ]
    zz_parts = [
        f"{sorted(pair)}:{rate!r}"
        for pair, rate in sorted(device.zz_crosstalk.items(), key=lambda item: sorted(item[0]))
    ]
    fingerprint = _digest(
        device.name,
        str(device.num_qubits),
        repr(sorted(device.coupling_edges)),
        repr(device.single_qubit_gate.duration_ns) + ":" + repr(device.single_qubit_gate.error),
        repr(device.readout_duration_ns),
        *qubit_parts,
        *gate_parts,
        *zz_parts,
    )
    try:
        _device_fingerprints[device] = fingerprint
    except TypeError:
        pass
    return fingerprint


def invalidate_device_fingerprint(device: "DeviceModel") -> None:
    """Drop the memoised fingerprint of a device whose calibration was
    mutated in place (see :meth:`NoiseModel.invalidate_channel_cache` — the
    supported mutation path; every other mutation site builds a fresh
    model).  The next lookup re-digests the current calibration, so engine
    caches keyed on it miss instead of serving pre-mutation results."""
    try:
        _device_fingerprints.pop(device, None)
    except TypeError:
        pass


# ----------------------------------------------------------------------------
# Circuits and schedules
# ----------------------------------------------------------------------------

def instruction_token(name: str, params, qubits, clbits, start_ns=None, duration_ns=None) -> str:
    """Canonical string for one (possibly timed) instruction."""
    token = f"{name}|{tuple(repr(p) for p in params)}|{tuple(qubits)}|{tuple(clbits)}"
    if start_ns is not None:
        token += f"|{start_ns!r}|{duration_ns!r}"
    return token


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """Digest of a logical circuit (gate sequence, parameters, wiring)."""
    parts = [str(circuit.num_qubits), str(circuit.num_clbits)]
    parts.extend(
        instruction_token(inst.name, inst.gate.params, inst.qubits, inst.clbits)
        for inst in circuit.instructions
    )
    return _digest(*parts)


def circuit_hash_chain(circuit: "QuantumCircuit") -> List[str]:
    """``chain[k]`` identifies the first ``k`` instructions of a logical circuit.

    The logical-circuit analogue of :func:`schedule_hash_chain`, the
    logical engines' ``_shard_chain``.  Unlike schedule chains there is no
    prefix-resume fast path behind it, so ``chain[-1]`` serves purely as a
    content key (the service's store key) — it identifies the same content
    as :func:`circuit_fingerprint` but is a distinct digest.
    """
    chain = [_digest(str(circuit.num_qubits), str(circuit.num_clbits))]
    for inst in circuit.instructions:
        chain.append(
            _digest(chain[-1], instruction_token(inst.name, inst.gate.params, inst.qubits, inst.clbits))
        )
    return chain


def schedule_root(
    scheduled: "ScheduledCircuit",
    initial_last_time: Optional[Dict[int, float]] = None,
    salt: str = "",
) -> str:
    """The depth-0 entry of a schedule's hash chain.

    Captures every input of prefix simulation that is not an instruction:
    device calibration, the position-to-physical-qubit layout, register sizes
    and (when given) each position's first-activity time, which seeds the
    simulator's idle tracking and is derived from the *whole* schedule.
    ``salt`` lets the caller mix in additional execution context (e.g. the
    noise model's flag configuration).
    """
    parts = [
        salt,
        device_fingerprint(scheduled.device),
        str(scheduled.num_qubits),
        str(scheduled.num_clbits),
        repr(tuple(scheduled.physical_qubits)),
    ]
    if initial_last_time is not None:
        parts.append(repr(sorted(initial_last_time.items())))
    return _digest(*parts)


def timed_instruction_token(timed: "TimedInstruction") -> str:
    """:func:`instruction_token` of a timed instruction, formatted once and
    kept on the (immutable) instruction: sweep candidates copy schedules by
    sharing their instruction objects, so they share most of their tokens."""
    token = timed._token
    if token is None:
        token = instruction_token(
            timed.name,
            timed.instruction.gate.params,
            timed.qubits,
            timed.instruction.clbits,
            timed.start_ns,
            timed.duration_ns,
        )
        object.__setattr__(timed, "_token", token)
    return token


def schedule_hash_chain(
    scheduled: "ScheduledCircuit",
    ordered: Sequence["TimedInstruction"],
    initial_last_time: Optional[Dict[int, float]] = None,
    salt: str = "",
) -> List[str]:
    """``chain[k]`` identifies the first ``k`` instructions of ``ordered``.

    ``chain`` has ``len(ordered) + 1`` entries; ``chain[-1]`` is a full
    content fingerprint of the schedule and serves as its result-cache key.
    """
    chain = [schedule_root(scheduled, initial_last_time, salt)]
    for timed in ordered:
        chain.append(_digest(chain[-1], timed_instruction_token(timed)))
    return chain


def schedule_fingerprint(scheduled: "ScheduledCircuit") -> str:
    """Full content fingerprint of a scheduled circuit (no chain).

    Digests the time-sorted processing order, in which the listed order of
    same-start instructions is content.
    """
    return schedule_hash_chain(scheduled, scheduled.sorted_instructions())[-1]


# ----------------------------------------------------------------------------
# Raw array content
# ----------------------------------------------------------------------------

def array_content_key(*arrays) -> str:
    """Digest of the exact contents of one or more numpy arrays.

    Keys caches of *derived* numerical objects (e.g. the PTM compiled from a
    Kraus set) on the bytes of their inputs: two channels built independently
    but with identical operator entries share one cache line, and any change
    in values, dtype or shape misses.  Arrays are digested in C order.
    """
    import numpy as np

    hasher = hashlib.blake2b(digest_size=16)
    for array in arrays:
        contiguous = np.ascontiguousarray(array)
        hasher.update(str(contiguous.dtype).encode("utf-8"))
        hasher.update(_SEP)
        hasher.update(repr(contiguous.shape).encode("utf-8"))
        hasher.update(_SEP)
        hasher.update(contiguous.tobytes())
        hasher.update(_SEP)
    return hasher.hexdigest()


# ----------------------------------------------------------------------------
# Observables and mitigators
# ----------------------------------------------------------------------------

def observable_fingerprint(observable) -> str:
    """Digest of a PauliSum (labels and coefficients, order-independent)."""
    terms = sorted((pauli.label, float(coeff)) for pauli, coeff in observable.terms())
    return _digest(str(observable.num_qubits), *(f"{label}:{coeff!r}" for label, coeff in terms))


def mitigator_fingerprint(mitigator) -> str:
    """Digest of a measurement mitigator's confusion matrices ('' for None)."""
    if mitigator is None:
        return ""
    return _digest(*(repr(matrix.tolist()) for matrix in mitigator.confusions))


# ----------------------------------------------------------------------------
# Deterministic seed derivation
# ----------------------------------------------------------------------------

def derive_seed(base_seed: Optional[int], *parts: str) -> int:
    """A deterministic per-item seed mixed from the engine seed and content.

    This is the engine's seeding contract: sampling randomness depends only on
    ``(engine seed, item content)``, never on execution order, so batched and
    sequential execution of the same item draw identical samples.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr(base_seed).encode("utf-8"))
    for part in parts:
        digest.update(_SEP)
        digest.update(part.encode("utf-8"))
    return int.from_bytes(digest.digest(), "big") & ((1 << 63) - 1)
