"""Noise models derived from a :class:`~repro.backends.device.DeviceModel`.

Two flavours reproduce the paper's distinction between "noisy simulation" and
"the real machine" (§VI-B, Fig. 9):

* ``NoiseModel.from_calibration(device)`` — only what published calibration
  data captures: Markovian T1/T2 relaxation during gates and idle periods,
  depolarizing gate errors, and readout confusion.  This corresponds to a
  Qiskit-Aer style backend noise model.
* ``NoiseModel.from_device(device)`` — calibration noise **plus** the coherent
  error processes that real hardware has but calibration data hides: residual
  per-qubit frequency detunings (with slow drift) that accumulate phase during
  idle periods, and always-on ZZ crosstalk with idle neighbours.  These are
  exactly the error components that DD and Hahn-echo gate scheduling can
  refocus, which is why mitigation tuning trends differ between the two
  flavours.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..backends.device import DeviceModel
from ..exceptions import NoiseModelError
from . import channels
from .contraction import qubit_plan


class ChannelOp:
    """A channel bound to the qubits it acts on.

    Built from Kraus operators (``ChannelOp(kraus, qubits)``) or from its
    superoperator (:meth:`from_superop`); the other form is derived on first
    read and kept on the instance.
    """

    def __init__(self, kraus: Optional[List[np.ndarray]], qubits: Tuple[int, ...]):
        self._kraus = kraus
        self.qubits = qubits
        self._superop: Optional[np.ndarray] = None
        #: The Pauli-transfer matrix, set by :func:`repro.simulators.ptm.channel_ptm`.
        self._ptm: Optional[np.ndarray] = None

    @property
    def kraus(self) -> List[np.ndarray]:
        """The Kraus operators.

        For a channel built from its superoperator this is the minimal set of
        its Choi matrix, every positive eigenvalue kept, so it agrees with
        :attr:`superop` to rounding.  Neither kernel reads it: both apply or
        compile the superoperator.
        """
        if self._kraus is None:
            self._kraus = channels.kraus_from_superop(self._superop, atol=0.0)
        return self._kraus

    @property
    def superop(self) -> np.ndarray:
        """The channel as a superoperator ``sum_i K_i (x) conj(K_i)``.

        Built lazily and cached on the instance; the noisy simulator applies
        channels through this single matrix (one tensor contraction) instead
        of looping over the Kraus operators, and the noise model's channel
        cache makes the construction cost a one-time expense per distinct
        channel.  Each term is the outer product ``np.kron`` forms, laid out
        as ``np.kron`` lays it out, without its generic reshaping machinery.
        """
        if self._superop is None:
            dim = self._kraus[0].shape[0]
            superop = np.zeros((dim * dim, dim * dim), dtype=complex)
            for k in self._kraus:
                term = np.multiply.outer(k, k.conj()).transpose(0, 2, 1, 3)
                superop += term.reshape(dim * dim, dim * dim)
            superop.flags.writeable = False
            self._superop = superop
        return self._superop

    @classmethod
    def from_superop(cls, superop: np.ndarray, qubits: Tuple[int, ...]) -> "ChannelOp":
        """The channel with the given superoperator, kept exactly as given."""
        op = cls(None, tuple(qubits))
        superop.flags.writeable = False
        op._superop = superop
        return op


class NoiseModel:
    """Schedule-aware noise description consumed by the noisy simulator."""

    def __init__(
        self,
        device: DeviceModel,
        include_coherent_errors: bool = True,
        include_crosstalk: bool = True,
        include_readout_error: bool = True,
        include_gate_error: bool = True,
        include_relaxation: bool = True,
        time_offset_ns: float = 0.0,
    ):
        self.device = device
        self.include_coherent_errors = include_coherent_errors
        self.include_crosstalk = include_crosstalk
        self.include_readout_error = include_readout_error
        self.include_gate_error = include_gate_error
        self.include_relaxation = include_relaxation
        #: Wall-clock offset added to circuit-local times when evaluating the
        #: slowly drifting detuning (lets repeated circuit executions sample
        #: different points of the drift waveform).
        self.time_offset_ns = float(time_offset_ns)
        # Channel construction is pure in (device calibration, flags, times),
        # and schedule-aware simulation requests the same channels thousands
        # of times (every candidate schedule shares most of its gates and idle
        # gaps with every other candidate), so built channels are memoised.
        # The flags and time offset participate in every key, which keeps the
        # cache correct if they are toggled after construction.
        self._channel_cache: dict = {}

    _CHANNEL_CACHE_MAX = 32768

    def _cached_channels(self, key, builder) -> List[ChannelOp]:
        cached = self._channel_cache.get(key)
        if cached is None:
            if len(self._channel_cache) >= self._CHANNEL_CACHE_MAX:
                self._channel_cache.clear()
            cached = builder()
            self._channel_cache[key] = cached
        return cached

    def invalidate_channel_cache(self) -> None:
        """Drop memoised channels (call after mutating the device calibration).

        Also drops the engine layer's memoised fingerprint of the device, so
        result caches keyed on the old calibration miss instead of serving
        pre-mutation states.
        """
        self._channel_cache.clear()
        from ..engine.fingerprint import invalidate_device_fingerprint

        invalidate_device_fingerprint(self.device)

    def _flag_key(self) -> Tuple:
        return (
            self.include_coherent_errors,
            self.include_crosstalk,
            self.include_gate_error,
            self.include_relaxation,
            self.time_offset_ns,
        )

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_calibration(cls, device: DeviceModel) -> "NoiseModel":
        """Markovian-only noise model (the paper's 'noisy simulation')."""
        return cls(device, include_coherent_errors=False, include_crosstalk=False)

    @classmethod
    def from_device(cls, device: DeviceModel) -> "NoiseModel":
        """Full device noise model (the paper's 'real machine')."""
        return cls(device, include_coherent_errors=True, include_crosstalk=True)

    @classmethod
    def ideal(cls, device: DeviceModel) -> "NoiseModel":
        """A noise model that applies no noise at all (ideal execution)."""
        return cls(
            device,
            include_coherent_errors=False,
            include_crosstalk=False,
            include_readout_error=False,
            include_gate_error=False,
            include_relaxation=False,
        )

    def is_noiseless(self) -> bool:
        return not (
            self.include_coherent_errors
            or self.include_crosstalk
            or self.include_readout_error
            or self.include_gate_error
            or self.include_relaxation
        )

    # -- idle noise ------------------------------------------------------------
    def idle_channels(
        self,
        qubit: int,
        start_ns: float,
        end_ns: float,
        idle_neighbors: Optional[Sequence[int]] = None,
    ) -> List[ChannelOp]:
        """Noise applied to ``qubit`` while it idles from ``start_ns`` to ``end_ns``.

        ``idle_neighbors`` lists coupled qubits that are also idle during (part
        of) the interval; ZZ crosstalk is accumulated against those.  The ZZ
        angle is split evenly between the two qubits' own idle processing so
        overlapping intervals are not double counted.
        """
        neighbors_key = tuple(idle_neighbors) if idle_neighbors else ()
        key = ("idle", qubit, start_ns, end_ns, neighbors_key, self._flag_key())
        return self._cached_channels(
            key, lambda: self._build_idle_channels(qubit, start_ns, end_ns, idle_neighbors)
        )

    def _build_idle_channels(
        self,
        qubit: int,
        start_ns: float,
        end_ns: float,
        idle_neighbors: Optional[Sequence[int]] = None,
    ) -> List[ChannelOp]:
        duration = end_ns - start_ns
        if duration <= 1e-12:
            return []
        props = self.device.qubits[qubit]
        ops: List[ChannelOp] = []
        if self.include_relaxation:
            ops.append(self._relaxation(qubit, duration))
        if self.include_coherent_errors:
            phase = props.integrated_detuning(
                start_ns + self.time_offset_ns, end_ns + self.time_offset_ns
            )
            if phase:
                ops.append(ChannelOp(channels.coherent_z_kraus(phase), (qubit,)))
        if self.include_crosstalk and idle_neighbors:
            for neighbor in idle_neighbors:
                rate = self.device.zz_rate(qubit, neighbor)
                if rate:
                    # Half the accumulated angle from each side of the pair.
                    angle = 0.5 * rate * duration
                    ops.append(ChannelOp(channels.coherent_zz_kraus(angle), (qubit, neighbor)))
        return ops

    # -- gate noise ---------------------------------------------------------------
    def gate_channels(self, name: str, qubits: Sequence[int]) -> List[ChannelOp]:
        """Noise applied together with a gate (after its ideal unitary)."""
        key = ("gate", name, tuple(qubits), self._flag_key())
        return self._cached_channels(key, lambda: self._build_gate_channels(name, qubits))

    def gate_step(self, name: str, qubits: Tuple[int, ...], matrix: np.ndarray) -> ChannelOp:
        """One gate as one channel on ``qubits``: its unitary ``matrix``, then
        every one of :meth:`gate_channels`, composed once.

        Memoised per (name, physical qubits, matrix content, flags), so a
        schedule walk applies each distinct gate step as one precomposed
        superoperator instead of a unitary plus a channel per noise process.
        A miss (a new angle, a fresh noise model) costs the unitary's
        superoperator and one small matmul with the gate's noise, which is
        composed once per (name, qubits, flags).
        """
        key = ("step", name, qubits, matrix.tobytes(), self._flag_key())
        return self._cached_channels(
            key, lambda: [self._build_gate_step(name, qubits, matrix)]
        )[0]

    def _build_gate_step(self, name: str, qubits: Tuple[int, ...], matrix: np.ndarray) -> ChannelOp:
        step = ChannelOp([matrix], qubits)
        key = ("gate noise", name, qubits, self._flag_key())
        for noise in self._cached_channels(key, lambda: self._build_gate_noise(name, qubits)):
            step = ChannelOp.from_superop(noise.superop @ step.superop, qubits)
        return step

    def _build_gate_noise(self, name: str, qubits: Tuple[int, ...]) -> List[ChannelOp]:
        """:meth:`gate_channels` composed into one channel on ``qubits`` (in
        that order), or none for a noiseless gate."""
        ops = self.gate_channels(name, qubits)
        if not ops:
            return []
        width = len(qubits)
        superop = np.eye(4 ** width, dtype=complex)
        # Each column of the superoperator is a vectorised density matrix;
        # a channel applies to every column on its qubits' row and column axes.
        shape = (2,) * (2 * width) + (4 ** width,)
        for op in ops:
            axes = tuple(qubits.index(q) for q in op.qubits)
            plan = qubit_plan(shape, axes, width, (0, width))
            superop = plan.apply(op.superop, superop)
        return [ChannelOp.from_superop(np.ascontiguousarray(superop), qubits)]

    def _build_gate_channels(self, name: str, qubits: Sequence[int]) -> List[ChannelOp]:
        name = name.lower()
        if name in ("barrier", "delay", "measure", "id", "rz", "p"):
            return []
        ops: List[ChannelOp] = []
        duration = self.device.gate_duration(name, qubits)
        if self.include_relaxation and duration > 0:
            for q in qubits:
                ops.append(self._relaxation(q, duration))
        if self.include_gate_error:
            error = self.device.gate_error(name, qubits)
            if error > 0:
                ops.append(
                    ChannelOp(
                        channels.depolarizing_kraus(error, num_qubits=len(qubits)),
                        tuple(qubits),
                    )
                )
        return ops

    # -- readout ---------------------------------------------------------------------
    def readout_confusion(self, qubit: int) -> np.ndarray:
        """2x2 confusion matrix for the qubit (identity when readout error is off)."""
        if not self.include_readout_error:
            return np.eye(2)
        return self.device.readout_confusion_matrix(qubit)

    def measurement_prelude_channels(self, qubit: int) -> List[ChannelOp]:
        """Relaxation during the readout pulse itself (applied before sampling)."""
        key = ("measure", qubit, self._flag_key())
        return self._cached_channels(key, lambda: self._build_measurement_prelude(qubit))

    def _build_measurement_prelude(self, qubit: int) -> List[ChannelOp]:
        if not self.include_relaxation:
            return []
        return [self._relaxation(qubit, self.device.readout_duration_ns)]

    def _relaxation(self, qubit: int, duration: float) -> ChannelOp:
        """T1/T2 relaxation over ``duration``, memoised per (qubit, duration,
        flags): idle channels are keyed by absolute time, this part is not."""

        def build() -> List[ChannelOp]:
            props = self.device.qubits[qubit]
            kraus = channels.thermal_relaxation_kraus(duration, props.t1_ns, props.t2_ns)
            return [ChannelOp(kraus, (qubit,))]

        return self._cached_channels(("relax", qubit, duration, self._flag_key()), build)[0]

    def __repr__(self):
        flavour = "device" if self.include_coherent_errors else (
            "ideal" if self.is_noiseless() else "calibration"
        )
        return f"NoiseModel({self.device.name}, flavour={flavour})"
