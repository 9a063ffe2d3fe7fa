"""Pauli-transfer-matrix (PTM) simulation backend.

In the PTM picture an n-qubit state is the real vector of its components in
the normalised Pauli basis ``b_a = P_a / 2**(n/2)`` (``r_a = Tr[b_a rho]``),
and *every* operation — gate steps and noise channels alike — is one real
``4**k x 4**k`` matrix acting on the targeted qubit axes:

    r' = R r,      R_ij = Tr[P_i E(P_j)] / 2**k.

That uniformity is the whole point: where the dense backend applies each
channel of the op stream (a gate arrives already composed with its noise) as
one complex superoperator contraction, consecutive operations on the same
qubit footprint here *fuse* into a single composed matrix
(``R = R_m @ ... @ R_1``) applied once, and a batch of states evolves as one
``(batch, 4**n)`` real array per kernel call.  Fewer, larger,
BLAS-shaped kernels — the throughput lever this reproduction's hot path needs
on CPU, and the layout a CuPy drop-in would want on GPU.

The module provides:

* :func:`pauli_basis` — the (unnormalised) n-qubit Pauli operator basis,
* :func:`superop_to_ptm` (with :func:`unitary_to_ptm` / :func:`kraus_to_ptm`
  through it) — PTM compilation, with the memoised fronts
  :func:`unitary_ptm` (per matrix content) and :func:`channel_ptm` (per
  channel object),
* :class:`PauliVectorState` — one state *or a batch* as a ``(batch, 4**n)``
  real array, with probability/marginal semantics matching
  :class:`~repro.simulators.density_matrix.DensityMatrix` and direct Pauli
  expectation values (no density-matrix round trip),
* :class:`PTMEvolver` — the schedule walker: consumes the *same*
  :meth:`NoisySimulator.schedule_ops` stream as the dense backend and applies
  it as fused PTM kernels through a resumable :class:`PTMCursor`.

Determinism contract (what lets the engine mix cold runs, warm resumes and
batches freely): fused runs never cross an instruction index that is a
multiple of :attr:`PTMEvolver.fusion_stride`, so the sequence of composed
kernels is a pure function of schedule content — independent of where the
engine chooses to pause, checkpoint or resume, as long as resume depths fall
on the stride grid (the engine rounds its checkpoint interval accordingly).
Batched kernels are elementwise along the batch axis, so evolving rows
together is bit-identical to evolving them one at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .channels import superop_from_kraus
from .contraction import qubit_plan
from .density_matrix import DensityMatrix
from .noise_model import ChannelOp, NoiseModel
from .noisy_simulator import (
    NoisySimulator,
    ScheduleContext,
    SimOp,
    _segment_last_time_updates,
)

_PAULIS_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

#: Normalised single-qubit basis stacked as a (4, 2, 2) tensor; the building
#: block of the state <-> density-matrix conversions.
_BASIS_1Q = np.stack(_PAULIS_1Q) / math.sqrt(2.0)

_LABEL_TO_DIGIT = {"I": 0, "X": 1, "Y": 2, "Z": 3}


@lru_cache(maxsize=None)
def pauli_basis(num_qubits: int) -> np.ndarray:
    """The unnormalised Pauli operator basis as a ``(4**n, 2**n, 2**n)`` stack.

    Index ``a`` is base-4 big-endian over qubits (qubit 0 is the most
    significant digit), matching the computational-basis bit convention of
    :class:`DensityMatrix`.
    """
    if num_qubits < 1:
        raise SimulationError("the Pauli basis needs at least one qubit")
    basis = np.stack(_PAULIS_1Q)
    for _ in range(num_qubits - 1):
        basis = np.stack(
            [np.kron(a, b) for a in basis for b in _PAULIS_1Q]
        )
    basis.setflags(write=False)
    return basis


# ----------------------------------------------------------------------------
# PTM compilation
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pauli_vectors(num_qubits: int) -> np.ndarray:
    """Row ``a`` is ``vec(P_a)``, the row-major vectorised Pauli operator."""
    vectors = pauli_basis(num_qubits).reshape(4 ** num_qubits, -1)
    vectors.setflags(write=False)
    return vectors


def superop_to_ptm(superop: np.ndarray) -> np.ndarray:
    """The PTM of the channel with the given superoperator.

    ``superop`` acts on row-major-vectorised density matrices (the layout of
    ``ChannelOp.superop``), so ``R_ij = vec(P_i)^dagger S vec(P_j) / 2**n``:
    one fixed change of basis.  The PTM is real for any Hermiticity-
    preserving map (every channel here), so the imaginary residue is dropped.
    """
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(math.sqrt(superop.shape[0])))
    num_qubits = int(round(math.log2(dim)))
    if 2 ** num_qubits != dim or superop.shape != (dim * dim, dim * dim):
        raise SimulationError("superoperator dimension is not 4**n x 4**n")
    vectors = _pauli_vectors(num_qubits)
    ptm = (vectors.conj() @ superop @ vectors.T).real / dim
    return np.ascontiguousarray(ptm)


def kraus_to_ptm(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """The PTM of the channel with the given Kraus operators, compiled
    through its superoperator (see :func:`superop_to_ptm`)."""
    return superop_to_ptm(superop_from_kraus([np.asarray(k, dtype=complex) for k in kraus]))


def unitary_to_ptm(matrix: np.ndarray) -> np.ndarray:
    """The (orthogonal) PTM of a unitary gate."""
    return kraus_to_ptm([matrix])


@lru_cache(maxsize=64)
def _unitary_ptm(content: bytes, shape: Tuple[int, int]) -> np.ndarray:
    ptm = unitary_to_ptm(np.frombuffer(content, dtype=complex).reshape(shape).copy())
    ptm.setflags(write=False)
    return ptm


def unitary_ptm(matrix: np.ndarray) -> np.ndarray:
    """:func:`unitary_to_ptm`, memoised on the matrix's exact content (the
    returned array is shared: read-only)."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    return _unitary_ptm(matrix.tobytes(), matrix.shape)


def channel_ptm(channel: ChannelOp) -> np.ndarray:
    """PTM of a channel, compiled from its superoperator on the first call
    and kept on the channel (read-only) for every later one."""
    if channel._ptm is None:
        ptm = superop_to_ptm(channel.superop)
        ptm.setflags(write=False)
        channel._ptm = ptm
    return channel._ptm


def sim_op_ptm(op: SimOp) -> np.ndarray:
    """The PTM of one :class:`SimOp` from the schedule op stream."""
    return channel_ptm(op.channel)


# ----------------------------------------------------------------------------
# Pauli-vector states
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _iz_indices(num_qubits: int) -> np.ndarray:
    """Base-4 indices whose digits are all I or Z, ordered so that entry ``b``
    has digit Z exactly where computational index ``b`` has bit 1."""
    b = np.arange(2 ** num_qubits)
    indices = np.zeros(2 ** num_qubits, dtype=np.intp)
    for q in range(num_qubits):
        bit = (b >> (num_qubits - 1 - q)) & 1
        indices += bit * 3 * 4 ** (num_qubits - 1 - q)
    indices.setflags(write=False)
    return indices


def _walsh_hadamard(block: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis of a ``(B, m)`` array.

    Pure +/- butterflies: exact row independence (batched == single-row, bit
    for bit) and a deterministic association order.
    """
    out = block.copy()
    rows, m = out.shape
    h = 1
    while h < m:
        view = out.reshape(rows, m // (2 * h), 2, h)
        x = view[:, :, 0, :].copy()
        y = view[:, :, 1, :].copy()
        view[:, :, 0, :] = x + y
        view[:, :, 1, :] = x - y
        h *= 2
    return out


class PauliVectorState:
    """One n-qubit state — or a batch of them — in the Pauli-vector picture.

    ``data`` is a real ``(batch, 4**n)`` float64 array; every operation is
    elementwise along the batch axis, so the single-state and batched code
    paths are the same code (and bit-identical per row).  The array layout is
    deliberately the one a GPU drop-in (CuPy) would use unchanged.
    """

    __slots__ = ("num_qubits", "data")

    def __init__(
        self,
        num_qubits: int,
        data: Optional[np.ndarray] = None,
        batch: int = 1,
    ):
        if num_qubits < 1:
            raise SimulationError("a Pauli-vector state needs at least one qubit")
        self.num_qubits = int(num_qubits)
        dim = 4 ** self.num_qubits
        if data is None:
            if batch < 1:
                raise SimulationError("batch size must be at least 1")
            # |0...0>: every I/Z component equals 2**(-n/2), all others zero.
            self.data = np.zeros((batch, dim), dtype=float)
            self.data[:, _iz_indices(self.num_qubits)] = 2.0 ** (-self.num_qubits / 2.0)
        else:
            data = np.asarray(data, dtype=float)
            if data.ndim == 1:
                data = data.reshape(1, -1)
            if data.ndim != 2 or data.shape[1] != dim:
                raise SimulationError(
                    f"expected a (batch, {dim}) Pauli vector, got {data.shape}"
                )
            self.data = data.copy()

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_density_matrix(cls, rho: DensityMatrix) -> "PauliVectorState":
        """Exact conversion ``r_a = Tr[b_a rho]`` (imaginary residue dropped)."""
        n = rho.num_qubits
        tensor = rho.data.reshape((2,) * (2 * n))
        remaining = n
        while remaining:
            # Contract (row, col) of the leading qubit with the normalised
            # basis: the new Pauli axis appends at the end, in qubit order.
            tensor = np.tensordot(tensor, _BASIS_1Q, axes=((remaining, 0), (1, 2)))
            remaining -= 1
        vector = np.real(tensor).reshape(1, 4 ** n)
        return cls(n, data=vector)

    @classmethod
    def stack(cls, states: Sequence["PauliVectorState"]) -> "PauliVectorState":
        """Concatenate states row-wise into one batched state (exact copies)."""
        if not states:
            raise SimulationError("cannot stack zero states")
        n = states[0].num_qubits
        if any(s.num_qubits != n for s in states):
            raise SimulationError("cannot stack states of different sizes")
        return cls(n, data=np.concatenate([s.data for s in states], axis=0))

    def copy(self) -> "PauliVectorState":
        return PauliVectorState(self.num_qubits, data=self.data)

    def row(self, index: int) -> "PauliVectorState":
        """A single-state copy of one batch row."""
        return PauliVectorState(self.num_qubits, data=self.data[index : index + 1])

    # -- basic properties ---------------------------------------------------
    @property
    def batch(self) -> int:
        return int(self.data.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def trace(self) -> float:
        """``Tr[rho]`` of a single state (``r_0 * 2**(n/2)``)."""
        self._require_single()
        return float(self.data[0, 0] * 2.0 ** (self.num_qubits / 2.0))

    def purity(self) -> float:
        """``Tr[rho^2]`` — the squared norm of the Pauli vector."""
        self._require_single()
        return float(np.dot(self.data[0], self.data[0]))

    def _require_single(self) -> None:
        if self.data.shape[0] != 1:
            raise SimulationError(
                "this operation needs a single state; use the batch_* variant"
            )

    # -- evolution ----------------------------------------------------------
    def apply_ptm(self, ptm: np.ndarray, positions: Sequence[int]) -> None:
        """Apply a ``4**k x 4**k`` PTM to the given qubit positions, all rows."""
        ptm = np.asarray(ptm, dtype=float)
        k = len(positions)
        if ptm.shape != (4 ** k, 4 ** k):
            raise SimulationError("PTM dimension does not match the target qubits")
        n = self.num_qubits
        # Axis 0 is the batch; qubit q's Pauli axis is q + 1.
        plan = qubit_plan(self.data.shape[:1] + (4,) * n, tuple(positions), n, (1,))
        self.data = np.ascontiguousarray(plan.apply(ptm, self.data))

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a unitary gate (compiled to a PTM by :func:`unitary_ptm`)."""
        self.apply_ptm(unitary_ptm(matrix), tuple(qubits))

    def apply_superop(self, superop: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a channel given as a (column-stacking) superoperator.

        Present for interface parity with :class:`DensityMatrix`.
        """
        self.apply_ptm(superop_to_ptm(superop), tuple(qubits))

    # -- measurement --------------------------------------------------------
    def batch_probabilities(self) -> np.ndarray:
        """Computational-basis probabilities of every row, ``(batch, 2**n)``.

        Matches :meth:`DensityMatrix.probabilities` semantics per row:
        negative diagonal residue is clipped at zero and the distribution is
        renormalised.
        """
        n = self.num_qubits
        iz = self.data[:, _iz_indices(n)]
        probs = _walsh_hadamard(iz) * 2.0 ** (-n / 2.0)
        probs[probs < 0] = 0.0
        totals = probs.sum(axis=1)
        if np.any(totals <= 0):
            raise SimulationError("density matrix has no probability mass")
        return probs / totals[:, None]

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities of a single state."""
        self._require_single()
        return self.batch_probabilities()[0]

    def batch_marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Per-row marginal outcome probabilities on ``qubits`` (given order)."""
        qubits = list(qubits)
        k = len(qubits)
        n = self.num_qubits
        if len(set(qubits)) != k or any(not 0 <= q < n for q in qubits):
            raise SimulationError(f"invalid target qubits {tuple(qubits)}")
        probs = self.batch_probabilities()
        rows = probs.shape[0]
        tensor = probs.reshape((rows,) + (2,) * n)
        keep = [q + 1 for q in qubits]
        other = tuple(axis for axis in range(1, n + 1) if axis not in keep)
        summed = tensor.sum(axis=other) if other else tensor
        # Summed axes keep ascending qubit order; reorder to the given order.
        ascending = sorted(qubits)
        perm = [0] + [1 + ascending.index(q) for q in qubits]
        return np.ascontiguousarray(summed.transpose(perm).reshape(rows, 2 ** k))

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Marginal outcome probabilities of a single state."""
        self._require_single()
        return self.batch_marginal_probabilities(qubits)[0]

    def expectation(self, observable, positions: Optional[Sequence[int]] = None) -> np.ndarray:
        """Exact ``<O>`` per batch row, straight from the Pauli vector.

        ``observable`` is a :class:`~repro.operators.pauli.PauliSum`; each
        term ``<P> = r_idx(P) * 2**(n/2)`` is a single component lookup — no
        density matrix, no basis rotation.  ``positions`` maps the
        observable's logical qubits to state positions (identity by default).
        Assumes trace-1 rows (trace-preserving evolution keeps them so).
        """
        n = self.num_qubits
        if positions is None:
            positions = tuple(range(observable.num_qubits))
        positions = tuple(positions)
        if len(positions) != observable.num_qubits:
            raise SimulationError("positions must map every observable qubit")
        values = np.full(self.data.shape[0], observable.identity_coefficient())
        scale = 2.0 ** (n / 2.0)
        for pauli, coeff in observable.non_identity_terms():
            index = 0
            for q, letter in enumerate(pauli.label):
                index += _LABEL_TO_DIGIT[letter] * 4 ** (n - 1 - positions[q])
            values = values + coeff * self.data[:, index] * scale
        return values

    # -- conversion ---------------------------------------------------------
    def to_density_matrix(self) -> DensityMatrix:
        """Exact conversion ``rho = sum_a r_a b_a`` of a single state."""
        self._require_single()
        n = self.num_qubits
        tensor = self.data[0].reshape((4,) * n).astype(complex)
        for _ in range(n):
            # Contract the leading Pauli axis with the normalised basis; the
            # (row, col) pair of that qubit appends at the end, in order.
            tensor = np.tensordot(tensor, _BASIS_1Q, axes=([0], [0]))
        perm = [2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]
        matrix = tensor.transpose(perm).reshape(2 ** n, 2 ** n)
        return DensityMatrix(n, data=matrix)


# ----------------------------------------------------------------------------
# Schedule evolution
# ----------------------------------------------------------------------------

class PTMCursor:
    """Mid-schedule PTM evolution state, plus per-leg kernel counters.

    ``matmuls`` / ``fused`` count work done *since this cursor was created or
    copied* — the engine folds them into its stats and snapshot copies start
    from zero, so resumed legs never double-count.  The ``segment_*``
    counters track segment-cache outcomes of segmented advances (see
    :mod:`repro.engine.segments`) under the same contract.
    """

    __slots__ = (
        "state",
        "last_time",
        "next_index",
        "matmuls",
        "fused",
        "segment_hits",
        "segment_misses",
        "segment_instructions",
    )

    def __init__(
        self,
        state: PauliVectorState,
        last_time: Dict[int, float],
        next_index: int = 0,
    ):
        self.state = state
        self.last_time = last_time
        self.next_index = next_index
        self.matmuls = 0
        self.fused = 0
        self.segment_hits = 0
        self.segment_misses = 0
        self.segment_instructions = 0

    def copy(self) -> "PTMCursor":
        return PTMCursor(self.state.copy(), dict(self.last_time), self.next_index)

    @property
    def nbytes(self) -> int:
        return int(self.state.data.nbytes)


class PTMEvolver:
    """Walks schedules as fused PTM kernels; drop-in for :class:`NoisySimulator`
    behind the engine's cursor API (``prepare`` / ``begin`` / ``advance``).

    Fusion rule: consecutive ops of the op stream acting on the *same* qubit
    footprint compose into one pending PTM (``pending = R_op @ pending``),
    flushed when the footprint changes — and unconditionally at instruction
    indices that are multiples of :attr:`fusion_stride`, which pins the
    composed-kernel sequence to schedule content alone (see module docstring).
    """

    #: Fusion runs never cross instruction indices that are multiples of this;
    #: the engine also aligns its checkpoint interval (and therefore every
    #: snapshot/resume depth) to it.
    fusion_stride = 8

    def __init__(self, noise_model: NoiseModel):
        self._simulator = NoisySimulator(noise_model)
        self.noise_model = noise_model

    def prepare(self, scheduled) -> ScheduleContext:
        return self._simulator.prepare(scheduled)

    def begin(self, scheduled, context: Optional[ScheduleContext] = None) -> PTMCursor:
        context = context or self.prepare(scheduled)
        return PTMCursor(
            PauliVectorState(scheduled.num_qubits),
            dict(context.initial_last_time),
            0,
        )

    def advance(
        self,
        scheduled,
        cursor: PTMCursor,
        context: Optional[ScheduleContext] = None,
        stop_index: Optional[int] = None,
        segments=None,
    ) -> PTMCursor:
        """Process instructions ``cursor.next_index .. stop_index`` in place.

        ``segments`` — a :class:`repro.engine.segments.SegmentRuntime` with
        one key per fusion-stride block — enables segment-level reuse: each
        *whole* stride block's fused kernels are recorded in / replayed from
        the shared segment cache.  Off-grid resumes or stops fall back to the
        plain walk for the partial block (segment records always cover whole
        blocks), so arbitrary stop indices stay valid.  Replay applies the
        identical composed kernels in the identical order — and re-counts
        ``matmuls``/``fused`` as the cold walk would — so states and work
        counters are bit-identical with ``segments`` on or off.
        """
        context = context or self.prepare(scheduled)
        stop = len(context.ordered) if stop_index is None else min(stop_index, len(context.ordered))
        if segments is None:
            return self._advance_plain(scheduled, cursor, context, stop)
        stride = self.fusion_stride
        total = len(context.ordered)
        while cursor.next_index < stop:
            block_start = (cursor.next_index // stride) * stride
            block_end = min(block_start + stride, total)
            if cursor.next_index != block_start or stop < block_end:
                self._advance_plain(scheduled, cursor, context, min(stop, block_end))
            else:
                self._advance_block(
                    scheduled, cursor, context, block_start, block_end, segments
                )
        return cursor

    def _advance_plain(
        self,
        scheduled,
        cursor: PTMCursor,
        context: ScheduleContext,
        stop: int,
    ) -> PTMCursor:
        state = cursor.state
        stride = self.fusion_stride
        pending: Optional[np.ndarray] = None
        pending_positions: Optional[Tuple[int, ...]] = None
        pending_block = -1
        for op in self._simulator.schedule_ops(
            scheduled, context, cursor.last_time, cursor.next_index, stop
        ):
            ptm = sim_op_ptm(op)
            block = op.index // stride
            if pending is not None and (
                op.positions != pending_positions or block != pending_block
            ):
                state.apply_ptm(pending, pending_positions)
                cursor.matmuls += 1
                pending = None
            if pending is None:
                pending = ptm
                pending_positions = op.positions
                pending_block = block
            else:
                pending = ptm @ pending
                cursor.fused += 1
        if pending is not None:
            state.apply_ptm(pending, pending_positions)
            cursor.matmuls += 1
        cursor.next_index = stop
        return cursor

    def _advance_block(
        self,
        scheduled,
        cursor: PTMCursor,
        context: ScheduleContext,
        start: int,
        stop: int,
        segments,
    ) -> PTMCursor:
        """Segment-cached walk of one whole fusion-stride block.

        The cold path runs the standard fusion loop confined to the block
        (fused runs never cross block boundaries, so confinement changes
        nothing) while recording each flushed ``(kernel, positions, fused)``
        triple; the warm path replays the triples.  Both apply the same
        arrays in the same order.
        """
        cache = segments.cache
        key = segments.keys[start // self.fusion_stride]
        record, claim = cache.acquire(key)
        state = cursor.state
        if record is None:
            ops = []
            try:
                pending: Optional[np.ndarray] = None
                pending_positions: Optional[Tuple[int, ...]] = None
                run_fused = 0
                for op in self._simulator.schedule_ops(
                    scheduled, context, cursor.last_time, start, stop
                ):
                    ptm = sim_op_ptm(op)
                    if pending is not None and op.positions != pending_positions:
                        state.apply_ptm(pending, pending_positions)
                        cursor.matmuls += 1
                        ops.append((pending, pending_positions, run_fused))
                        pending = None
                    if pending is None:
                        pending = ptm
                        pending_positions = op.positions
                        run_fused = 0
                    else:
                        pending = ptm @ pending
                        cursor.fused += 1
                        run_fused += 1
                if pending is not None:
                    state.apply_ptm(pending, pending_positions)
                    cursor.matmuls += 1
                    ops.append((pending, pending_positions, run_fused))
            except BaseException:
                cache.abandon(key, claim)
                raise
            updates: List[Tuple[int, float]] = []
            for index in range(start, stop):
                updates.extend(_segment_last_time_updates(context.ordered[index]))
            cache.fulfil(key, claim, tuple(ops), tuple(updates), stop - start)
            cursor.segment_misses += 1
        else:
            for ptm, positions, run_fused in record.ops:
                state.apply_ptm(ptm, positions)
                cursor.matmuls += 1
                cursor.fused += run_fused
            for position, end_ns in record.last_time:
                cursor.last_time[position] = end_ns
            cursor.segment_hits += 1
            cursor.segment_instructions += record.instructions
        cursor.next_index = stop
        return cursor

    def run(self, scheduled) -> PauliVectorState:
        """Evolve the Pauli vector through the full schedule."""
        context = self.prepare(scheduled)
        cursor = self.begin(scheduled, context)
        self.advance(scheduled, cursor, context)
        return cursor.state


def dense_contraction_count(noise_model: NoiseModel, scheduled) -> int:
    """How many tensor contractions the dense backend spends on a schedule.

    Walks the op stream without simulating: every op is one channel (a gate
    step arrives composed with its noise), applied as one superoperator
    contraction.  The benchmark's kernel comparison uses this as the
    dense-side invocation count to set against the PTM backend's
    ``ptm_matmuls``.
    """
    simulator = NoisySimulator(noise_model)
    context = simulator.prepare(scheduled)
    last_time = dict(context.initial_last_time)
    return sum(
        1
        for _ in simulator.schedule_ops(
            scheduled, context, last_time, 0, len(context.ordered)
        )
    )
