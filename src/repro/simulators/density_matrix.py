"""Density-matrix state representation and channel application.

The noisy simulator tracks the full density matrix of the circuit's qubits
(at most 7 in the paper's experiments, i.e. 128x128), applying unitary gates
and Kraus channels in schedule order.  :class:`DensityMatrix` provides the
linear-algebra primitives; the schedule walking lives in
:mod:`repro.simulators.noisy_simulator`.

Big-endian convention throughout: qubit 0 is the most-significant bit of the
basis index.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .contraction import ContractionPlan, qubit_plan


class DensityMatrix:
    """A mutable n-qubit density matrix."""

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        if num_qubits < 1:
            raise SimulationError("a density matrix needs at least one qubit")
        self.num_qubits = int(num_qubits)
        dim = 2 ** self.num_qubits
        if data is None:
            self.data = np.zeros((dim, dim), dtype=complex)
            self.data[0, 0] = 1.0
        else:
            data = np.asarray(data, dtype=complex)
            if data.shape != (dim, dim):
                raise SimulationError(f"expected a {dim}x{dim} matrix, got {data.shape}")
            self.data = data.copy()

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_statevector(cls, statevector: np.ndarray) -> "DensityMatrix":
        vec = np.asarray(statevector, dtype=complex).reshape(-1)
        num_qubits = int(np.log2(vec.size))
        if 2 ** num_qubits != vec.size:
            raise SimulationError("statevector length is not a power of two")
        out = cls(num_qubits)
        out.data = np.outer(vec, vec.conj())
        return out

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, self.data)

    # -- basic properties -----------------------------------------------------
    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    def purity(self) -> float:
        """``Tr[rho^2]`` — 1 for pure states, 1/d for the maximally mixed state."""
        return float(np.real(np.trace(self.data @ self.data)))

    def is_physical(self, atol: float = 1e-7) -> bool:
        """Hermitian, unit trace, positive semidefinite (up to tolerance)."""
        if not np.allclose(self.data, self.data.conj().T, atol=atol):
            return False
        if abs(self.trace() - 1.0) > 1e-6:
            return False
        eigvals = np.linalg.eigvalsh(self.data)
        return bool(eigvals.min() > -atol)

    # -- index helpers -----------------------------------------------------------
    def _plan(self, qubits: Sequence[int], offsets: Tuple[int, ...]) -> ContractionPlan:
        """Plan on the rank-2n density tensor: offset 0 targets rows, n columns."""
        n = self.num_qubits
        return qubit_plan((2,) * (2 * n), tuple(qubits), n, offsets)

    def _check_operator(self, matrix: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2 ** len(qubits),) * 2:
            raise SimulationError("operator dimension does not match the number of target qubits")
        return matrix

    # -- evolution ----------------------------------------------------------------
    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a unitary acting on ``qubits``: rho -> U rho U^dagger."""
        matrix = self._check_operator(matrix, qubits)
        rows = self._plan(qubits, (0,))
        columns = self._plan(qubits, (self.num_qubits,))
        self.data = columns.apply(matrix.conj(), rows.apply(matrix, self.data))

    def apply_kraus(self, kraus: Iterable[np.ndarray], qubits: Sequence[int]) -> None:
        """Apply a Kraus channel acting on ``qubits``."""
        rows = self._plan(qubits, (0,))
        columns = self._plan(qubits, (self.num_qubits,))
        new = np.zeros_like(self.data)
        for k in kraus:
            matrix = self._check_operator(k, qubits)
            new += columns.apply(matrix.conj(), rows.apply(matrix, self.data))
        self.data = new

    def apply_superop(self, superop: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a channel given as a superoperator acting on ``qubits``.

        ``superop`` is the ``4^k x 4^k`` matrix ``sum_i K_i (x) conj(K_i)``
        acting jointly on the row and column indices of the density matrix.
        One contraction replaces the ``2 * len(kraus)`` contractions of
        :meth:`apply_kraus`, which is what makes schedule-aware simulation of
        many-channel noise models affordable in hot loops.
        """
        superop = np.asarray(superop, dtype=complex)
        k = len(qubits)
        if superop.shape != (4 ** k, 4 ** k):
            raise SimulationError("superoperator dimension does not match the target qubits")
        self.data = self._plan(qubits, (0, self.num_qubits)).apply(superop, self.data)

    # -- measurement -----------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities (the diagonal, clipped at 0)."""
        probs = np.real(np.diag(self.data)).copy()
        probs[probs < 0] = 0.0
        total = probs.sum()
        if total <= 0:
            raise SimulationError("density matrix has no probability mass")
        return probs / total

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Probabilities of outcomes on a subset of qubits (in the given order)."""
        probs = self.probabilities()
        n = self.num_qubits
        k = len(qubits)
        out = np.zeros(2 ** k)
        for index, p in enumerate(probs):
            if p == 0.0:
                continue
            key = 0
            for q in qubits:
                bit = (index >> (n - 1 - q)) & 1
                key = (key << 1) | bit
            out[key] += p
        return out

    def sample_counts(
        self,
        shots: int,
        qubits: Optional[Sequence[int]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, int]:
        """Sample ``shots`` measurement outcomes on ``qubits`` (all by default)."""
        rng = rng or np.random.default_rng()
        qubits = list(qubits) if qubits is not None else list(range(self.num_qubits))
        probs = self.marginal_probabilities(qubits)
        outcomes = rng.multinomial(shots, probs)
        counts: Dict[str, int] = {}
        width = len(qubits)
        for index, count in enumerate(outcomes):
            if count:
                counts[format(index, f"0{width}b")] = int(count)
        return counts

    def expectation(self, observable_matrix: np.ndarray) -> float:
        """``Tr[O rho]`` for a Hermitian operator ``O`` on the full register."""
        observable_matrix = np.asarray(observable_matrix, dtype=complex)
        if observable_matrix.shape != self.data.shape:
            raise SimulationError("observable dimension does not match the density matrix")
        return float(np.real(np.trace(observable_matrix @ self.data)))

    def fidelity_with_pure_state(self, statevector: np.ndarray) -> float:
        """``<psi| rho |psi>`` against a pure reference state."""
        vec = np.asarray(statevector, dtype=complex).reshape(-1)
        if vec.size != self.data.shape[0]:
            raise SimulationError("reference state dimension mismatch")
        return float(np.real(vec.conj() @ self.data @ vec))
