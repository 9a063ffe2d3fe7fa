"""Pauli strings and weighted Pauli sums (observables / Hamiltonians).

The VQE objective is the expectation value of a Hamiltonian expressed as a
weighted sum of Pauli strings.  This module provides:

* :class:`PauliString` — an n-qubit tensor product of ``I/X/Y/Z`` factors,
* :class:`PauliSum` — a real-weighted sum of Pauli strings with simplification,
  exact dense-matrix construction, exact ground-state solving and grouping of
  terms into joint measurement bases (qubit-wise commuting groups), which is
  what the shot-based expectation estimator consumes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import VQEError

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_VALID = frozenset("IXYZ")


class PauliString:
    """An n-qubit Pauli operator such as ``"ZZIIXI"``.

    The label is big-endian: character 0 acts on qubit 0, matching the
    circuit/simulator convention throughout the library.
    """

    __slots__ = ("_label",)

    def __init__(self, label: str):
        label = label.upper()
        if not label or any(ch not in _VALID for ch in label):
            raise VQEError(f"invalid Pauli label '{label}'")
        self._label = label

    @property
    def label(self) -> str:
        return self._label

    @property
    def num_qubits(self) -> int:
        return len(self._label)

    def weight(self) -> int:
        """Number of non-identity factors."""
        return sum(1 for ch in self._label if ch != "I")

    def support(self) -> Tuple[int, ...]:
        """Indices of qubits acted on non-trivially."""
        return tuple(i for i, ch in enumerate(self._label) if ch != "I")

    def factor(self, qubit: int) -> str:
        return self._label[qubit]

    def is_identity(self) -> bool:
        return self.weight() == 0

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the Pauli string (big-endian tensor order)."""
        matrix = np.array([[1.0 + 0j]])
        for ch in self._label:
            matrix = np.kron(matrix, _PAULI_MATRICES[ch])
        return matrix

    def commutes_qubitwise(self, other: "PauliString") -> bool:
        """Qubit-wise commutation: on every qubit the factors are equal or one is I."""
        if self.num_qubits != other.num_qubits:
            raise VQEError("Pauli strings act on different numbers of qubits")
        for a, b in zip(self._label, other._label):
            if a != "I" and b != "I" and a != b:
                return False
        return True

    def expectation_sign(self, bitstring: str) -> int:
        """Sign contribution (+1/-1) of a measured bitstring for this Pauli.

        Assumes measurement was performed in this Pauli's own basis (i.e. the
        appropriate basis-change gates were applied before Z-measurement), so
        each non-identity factor contributes ``(-1)^bit``.
        """
        if len(bitstring) != self.num_qubits:
            raise VQEError("bitstring length does not match the Pauli string width")
        parity = 0
        for i, ch in enumerate(self._label):
            if ch != "I" and bitstring[i] == "1":
                parity ^= 1
        return -1 if parity else 1

    def __eq__(self, other):
        return isinstance(other, PauliString) and self._label == other._label

    def __hash__(self):
        return hash(self._label)

    def __repr__(self):
        return f"PauliString({self._label})"


class PauliSum:
    """A real-weighted sum of Pauli strings, e.g. ``0.5*ZZ + 0.3*XI``."""

    def __init__(self, terms: Optional[Mapping[str, float]] = None, num_qubits: Optional[int] = None):
        self._terms: Dict[PauliString, float] = {}
        self._num_qubits = num_qubits
        #: Read-only dense matrix, built on first use and dropped by add_term.
        self._matrix: Optional[np.ndarray] = None
        if terms:
            for label, coeff in terms.items():
                self.add_term(label, coeff)
        if self._num_qubits is None:
            raise VQEError("PauliSum needs at least one term or an explicit num_qubits")

    # -- construction ----------------------------------------------------
    def add_term(self, label, coeff: float) -> "PauliSum":
        pauli = label if isinstance(label, PauliString) else PauliString(label)
        if self._num_qubits is None:
            self._num_qubits = pauli.num_qubits
        elif pauli.num_qubits != self._num_qubits:
            raise VQEError(
                f"term {pauli.label} has {pauli.num_qubits} qubits, expected {self._num_qubits}"
            )
        new = self._terms.get(pauli, 0.0) + float(coeff)
        if abs(new) < 1e-15:
            self._terms.pop(pauli, None)
        else:
            self._terms[pauli] = new
        self._matrix = None
        return self

    @classmethod
    def from_list(cls, pairs: Iterable[Tuple[str, float]], num_qubits: Optional[int] = None) -> "PauliSum":
        pairs = list(pairs)
        if not pairs and num_qubits is None:
            raise VQEError("from_list needs terms or an explicit num_qubits")
        out = cls({}, num_qubits=num_qubits or len(pairs[0][0]))
        for label, coeff in pairs:
            out.add_term(label, coeff)
        return out

    # -- introspection ----------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> List[Tuple[PauliString, float]]:
        """Terms sorted by label for reproducible iteration."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].label)

    def coefficient(self, label) -> float:
        pauli = label if isinstance(label, PauliString) else PauliString(label)
        return self._terms.get(pauli, 0.0)

    def identity_coefficient(self) -> float:
        return self.coefficient("I" * self._num_qubits)

    def non_identity_terms(self) -> List[Tuple[PauliString, float]]:
        return [(p, c) for p, c in self.terms() if not p.is_identity()]

    def truncate(self, threshold: float) -> "PauliSum":
        """Drop terms whose |coefficient| is below ``threshold`` (paper §VII-A)."""
        kept = {p.label: c for p, c in self._terms.items() if abs(c) >= threshold or p.is_identity()}
        return PauliSum(kept, num_qubits=self._num_qubits)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.num_qubits != self._num_qubits:
            raise VQEError("cannot add PauliSums of different widths")
        out = PauliSum({p.label: c for p, c in self._terms.items()}, num_qubits=self._num_qubits)
        for p, c in other._terms.items():
            out.add_term(p, c)
        return out

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum(
            {p.label: c * float(scalar) for p, c in self._terms.items()},
            num_qubits=self._num_qubits,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "PauliSum":
        return self * -1.0

    # -- dense linear algebra ----------------------------------------------
    def _dense(self) -> np.ndarray:
        """The dense matrix, built once per set of terms (read-only, shared)."""
        if self._matrix is None:
            dim = 2 ** self._num_qubits
            matrix = np.zeros((dim, dim), dtype=complex)
            for pauli, coeff in self._terms.items():
                matrix += coeff * pauli.to_matrix()
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def to_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix of the observable (a copy the caller owns)."""
        return self._dense().copy()

    def __getstate__(self):
        # Pickled observables (e.g. shipped to process-tier workers) leave the
        # 16 * 4**n-byte matrix behind; it is rebuilt on first use.
        return {**self.__dict__, "_matrix": None}

    def ground_state(self) -> Tuple[float, np.ndarray]:
        """Exact lowest eigenvalue and eigenvector via dense diagonalisation."""
        eigvals, eigvecs = np.linalg.eigh(self._dense())
        return float(eigvals[0]), eigvecs[:, 0]

    def ground_energy(self) -> float:
        """Exact ground-state energy (the paper's 'optimal' reference value)."""
        return self.ground_state()[0]

    def expectation_from_statevector(self, statevector: np.ndarray) -> float:
        """Exact ``<psi|H|psi>`` for a pure state."""
        vec = np.asarray(statevector, dtype=complex).reshape(-1)
        if vec.size != 2 ** self._num_qubits:
            raise VQEError("statevector dimension does not match the observable width")
        return float(np.real(np.vdot(vec, self._dense() @ vec)))

    def expectation_from_density_matrix(self, rho: np.ndarray) -> float:
        """Exact ``Tr[H rho]`` for a (possibly mixed) state."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2 ** self._num_qubits,) * 2:
            raise VQEError("density matrix dimension does not match the observable width")
        return float(np.real(np.trace(self._dense() @ rho)))

    # -- measurement grouping -----------------------------------------------
    def group_commuting(self) -> List["MeasurementGroup"]:
        """Greedy grouping of terms into qubit-wise commuting measurement groups.

        Each group can be estimated from a single measured circuit whose
        per-qubit basis is the group's joint basis.  The identity term is
        excluded (it contributes its coefficient directly).
        """
        groups: List[MeasurementGroup] = []
        for pauli, coeff in self.terms():
            if pauli.is_identity():
                continue
            placed = False
            for group in groups:
                if group.accepts(pauli):
                    group.add(pauli, coeff)
                    placed = True
                    break
            if not placed:
                group = MeasurementGroup(self._num_qubits)
                group.add(pauli, coeff)
                groups.append(group)
        return groups

    def __repr__(self):
        parts = [f"{c:+.4g}*{p.label}" for p, c in self.terms()]
        return "PauliSum(" + " ".join(parts[:6]) + (" ..." if len(parts) > 6 else "") + ")"


class MeasurementGroup:
    """A set of qubit-wise commuting Pauli terms sharing one measurement basis."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        # joint basis per qubit: "I" means unconstrained so far.
        self._basis: List[str] = ["I"] * num_qubits
        self.terms: List[Tuple[PauliString, float]] = []

    def accepts(self, pauli: PauliString) -> bool:
        for q in range(self.num_qubits):
            factor = pauli.factor(q)
            if factor != "I" and self._basis[q] != "I" and self._basis[q] != factor:
                return False
        return True

    def add(self, pauli: PauliString, coeff: float) -> None:
        if not self.accepts(pauli):
            raise VQEError(f"{pauli.label} does not commute qubit-wise with this group")
        for q in range(self.num_qubits):
            factor = pauli.factor(q)
            if factor != "I":
                self._basis[q] = factor
        self.terms.append((pauli, coeff))

    @property
    def basis(self) -> str:
        """The joint measurement basis, one of I/X/Y/Z per qubit."""
        return "".join(self._basis)

    def __repr__(self):
        return f"MeasurementGroup(basis={self.basis}, terms={len(self.terms)})"
