"""Readout-error application and measurement sampling.

The device's per-qubit confusion matrices distort the true outcome
distribution before sampling; measurement error mitigation (in
:mod:`repro.mitigation.mem`) later tries to undo exactly this distortion from
measured counts, so both sides share the helpers defined here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..exceptions import SimulationError


def tensor_confusion_matrix(confusions: Sequence[np.ndarray]) -> np.ndarray:
    """Full confusion matrix of a register as the tensor product of per-qubit ones.

    ``confusions[i]`` is the 2x2 matrix of the qubit that forms bit ``i`` of
    the outcome bitstring (bit 0 is the left-most character, matching the
    big-endian convention used everywhere else).
    """
    full = np.array([[1.0]])
    for matrix in confusions:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (2, 2):
            raise SimulationError("each confusion matrix must be 2x2")
        full = np.kron(full, matrix)
    return full


def apply_readout_error(probabilities: np.ndarray, confusions: Sequence[np.ndarray]) -> np.ndarray:
    """Distort a true outcome distribution by the readout confusion matrices."""
    probabilities = np.asarray(probabilities, dtype=float)
    expected = 2 ** len(confusions)
    if probabilities.size != expected:
        raise SimulationError(
            f"distribution has {probabilities.size} entries, expected {expected}"
        )
    distorted = tensor_confusion_matrix(confusions) @ probabilities
    distorted[distorted < 0] = 0.0
    total = distorted.sum()
    if total <= 0:
        raise SimulationError("readout error produced an empty distribution")
    return distorted / total


def probabilities_to_counts(
    probabilities: np.ndarray,
    shots: int,
    rng: Optional[np.random.Generator] = None,
    exact: bool = False,
) -> Dict[str, int]:
    """Convert an outcome distribution to counts.

    ``exact=True`` returns expected counts (rounded), which removes shot noise
    and is used by the deterministic "infinite shot" execution mode.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    width = int(np.log2(probabilities.size))
    if 2 ** width != probabilities.size:
        raise SimulationError("distribution length is not a power of two")
    counts: Dict[str, int] = {}
    if exact:
        raw = probabilities * shots
        for index, value in enumerate(raw):
            rounded = int(round(value))
            if rounded > 0:
                counts[format(index, f"0{width}b")] = rounded
        return counts
    rng = rng or np.random.default_rng()
    sampled = rng.multinomial(shots, probabilities / probabilities.sum())
    for index, value in enumerate(sampled):
        if value > 0:
            counts[format(index, f"0{width}b")] = int(value)
    return counts


def counts_to_probabilities(counts: Dict[str, int], num_bits: Optional[int] = None) -> np.ndarray:
    """Convert a counts dictionary into a normalised probability vector."""
    if not counts:
        raise SimulationError("empty counts")
    width = num_bits if num_bits is not None else len(next(iter(counts)))
    probs = np.zeros(2 ** width)
    total = 0
    for bitstring, count in counts.items():
        if len(bitstring) != width:
            raise SimulationError("inconsistent bitstring widths in counts")
        probs[int(bitstring, 2)] += count
        total += count
    return probs / total
