"""Distribution fidelity and aggregation metrics.

The paper's micro-benchmarks (Figs. 5, 6, 9) report the *Hellinger fidelity*
between the measured outcome distribution and the ideal one; the VQE
experiments report energies.  Both metric families live here.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from ..exceptions import ReproError

Distribution = Union[Mapping[str, float], np.ndarray]


def _as_probability_dict(dist: Distribution) -> Dict[str, float]:
    if isinstance(dist, Mapping):
        total = float(sum(dist.values()))
        if total <= 0:
            raise ReproError("distribution has non-positive total weight")
        return {str(k): float(v) / total for k, v in dist.items() if v > 0}
    array = np.asarray(dist, dtype=float)
    total = array.sum()
    if total <= 0:
        raise ReproError("distribution has non-positive total weight")
    width = int(math.log2(array.size))
    if 2 ** width != array.size:
        raise ReproError("array distributions must have power-of-two length")
    return {
        format(i, f"0{width}b"): float(v) / total for i, v in enumerate(array) if v > 0
    }


def hellinger_distance(dist_a: Distribution, dist_b: Distribution) -> float:
    """Hellinger distance ``sqrt(1 - sum_i sqrt(p_i q_i))`` in [0, 1]."""
    a = _as_probability_dict(dist_a)
    b = _as_probability_dict(dist_b)
    overlap = 0.0
    for key, pa in a.items():
        pb = b.get(key, 0.0)
        if pb > 0:
            overlap += math.sqrt(pa * pb)
    overlap = min(overlap, 1.0)
    return math.sqrt(1.0 - overlap)


def hellinger_fidelity(dist_a: Distribution, dist_b: Distribution) -> float:
    """Hellinger fidelity ``(1 - H^2)^2`` — the metric used in the paper's Fig. 6."""
    h_squared = hellinger_distance(dist_a, dist_b) ** 2
    return (1.0 - h_squared) ** 2


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for the paper's summary bars in Fig. 12)."""
    values = [float(v) for v in values]
    if not values:
        raise ReproError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ReproError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))
