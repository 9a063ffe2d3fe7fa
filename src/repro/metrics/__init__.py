"""Fidelity and aggregation metrics."""

from .fidelity import geometric_mean, hellinger_distance, hellinger_fidelity

__all__ = [
    "hellinger_distance",
    "hellinger_fidelity",
    "geometric_mean",
]
