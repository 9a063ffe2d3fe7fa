"""Soundness of objective-aware mitigation tuning (paper §V).

The paper proves that variational tuning of *purely quantum* mitigation
features can never report an objective below the true ground energy:

* **Property 1 (pure-state VQE)** — ``<phi|H|phi> >= E0`` for every pure
  state, with equality only at the ground state (the variational principle).
* **Property 2 (mixed-state VQE)** — ``Tr[H rho] >= E0`` for every density
  matrix, because a mixed state is a convex combination of pure states.

These checks are asserted throughout the test-suite and at the end of every
VAQEM run, guarding against modelling bugs (e.g. an unphysical channel or a
mis-normalised readout correction) that would otherwise masquerade as
"better than ideal" mitigation.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..exceptions import VAQEMError
from ..operators.pauli import PauliSum
from ..simulators.density_matrix import DensityMatrix

#: Numerical slack allowed on the bound (measurement-mitigation clipping and
#: finite shots can push an estimate marginally below the exact bound).
DEFAULT_TOLERANCE = 1e-7


def pure_state_energy_bound(
    hamiltonian: PauliSum, statevector: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> bool:
    """Property 1: ``<phi|H|phi>`` is no less than the exact ground energy."""
    energy = hamiltonian.expectation_from_statevector(statevector)
    return energy >= hamiltonian.ground_energy() - tolerance


def mixed_state_energy_bound(
    hamiltonian: PauliSum,
    state: Union[np.ndarray, DensityMatrix],
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """Property 2: ``Tr[H rho]`` is no less than the exact ground energy."""
    rho = state.data if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    energy = hamiltonian.expectation_from_density_matrix(rho)
    return energy >= hamiltonian.ground_energy() - tolerance


def check_energy_soundness(
    measured_energy: float,
    hamiltonian: PauliSum,
    tolerance: float = 1e-6,
    context: str = "",
) -> None:
    """Raise :class:`VAQEMError` when a reported energy beats the exact optimum.

    ``tolerance`` is looser than the state-level checks because measured
    energies pass through readout mitigation (matrix inversion + clipping) and
    possibly shot sampling, both of which introduce small bias.
    """
    bound = hamiltonian.ground_energy()
    if measured_energy < bound - tolerance:
        label = f" ({context})" if context else ""
        raise VAQEMError(
            f"soundness violation{label}: measured energy {measured_energy:.6f} is below "
            f"the exact ground energy {bound:.6f}"
        )


def energy_gap_to_optimal(measured_energy: float, hamiltonian: PauliSum) -> float:
    """How far above the exact optimum a measurement lies (always >= 0 when sound)."""
    return measured_energy - hamiltonian.ground_energy()
