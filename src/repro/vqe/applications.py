"""The paper's seven VQE applications (§VII-A, Table I).

Five transverse-field Ising model problems on hardware-efficient SU2 ansatz
(varying qubit count, entanglement pattern and repetition count), the Li+ ion
on a 6-qubit SU2 ansatz, and H2 on a UCCSD-style ansatz.  Each benchmark
records the device it runs on and whether the paper tuned its angles through
Qiskit Runtime (the two chemistry applications) or in simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..backends.device import DeviceModel
from ..backends.fake import fake_casablanca, fake_guadalupe, fake_jakarta, fake_montreal
from ..circuits.circuit import QuantumCircuit
from ..circuits.library import efficient_su2, uccsd_like_ansatz
from ..exceptions import VQEError
from ..operators.hamiltonians import (
    h2_hamiltonian,
    lithium_ion_hamiltonian,
    tfim_hamiltonian,
)
from ..operators.pauli import PauliSum


@dataclass
class VQAApplication:
    """One evaluated benchmark: ansatz, Hamiltonian and execution assignment."""

    name: str
    ansatz: QuantumCircuit
    hamiltonian: PauliSum
    device_factory: Callable[[], DeviceModel]
    uses_runtime: bool = False
    description: str = ""

    @property
    def num_qubits(self) -> int:
        return self.ansatz.num_qubits

    @property
    def num_parameters(self) -> int:
        return self.ansatz.num_parameters

    def device(self) -> DeviceModel:
        return self.device_factory()

    def exact_ground_energy(self) -> float:
        """The classically simulated optimal value (Fig. 13 reference)."""
        return self.hamiltonian.ground_energy()

    def __repr__(self):
        return f"VQAApplication({self.name}, {self.num_qubits}q, {self.num_parameters} params)"


def _tfim_application(
    name: str,
    num_qubits: int,
    entanglement: str,
    reps: int,
    device_factory: Callable[[], DeviceModel],
) -> VQAApplication:
    return VQAApplication(
        name=name,
        ansatz=efficient_su2(num_qubits, reps=reps, entanglement=entanglement, name=name),
        hamiltonian=tfim_hamiltonian(num_qubits),
        device_factory=device_factory,
        uses_runtime=False,
        description=(
            f"TFIM ground state on a {num_qubits}-qubit SU2 ansatz with "
            f"{entanglement} entanglement and {reps} repetitions"
        ),
    )


def build_applications() -> List[VQAApplication]:
    """The seven benchmarks of Table I, in the paper's column order."""
    return [
        _tfim_application("HW_TFIM_6q_f_2r", 6, "full", 2, fake_casablanca),
        _tfim_application("HW_TFIM_6q_c_2r", 6, "circular", 2, fake_jakarta),
        _tfim_application("HW_TFIM_4q_c_6r", 4, "circular", 6, fake_guadalupe),
        _tfim_application("HW_TFIM_4q_f_6r", 4, "full", 6, fake_jakarta),
        _tfim_application("HW_TFIM_6q_c_4r", 6, "circular", 4, fake_casablanca),
        VQAApplication(
            name="HW_Li+",
            ansatz=efficient_su2(6, reps=3, entanglement="full", name="HW_Li+"),
            hamiltonian=lithium_ion_hamiltonian(),
            device_factory=fake_montreal,
            uses_runtime=True,
            description="Li+ ion surrogate on a 6-qubit SU2 ansatz (3 reps, full entanglement)",
        ),
        VQAApplication(
            name="UCCSD_H2",
            ansatz=uccsd_like_ansatz(),
            hamiltonian=h2_hamiltonian(),
            device_factory=fake_montreal,
            uses_runtime=True,
            description="H2 molecule on a UCCSD-style 4-qubit ansatz (Hartree-Fock reference)",
        ),
    ]


def get_application(name: str) -> VQAApplication:
    """Look up one benchmark by its paper name (case insensitive)."""
    for application in build_applications():
        if application.name.lower() == name.lower():
            return application
    available = [a.name for a in build_applications()]
    raise VQEError(f"unknown application '{name}'; available: {available}")


def application_names() -> List[str]:
    return [a.name for a in build_applications()]
