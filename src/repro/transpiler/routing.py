"""SWAP-insertion routing for limited-connectivity devices.

The paper notes that "limited connectivity in near-term devices requires
routing networks for qubit communication in mapped circuits" and that those
routing networks are the main source of the idle windows VAQEM exploits.  We
implement a deterministic greedy router: whenever a two-qubit gate acts on
physically non-adjacent qubits, SWAP one operand along the shortest path in
the active subgraph until they are adjacent, updating the layout as we go.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..exceptions import TranspilerError
from .coupling import CouplingMap
from .layout import Layout


def route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Layout,
    physical_qubits: Sequence[int],
) -> Tuple[QuantumCircuit, Layout]:
    """Insert SWAPs so every two-qubit gate acts on coupled physical qubits.

    The returned circuit is expressed over *positions*: index ``i`` refers to
    ``physical_qubits[i]``.  The returned layout is the final virtual->physical
    mapping after all routing SWAPs (needed to attribute measurements).
    """
    physical_qubits = list(physical_qubits)
    position = {phys: idx for idx, phys in enumerate(physical_qubits)}
    if set(layout.physical_qubits()) - set(physical_qubits):
        raise TranspilerError("layout uses physical qubits outside the active subgraph")
    active = coupling.subgraph(physical_qubits)
    working = layout.copy()

    routed = QuantumCircuit(len(physical_qubits), circuit.num_clbits, name=f"{circuit.name}_routed")
    routed.metadata = dict(circuit.metadata)

    def pos_of_virtual(v: int) -> int:
        return position[working.physical(v)]

    for inst in circuit.instructions:
        name = inst.name
        if name == "barrier":
            routed.barrier(*[pos_of_virtual(q) for q in inst.qubits])
            continue
        if name == "measure":
            routed.append(inst.gate, [pos_of_virtual(inst.qubits[0])], inst.clbits)
            continue
        if len(inst.qubits) == 1:
            routed.append(inst.gate, [pos_of_virtual(inst.qubits[0])], inst.clbits)
            continue
        if len(inst.qubits) != 2:
            raise TranspilerError(f"cannot route gate '{name}' of arity {len(inst.qubits)}")

        va, vb = inst.qubits
        pa, pb = pos_of_virtual(va), pos_of_virtual(vb)
        if not active.are_adjacent(pa, pb):
            path = active.shortest_path(pa, pb)
            # Swap the first operand along the path until adjacent to the target.
            for step in range(len(path) - 2):
                here, there = path[step], path[step + 1]
                routed.swap(here, there)
                working.swap_physical(physical_qubits[here], physical_qubits[there])
            pa, pb = pos_of_virtual(va), pos_of_virtual(vb)
            if not active.are_adjacent(pa, pb):
                raise TranspilerError("routing failed to make the operands adjacent")
        routed.append(inst.gate, [pa, pb], inst.clbits)

    return routed, working


def count_added_swaps(original: QuantumCircuit, routed: QuantumCircuit) -> int:
    """Number of SWAP gates the router inserted."""
    return routed.count_ops().get("swap", 0) - original.count_ops().get("swap", 0)
