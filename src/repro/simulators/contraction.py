"""Apply a small operator to chosen axes of a state tensor.

Statevectors, density matrices and Pauli vectors all evolve by contracting a
square ``d^k x d^k`` operator into ``k`` axes of the state viewed as a tensor.
On this reproduction's 4-7 qubit states ``np.tensordot`` spends most of such a
call re-deriving the same permutations and shapes.  A :class:`ContractionPlan`
derives them once per (tensor shape, axes), then makes the same ``np.dot`` call
on the same operands as ``np.tensordot``, so results are bit-identical to it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..exceptions import SimulationError


class ContractionPlan:
    """``np.tensordot(op, tensor, (op_inputs, axes))`` with the operator's
    outputs moved back to ``axes``, for every tensor of ``tensor_shape``."""

    __slots__ = ("tensor_shape", "order", "gathered_shape", "product_shape", "restore")

    def __init__(self, tensor_shape: Tuple[int, ...], axes: Tuple[int, ...]):
        rest = tuple(axis for axis in range(len(tensor_shape)) if axis not in axes)
        # np.tensordot's layout: contracted axes first, the others in order.
        # The operator's outputs replace the contracted axes, size for size.
        self.tensor_shape = tensor_shape
        self.order = axes + rest
        self.product_shape = tuple(tensor_shape[axis] for axis in self.order)
        contracted = math.prod(self.product_shape[: len(axes)])
        self.gathered_shape = (contracted, math.prod(tensor_shape) // contracted)
        self.restore = tuple(self.order.index(axis) for axis in range(len(tensor_shape)))

    def apply(self, operator: np.ndarray, data: np.ndarray) -> np.ndarray:
        """``operator`` applied to ``data`` viewed as ``tensor_shape``; keeps ``data``'s shape."""
        gathered = data.reshape(self.tensor_shape).transpose(self.order).reshape(self.gathered_shape)
        product = np.dot(operator, gathered).reshape(self.product_shape)
        return product.transpose(self.restore).reshape(data.shape)


@lru_cache(maxsize=4096)
def qubit_plan(
    tensor_shape: Tuple[int, ...], qubits: Tuple[int, ...], num_qubits: int, offsets=(0,)
) -> ContractionPlan:
    """The plan for an operator on ``qubits`` at tensor axes ``offset + q``,
    for each offset (``(0, n)``: a density matrix's rows and columns).

    Targets are validated as qubits, before they become axes; a failed build
    raises and is never cached.
    """
    if len(set(qubits)) != len(qubits) or any(not 0 <= q < num_qubits for q in qubits):
        raise SimulationError(f"invalid target qubits {tuple(qubits)}")
    return ContractionPlan(tensor_shape, tuple(offset + q for offset in offsets for q in qubits))
