"""Symbolic circuit parameters.

Variational circuits (ansatz) carry rotation angles that are bound only at
execution time.  :class:`Parameter` is a named symbolic placeholder and
:class:`ParameterExpression` is a tiny linear-expression engine supporting the
operations the ansatz library needs: scaling, negation, addition of constants
and of other parameters.  Keeping the expression language deliberately small
(affine expressions only) keeps binding exact and trivially testable.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Mapping, Union

from ..exceptions import ParameterError

Number = Union[int, float]

_COUNTER = itertools.count()


class ParameterExpression:
    """An affine expression ``sum_i coeff_i * parameter_i + constant``.

    Instances are immutable.  Arithmetic operators return new expressions.
    """

    __slots__ = ("_coeffs", "_const")

    def __init__(self, coeffs: Mapping["Parameter", float], const: float = 0.0):
        # Drop zero coefficients so equality and parameter listing are canonical.
        self._coeffs: Dict[Parameter, float] = {
            p: float(c) for p, c in coeffs.items() if c != 0.0
        }
        self._const = float(const)

    # -- introspection -------------------------------------------------
    @property
    def parameters(self) -> frozenset:
        """The set of unbound :class:`Parameter` objects in this expression."""
        return frozenset(self._coeffs)

    @property
    def constant(self) -> float:
        """The additive constant of the affine expression."""
        return self._const

    @property
    def terms(self) -> tuple:
        """``(parameter, coefficient)`` pairs in the order :meth:`bind` sums them."""
        return tuple(self._coeffs.items())

    def coefficient(self, parameter: "Parameter") -> float:
        """Return the multiplicative coefficient of ``parameter`` (0 if absent)."""
        return self._coeffs.get(parameter, 0.0)

    def is_bound(self) -> bool:
        """True when the expression contains no free parameters."""
        return not self._coeffs

    # -- binding -------------------------------------------------------
    def bind(self, values: Mapping["Parameter", Number]) -> Union[float, "ParameterExpression"]:
        """Substitute numeric values for parameters.

        Parameters not present in ``values`` remain symbolic.  When every
        parameter is substituted a plain ``float`` is returned.
        """
        remaining: Dict[Parameter, float] = {}
        const = self._const
        for param, coeff in self._coeffs.items():
            if param in values:
                const += coeff * float(values[param])
            else:
                remaining[param] = coeff
        if remaining:
            return ParameterExpression(remaining, const)
        return const

    def numeric(self) -> float:
        """Return the numeric value; raises if any parameter is unbound."""
        if self._coeffs:
            unbound = ", ".join(sorted(p.name for p in self._coeffs))
            raise ParameterError(f"expression still contains unbound parameters: {unbound}")
        return self._const

    # -- arithmetic ----------------------------------------------------
    def _as_expression(self, other: Union["ParameterExpression", Number]) -> "ParameterExpression":
        if isinstance(other, ParameterExpression):
            return other
        if isinstance(other, (int, float)):
            return ParameterExpression({}, float(other))
        raise TypeError(f"cannot combine ParameterExpression with {type(other).__name__}")

    def __add__(self, other):
        other = self._as_expression(other)
        coeffs = dict(self._coeffs)
        for p, c in other._coeffs.items():
            coeffs[p] = coeffs.get(p, 0.0) + c
        return ParameterExpression(coeffs, self._const + other._const)

    __radd__ = __add__

    def __neg__(self):
        return ParameterExpression({p: -c for p, c in self._coeffs.items()}, -self._const)

    def __sub__(self, other):
        return self + (-self._as_expression(other))

    def __rsub__(self, other):
        return self._as_expression(other) + (-self)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise TypeError("ParameterExpression can only be scaled by a real number")
        return ParameterExpression(
            {p: c * scalar for p, c in self._coeffs.items()}, self._const * scalar
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise TypeError("ParameterExpression can only be divided by a real number")
        if scalar == 0:
            raise ZeroDivisionError("division of a ParameterExpression by zero")
        return self * (1.0 / scalar)

    # -- equality / hashing ---------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, float)):
            return self.is_bound() and self._const == float(other)
        if isinstance(other, ParameterExpression):
            return self._coeffs == other._coeffs and self._const == other._const
        return NotImplemented

    def __hash__(self):
        return hash((frozenset(self._coeffs.items()), self._const))

    def __repr__(self):
        terms = [f"{c:+g}*{p.name}" for p, c in sorted(self._coeffs.items(), key=lambda kv: kv[0].name)]
        if self._const or not terms:
            terms.append(f"{self._const:+g}")
        return "".join(terms).lstrip("+")


class Parameter(ParameterExpression):
    """A named free circuit parameter.

    Two parameters with the same name are still distinct objects; identity is
    established by an internal uuid-like counter so that independently
    constructed ansatz never alias each other's parameters by accident.
    """

    __slots__ = ("_name", "_uid")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ParameterError("parameter name must be a non-empty string")
        self._name = name
        self._uid = next(_COUNTER)
        super().__init__({self: 1.0}, 0.0)

    @property
    def name(self) -> str:
        """The human-readable parameter name (used in circuit drawings)."""
        return self._name

    def __eq__(self, other):
        if isinstance(other, Parameter):
            return self._uid == other._uid
        return super().__eq__(other)

    def __hash__(self):
        return hash(("Parameter", self._uid))

    def __reduce__(self):
        # The default slot protocol rebuilds the self-keyed ``_coeffs`` before
        # ``_uid`` exists, and hashing a key needs ``_uid``.
        return (_rebuild_parameter, (self._name, self._uid))

    def __repr__(self):
        return f"Parameter({self._name})"


def _rebuild_parameter(name: str, uid: int) -> Parameter:
    """The unpickled or copied :class:`Parameter`: equal to, and hashing like,
    the original."""
    parameter = Parameter.__new__(Parameter)
    parameter._name = name
    parameter._uid = uid
    ParameterExpression.__init__(parameter, {parameter: 1.0}, 0.0)
    return parameter


class ParameterVector:
    """An indexed family of parameters, e.g. ``theta[0] ... theta[n-1]``."""

    def __init__(self, name: str, length: int):
        if length < 0:
            raise ParameterError("ParameterVector length must be non-negative")
        self._name = name
        self._params = [Parameter(f"{name}[{i}]") for i in range(length)]

    @property
    def name(self) -> str:
        return self._name

    @property
    def params(self):
        return list(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __getitem__(self, index):
        return self._params[index]

    def __iter__(self):
        return iter(self._params)

    def __repr__(self):
        return f"ParameterVector({self._name}, {len(self._params)})"


def bind_value(value: Union[Number, ParameterExpression], binding: Mapping[Parameter, Number]):
    """Bind ``value`` against ``binding`` if it is symbolic, else return it unchanged."""
    if isinstance(value, ParameterExpression):
        return value.bind(binding)
    return value


def free_parameters(values: Iterable[Union[Number, ParameterExpression]]) -> frozenset:
    """Union of unbound parameters across an iterable of gate parameters."""
    out = set()
    for value in values:
        if isinstance(value, ParameterExpression):
            out |= value.parameters
    return frozenset(out)
