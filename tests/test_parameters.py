"""Unit tests for symbolic circuit parameters."""

import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.circuits import efficient_su2
from repro.circuits.parameter import (
    Parameter,
    ParameterExpression,
    ParameterVector,
    bind_value,
    free_parameters,
)
from repro.engine import circuit_fingerprint
from repro.exceptions import ParameterError
from repro.vqe import get_application


class TestParameter:
    def test_name(self):
        theta = Parameter("theta")
        assert theta.name == "theta"

    def test_invalid_name_raises(self):
        with pytest.raises(ParameterError):
            Parameter("")

    def test_same_name_distinct_identity(self):
        a, b = Parameter("x"), Parameter("x")
        assert a != b
        assert len({a, b}) == 2

    def test_parameter_is_its_own_expression(self):
        theta = Parameter("theta")
        assert theta.parameters == frozenset({theta})
        assert theta.coefficient(theta) == 1.0

    def test_repr(self):
        assert "theta" in repr(Parameter("theta"))


class TestParameterExpression:
    def test_add_constant(self):
        theta = Parameter("t")
        expr = theta + 2.0
        assert expr.bind({theta: 1.0}) == pytest.approx(3.0)

    def test_radd_and_rsub(self):
        theta = Parameter("t")
        assert (2.0 + theta).bind({theta: 1.0}) == pytest.approx(3.0)
        assert (2.0 - theta).bind({theta: 1.0}) == pytest.approx(1.0)

    def test_scale_and_negate(self):
        theta = Parameter("t")
        expr = -(3.0 * theta)
        assert expr.bind({theta: 2.0}) == pytest.approx(-6.0)

    def test_division(self):
        theta = Parameter("t")
        assert (theta / 4).bind({theta: 2.0}) == pytest.approx(0.5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Parameter("t") / 0

    def test_add_two_parameters(self):
        a, b = Parameter("a"), Parameter("b")
        expr = 2 * a + b - 1
        assert expr.parameters == frozenset({a, b})
        assert expr.bind({a: 1.0, b: 3.0}) == pytest.approx(4.0)

    def test_partial_binding_keeps_expression(self):
        a, b = Parameter("a"), Parameter("b")
        partial = (a + b).bind({a: 1.0})
        assert isinstance(partial, ParameterExpression)
        assert partial.parameters == frozenset({b})
        assert partial.bind({b: 2.0}) == pytest.approx(3.0)

    def test_numeric_requires_full_binding(self):
        a = Parameter("a")
        with pytest.raises(ParameterError):
            (a + 1).numeric()

    def test_zero_coefficient_cancels(self):
        a = Parameter("a")
        expr = a - a
        assert expr.is_bound()
        assert expr.numeric() == pytest.approx(0.0)

    def test_multiply_by_expression_rejected(self):
        a, b = Parameter("a"), Parameter("b")
        with pytest.raises(TypeError):
            a * b

    def test_equality_with_number(self):
        expr = ParameterExpression({}, 1.5)
        assert expr == 1.5

    @given(
        coeff=st.floats(-10, 10, allow_nan=False),
        const=st.floats(-10, 10, allow_nan=False),
        value=st.floats(-10, 10, allow_nan=False),
    )
    def test_affine_binding_matches_arithmetic(self, coeff, const, value):
        theta = Parameter("t")
        expr = coeff * theta + const
        assert expr.bind({theta: value}) == pytest.approx(coeff * value + const)


class TestParameterVector:
    def test_length_and_names(self):
        vec = ParameterVector("phi", 4)
        assert len(vec) == 4
        assert vec[2].name == "phi[2]"

    def test_iteration(self):
        vec = ParameterVector("phi", 3)
        assert [p.name for p in vec] == ["phi[0]", "phi[1]", "phi[2]"]

    def test_negative_length_raises(self):
        with pytest.raises(ParameterError):
            ParameterVector("phi", -1)


class TestHelpers:
    def test_bind_value_passthrough(self):
        assert bind_value(1.5, {}) == 1.5

    def test_bind_value_expression(self):
        theta = Parameter("t")
        assert bind_value(theta, {theta: math.pi}) == pytest.approx(math.pi)

    def test_free_parameters_union(self):
        a, b = Parameter("a"), Parameter("b")
        assert free_parameters([a + 1, 2.0, b]) == frozenset({a, b})


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


COPIES = {"pickle": _pickled, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES.keys())
class TestCopies:
    """Pickled and deep-copied parameters equal and hash like the originals,
    so a parametrized circuit or application binds to the same content after
    crossing a process boundary."""

    def test_parameter(self, duplicate):
        theta = Parameter("theta")
        copied = duplicate(theta)
        assert copied == theta and hash(copied) == hash(theta)
        assert copied.name == "theta"
        assert copied.coefficient(theta) == 1.0
        assert duplicate(2 * theta + 1) == 2 * theta + 1

    def test_parameter_vector(self, duplicate):
        vector = ParameterVector("phi", 3)
        copied = duplicate(vector)
        assert copied.params == vector.params
        assert [hash(p) for p in copied] == [hash(p) for p in vector]

    def test_parametrized_circuit(self, duplicate):
        ansatz = efficient_su2(3, reps=1)
        copied = duplicate(ansatz)
        assert copied.sorted_parameters() == ansatz.sorted_parameters()
        values = [0.1 * (index + 1) for index in range(ansatz.num_parameters)]
        assert circuit_fingerprint(copied.bind_parameters(values)) == circuit_fingerprint(
            ansatz.bind_parameters(values)
        )

    @pytest.mark.parametrize("name", ("UCCSD_H2", "HW_TFIM_4q_c_6r"))
    def test_application(self, duplicate, name):
        application = get_application(name)
        copied = duplicate(application)
        assert copied.name == application.name
        assert copied.ansatz.sorted_parameters() == application.ansatz.sorted_parameters()
        assert {hash(p) for p in copied.ansatz.parameters} == {
            hash(p) for p in application.ansatz.parameters
        }
        values = [0.05 * (index - 2) for index in range(application.num_parameters)]
        assert circuit_fingerprint(copied.ansatz.bind_parameters(values)) == circuit_fingerprint(
            application.ansatz.bind_parameters(values)
        )
