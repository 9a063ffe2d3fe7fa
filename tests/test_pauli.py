"""Unit and property tests for Pauli strings and Pauli sums."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import VQEError
from repro.operators import PauliString, PauliSum

_pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=4)


class TestPauliString:
    def test_invalid_label(self):
        with pytest.raises(VQEError):
            PauliString("AB")
        with pytest.raises(VQEError):
            PauliString("")

    def test_weight_and_support(self):
        pauli = PauliString("IXZI")
        assert pauli.weight() == 2
        assert pauli.support() == (1, 2)

    def test_identity_detection(self):
        assert PauliString("III").is_identity()
        assert not PauliString("IXI").is_identity()

    def test_matrix_of_zz(self):
        matrix = PauliString("ZZ").to_matrix()
        assert np.allclose(matrix, np.diag([1, -1, -1, 1]))

    def test_matrix_is_hermitian_and_involutory(self):
        matrix = PauliString("XYZ").to_matrix()
        assert np.allclose(matrix, matrix.conj().T)
        assert np.allclose(matrix @ matrix, np.eye(8))

    def test_qubitwise_commutation(self):
        assert PauliString("XI").commutes_qubitwise(PauliString("XZ"))
        assert not PauliString("XI").commutes_qubitwise(PauliString("ZI"))

    def test_commutation_width_mismatch(self):
        with pytest.raises(VQEError):
            PauliString("X").commutes_qubitwise(PauliString("XX"))

    def test_expectation_sign(self):
        pauli = PauliString("ZIZ")
        assert pauli.expectation_sign("000") == 1
        assert pauli.expectation_sign("001") == -1
        assert pauli.expectation_sign("101") == 1
        # Identity positions do not contribute.
        assert pauli.expectation_sign("010") == 1

    def test_expectation_sign_width_mismatch(self):
        with pytest.raises(VQEError):
            PauliString("ZZ").expectation_sign("0")

    @given(label=_pauli_labels)
    def test_matrix_trace_is_zero_unless_identity(self, label):
        pauli = PauliString(label)
        trace = np.trace(pauli.to_matrix())
        if pauli.is_identity():
            assert trace == pytest.approx(2 ** pauli.num_qubits)
        else:
            assert abs(trace) == pytest.approx(0.0, abs=1e-9)


class TestPauliSum:
    def test_requires_terms_or_width(self):
        with pytest.raises(VQEError):
            PauliSum()

    def test_add_term_accumulates(self):
        ham = PauliSum({"ZZ": 0.5})
        ham.add_term("ZZ", 0.25)
        assert ham.coefficient("ZZ") == pytest.approx(0.75)

    def test_cancelling_terms_are_removed(self):
        ham = PauliSum({"XX": 1.0})
        ham.add_term("XX", -1.0)
        assert ham.num_terms == 0

    def test_width_mismatch_rejected(self):
        ham = PauliSum({"ZZ": 1.0})
        with pytest.raises(VQEError):
            ham.add_term("ZZZ", 1.0)

    def test_from_list(self):
        ham = PauliSum.from_list([("XI", 0.5), ("IZ", -0.25)])
        assert ham.num_terms == 2
        assert ham.num_qubits == 2

    def test_identity_coefficient(self):
        ham = PauliSum({"II": -1.5, "ZZ": 1.0})
        assert ham.identity_coefficient() == pytest.approx(-1.5)
        assert len(ham.non_identity_terms()) == 1

    def test_truncate_keeps_identity(self):
        ham = PauliSum({"II": -3.0, "ZZ": 0.001, "XX": 0.5})
        truncated = ham.truncate(0.01)
        assert truncated.coefficient("ZZ") == 0.0
        assert truncated.identity_coefficient() == pytest.approx(-3.0)
        assert truncated.coefficient("XX") == pytest.approx(0.5)

    def test_addition_and_scaling(self):
        a = PauliSum({"ZZ": 1.0})
        b = PauliSum({"ZZ": 0.5, "XX": 2.0})
        combined = a + b * 2.0
        assert combined.coefficient("ZZ") == pytest.approx(2.0)
        assert combined.coefficient("XX") == pytest.approx(4.0)
        assert (-a).coefficient("ZZ") == pytest.approx(-1.0)

    def test_matrix_is_hermitian(self, tfim4):
        matrix = tfim4.to_matrix()
        assert np.allclose(matrix, matrix.conj().T)

    def test_ground_energy_matches_numpy(self, tfim4):
        eigvals = np.linalg.eigvalsh(tfim4.to_matrix())
        assert tfim4.ground_energy() == pytest.approx(eigvals[0])

    def test_ground_state_is_eigenvector(self, tfim4):
        energy, state = tfim4.ground_state()
        residual = tfim4.to_matrix() @ state - energy * state
        assert np.linalg.norm(residual) == pytest.approx(0.0, abs=1e-9)

    def test_expectation_from_statevector(self):
        ham = PauliSum({"Z": 1.0})
        assert ham.expectation_from_statevector([1, 0]) == pytest.approx(1.0)
        assert ham.expectation_from_statevector([0, 1]) == pytest.approx(-1.0)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert ham.expectation_from_statevector(plus) == pytest.approx(0.0, abs=1e-12)

    def test_expectation_from_density_matrix(self):
        ham = PauliSum({"Z": 2.0})
        mixed = 0.5 * np.eye(2)
        assert ham.expectation_from_density_matrix(mixed) == pytest.approx(0.0)

    def test_expectation_dimension_checks(self):
        ham = PauliSum({"ZZ": 1.0})
        with pytest.raises(VQEError):
            ham.expectation_from_statevector([1, 0])
        with pytest.raises(VQEError):
            ham.expectation_from_density_matrix(np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["II", "XI", "IZ", "ZZ", "XX", "YY"]),
                              st.floats(-2, 2, allow_nan=False)), min_size=1, max_size=6))
    def test_ground_energy_is_a_lower_bound_for_random_states(self, terms):
        ham = PauliSum.from_list(terms, num_qubits=2)
        rng = np.random.default_rng(0)
        ground = ham.ground_energy()
        for _ in range(5):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec = vec / np.linalg.norm(vec)
            assert ham.expectation_from_statevector(vec) >= ground - 1e-9


class TestDenseMatrixMemo:
    """``PauliSum`` builds its dense matrix once per set of terms."""

    def test_memo_is_the_matrix_a_fresh_build_gives(self, tfim4):
        expected = np.zeros((16, 16), dtype=complex)
        for pauli, coeff in tfim4._terms.items():
            expected += coeff * pauli.to_matrix()
        assert np.array_equal(tfim4.to_matrix(), expected)
        assert np.array_equal(tfim4.to_matrix(), expected)

    def test_to_matrix_returns_a_private_copy(self):
        ham = PauliSum({"ZI": 1.0, "XX": 0.5, "IY": -0.25})
        state = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        energy = ham.expectation_from_statevector(state)
        ground = ham.ground_energy()
        first = ham.to_matrix()
        assert first is not ham.to_matrix()
        first[:] = 0.0
        assert ham.expectation_from_statevector(state) == energy
        assert ham.ground_energy() == ground
        assert ham.expectation_from_density_matrix(np.outer(state, state.conj())) == pytest.approx(energy)

    def test_add_term_drops_the_memo(self):
        ham = PauliSum({"Z": 1.0})
        assert ham.expectation_from_statevector([1, 0]) == 1.0
        ham.add_term("Z", 1.0)
        assert ham.expectation_from_statevector([1, 0]) == 2.0
        ham.add_term("X", 0.5)
        assert np.array_equal(ham.to_matrix(), PauliSum({"Z": 2.0, "X": 0.5}).to_matrix())
        assert ham.ground_energy() == PauliSum({"Z": 2.0, "X": 0.5}).ground_energy()

    def test_pickling_leaves_the_memo_behind(self):
        import pickle

        used = PauliSum({"ZZZZ": 1.0, "XIII": 0.5})
        unused = PauliSum({"ZZZZ": 1.0, "XIII": 0.5})
        used.ground_energy()
        blob = pickle.dumps(used)
        assert len(blob) == len(pickle.dumps(unused)) < 16 * 4 ** 4
        assert np.array_equal(pickle.loads(blob).to_matrix(), used.to_matrix())


class TestMeasurementGrouping:
    def test_tfim_groups_into_two_bases(self, tfim4):
        groups = tfim4.group_commuting()
        bases = sorted(g.basis for g in groups)
        assert len(groups) == 2
        assert bases == ["XXXX", "ZZZZ"]

    def test_identity_excluded_from_groups(self):
        ham = PauliSum({"II": -1.0, "ZZ": 0.5})
        groups = ham.group_commuting()
        assert len(groups) == 1
        assert groups[0].terms[0][0].label == "ZZ"

    def test_group_coverage_is_complete(self):
        ham = PauliSum({"XX": 1.0, "YY": 0.5, "ZZ": 0.25, "XI": 0.1})
        groups = ham.group_commuting()
        covered = sorted(p.label for g in groups for p, _ in g.terms)
        assert covered == ["XI", "XX", "YY", "ZZ"]

    def test_group_rejects_noncommuting_add(self):
        from repro.operators.pauli import MeasurementGroup

        group = MeasurementGroup(2)
        group.add(PauliString("XX"), 1.0)
        with pytest.raises(VQEError):
            group.add(PauliString("ZZ"), 1.0)

    def test_mixed_basis_group(self):
        ham = PauliSum({"XZ": 1.0, "XI": 0.5, "IZ": 0.25})
        groups = ham.group_commuting()
        assert len(groups) == 1
        assert groups[0].basis == "XZ"
