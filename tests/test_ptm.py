"""Property tests for the Pauli-transfer-matrix backend (:mod:`repro.simulators.ptm`).

The PTM picture rests on a handful of algebraic invariants, each pinned here:

* every noise channel in :mod:`repro.simulators.channels` compiles to a
  *trace-preserving* PTM — first row ``(1, 0, ..., 0)`` — across the full
  parameter ranges (hypothesis-driven);
* unitary gates compile to *orthogonal* PTMs;
* the PTM action on a Pauli vector equals the Kraus action on the density
  matrix, through the exact basis change;
* a fused run's composed kernel equals the product of its member PTMs, and
  the stride-grid fusion rule makes segmented evolution bit-identical to a
  single pass (the engine's resume contract);
* batched states evolve and measure bit-identically to their rows evolved
  one at a time (what lets the engine stack measurement work);
* the rebuilt :func:`~repro.simulators.channels.compose_channels` is exact in
  superoperator space and keeps the operator count bounded by ``d**2`` under
  repeated composition.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randomized
from repro.circuits.gates import Gate
from repro.exceptions import SimulationError
from repro.operators import tfim_hamiltonian
from repro.simulators import (
    DensityMatrix,
    NoiseModel,
    PauliVectorState,
    PTMEvolver,
    compose_channels,
    is_valid_channel,
    kraus_from_superop,
    kraus_to_ptm,
    pauli_basis,
    superop_from_kraus,
    unitary_to_ptm,
)
from repro.simulators.channels import (
    amplitude_damping_kraus,
    bit_flip_kraus,
    coherent_z_kraus,
    coherent_zz_kraus,
    depolarizing_kraus,
    identity_kraus,
    phase_damping_kraus,
    thermal_relaxation_kraus,
)
from repro.simulators.ptm import (
    PTMCursor,
    channel_ptm,
    dense_contraction_count,
    sim_op_ptm,
    unitary_ptm,
)

ATOL = 1e-12

#: Every Kraus factory the channels module exports, at representative
#: parameters (the hypothesis tests below sweep the parameter ranges).
CHANNEL_CASES = [
    ("identity", identity_kraus()),
    ("identity_2q", identity_kraus(2)),
    ("amplitude_damping", amplitude_damping_kraus(0.13)),
    ("phase_damping", phase_damping_kraus(0.21)),
    ("thermal_relaxation", thermal_relaxation_kraus(120.0, 80_000.0, 95_000.0)),
    ("depolarizing_1q", depolarizing_kraus(0.004)),
    ("depolarizing_2q", depolarizing_kraus(0.02, num_qubits=2)),
    ("coherent_z", coherent_z_kraus(0.37)),
    ("coherent_zz", coherent_zz_kraus(0.11)),
    ("bit_flip", bit_flip_kraus(0.08)),
]

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def random_density_matrix(seed: int, num_qubits: int = 2) -> DensityMatrix:
    """A full-rank random mixed state (Hermitian, trace one, PSD)."""
    rng = np.random.default_rng(seed)
    dim = 2 ** num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return DensityMatrix(num_qubits, data=rho / np.trace(rho))


def assert_trace_preserving(ptm: np.ndarray) -> None:
    expected = np.zeros(ptm.shape[1])
    expected[0] = 1.0
    np.testing.assert_allclose(ptm[0], expected, atol=ATOL)


class TestPtmCompilation:
    @pytest.mark.parametrize("name,kraus", CHANNEL_CASES, ids=[c[0] for c in CHANNEL_CASES])
    def test_every_channel_compiles_trace_preserving(self, name, kraus):
        ptm = kraus_to_ptm(kraus)
        dim = kraus[0].shape[0]
        assert ptm.shape == (dim ** 2, dim ** 2)
        assert ptm.dtype == np.float64
        assert_trace_preserving(ptm)
        # Compiled through the superoperator, the PTM is still the defining
        # R_ij = Tr[P_i E(P_j)] / 2**n, with E applied Kraus operator by
        # Kraus operator.
        basis = pauli_basis(int(round(math.log2(dim))))
        images = [sum(k @ p @ k.conj().T for k in kraus) for p in basis]
        expected = [[np.trace(p @ image).real / dim for image in images] for p in basis]
        np.testing.assert_allclose(ptm, expected, rtol=0, atol=ATOL)

    @settings(max_examples=25, deadline=None)
    @given(gamma=unit)
    def test_amplitude_damping_sweep(self, gamma):
        assert_trace_preserving(kraus_to_ptm(amplitude_damping_kraus(gamma)))

    @settings(max_examples=25, deadline=None)
    @given(lam=unit)
    def test_phase_damping_sweep(self, lam):
        assert_trace_preserving(kraus_to_ptm(phase_damping_kraus(lam)))

    @settings(max_examples=25, deadline=None)
    @given(probability=unit)
    def test_bit_flip_sweep(self, probability):
        assert_trace_preserving(kraus_to_ptm(bit_flip_kraus(probability)))

    @settings(max_examples=25, deadline=None)
    @given(rate=st.floats(min_value=0.0, max_value=0.999, allow_nan=False))
    def test_depolarizing_sweep(self, rate):
        assert_trace_preserving(kraus_to_ptm(depolarizing_kraus(rate)))

    @settings(max_examples=25, deadline=None)
    @given(
        duration=st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
        t1=st.floats(min_value=1_000.0, max_value=200_000.0, allow_nan=False),
        ratio=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    )
    def test_thermal_relaxation_sweep(self, duration, t1, ratio):
        # Physical T2 <= 2 T1; the ratio strategy keeps the pair in range.
        kraus = thermal_relaxation_kraus(duration, t1, ratio * t1)
        assert_trace_preserving(kraus_to_ptm(kraus))

    @pytest.mark.parametrize(
        "gate",
        [
            Gate("h", 1),
            Gate("x", 1),
            Gate("y", 1),
            Gate("z", 1),
            Gate("s", 1),
            Gate("sx", 1),
            Gate("t", 1),
            Gate("rx", 1, (0.3,)),
            Gate("ry", 1, (-1.1,)),
            Gate("rz", 1, (2.7,)),
            Gate("cx", 2),
            Gate("cz", 2),
        ],
        ids=lambda g: g.name,
    )
    def test_unitary_ptms_are_orthogonal(self, gate):
        ptm = unitary_to_ptm(gate.matrix())
        np.testing.assert_allclose(ptm @ ptm.T, np.eye(ptm.shape[0]), atol=ATOL)
        assert_trace_preserving(ptm)

    def test_ptm_action_matches_kraus_action(self):
        for seed, kraus in enumerate([c[1] for c in CHANNEL_CASES if c[1][0].shape[0] == 2]):
            rho = random_density_matrix(40 + seed, num_qubits=2)
            dense = rho.copy()
            dense.apply_kraus(kraus, [1])
            vector = PauliVectorState.from_density_matrix(rho)
            vector.apply_ptm(kraus_to_ptm(kraus), (1,))
            np.testing.assert_allclose(
                vector.to_density_matrix().data, dense.data, atol=ATOL
            )

    def test_content_lru_shares_identical_matrices(self):
        h = Gate("h", 1).matrix()
        assert unitary_ptm(h) is unitary_ptm(h.copy())
        # The cached array is frozen: kernels must never mutate it.
        assert not unitary_ptm(h).flags.writeable

    def test_channel_ptm_is_kept_on_the_channel(self, monkeypatch, device_noise):
        from repro.simulators import ptm as ptm_module

        compiled = []
        superop_to_ptm = ptm_module.superop_to_ptm

        def counting(superop):
            compiled.append(superop.shape)
            return superop_to_ptm(superop)

        monkeypatch.setattr(ptm_module, "superop_to_ptm", counting)
        channel = device_noise.gate_channels("cx", [0, 1])[-1]
        channel._ptm = None
        first = channel_ptm(channel)
        second = channel_ptm(channel)
        assert second is first
        assert len(compiled) == 1
        assert not first.flags.writeable
        assert np.array_equal(first, kraus_to_ptm(channel.kraus))

    def test_pauli_basis_validates(self):
        with pytest.raises(SimulationError):
            pauli_basis(0)


class TestComposeChannels:
    def test_composition_is_exact_in_superop_space(self):
        first = amplitude_damping_kraus(0.2)
        second = phase_damping_kraus(0.35)
        composed = compose_channels(first, second)
        np.testing.assert_allclose(
            superop_from_kraus(composed),
            superop_from_kraus(second) @ superop_from_kraus(first),
            atol=ATOL,
        )
        assert is_valid_channel(composed)

    def test_amplitude_damping_composes_analytically(self):
        # Two damping steps combine as gamma = 1 - (1-a)(1-b).
        composed = compose_channels(amplitude_damping_kraus(0.1), amplitude_damping_kraus(0.3))
        expected = amplitude_damping_kraus(1.0 - 0.9 * 0.7)
        np.testing.assert_allclose(
            superop_from_kraus(composed), superop_from_kraus(expected), atol=ATOL
        )

    def test_operator_count_stays_bounded(self):
        """Repeated composition must not multiply operator counts (the bug the
        superop-space rebuild fixes): d**2 is the ceiling, always."""
        kraus = identity_kraus()
        reference = np.eye(4)
        for step in range(12):
            kraus = compose_channels(kraus, depolarizing_kraus(0.01))
            kraus = compose_channels(kraus, amplitude_damping_kraus(0.05))
            assert len(kraus) <= 4, f"step {step}: {len(kraus)} operators"
            reference = (
                superop_from_kraus(depolarizing_kraus(0.01)) @ reference
            )
            reference = superop_from_kraus(amplitude_damping_kraus(0.05)) @ reference
        np.testing.assert_allclose(superop_from_kraus(kraus), reference, atol=1e-10)
        assert is_valid_channel(kraus)

    def test_superop_kraus_round_trip(self):
        for _, kraus in CHANNEL_CASES:
            superop = superop_from_kraus(kraus)
            rebuilt = kraus_from_superop(superop)
            assert len(rebuilt) <= kraus[0].shape[0] ** 2
            np.testing.assert_allclose(superop_from_kraus(rebuilt), superop, atol=ATOL)

    def test_thermal_relaxation_uses_bounded_composition(self):
        kraus = thermal_relaxation_kraus(250.0, 60_000.0, 40_000.0)
        assert len(kraus) <= 4
        assert is_valid_channel(kraus)


class TestPauliVectorState:
    def test_initial_state_is_all_zeros(self):
        state = PauliVectorState(3)
        np.testing.assert_allclose(state.probabilities()[0], 1.0, atol=ATOL)
        assert state.trace() == pytest.approx(1.0)
        assert state.purity() == pytest.approx(1.0)
        np.testing.assert_allclose(
            state.to_density_matrix().data, DensityMatrix(3).data, atol=ATOL
        )

    def test_density_matrix_round_trip(self):
        for seed in range(5):
            rho = random_density_matrix(seed, num_qubits=3)
            back = PauliVectorState.from_density_matrix(rho).to_density_matrix()
            np.testing.assert_allclose(back.data, rho.data, atol=ATOL)

    def test_probabilities_match_dense(self):
        for seed in range(5):
            rho = random_density_matrix(seed, num_qubits=3)
            vector = PauliVectorState.from_density_matrix(rho)
            np.testing.assert_allclose(
                vector.probabilities(), rho.probabilities(), atol=ATOL
            )

    def test_marginals_match_dense_in_any_order(self):
        rho = random_density_matrix(9, num_qubits=3)
        vector = PauliVectorState.from_density_matrix(rho)
        for qubits in [(0,), (2,), (0, 2), (2, 0), (1, 0, 2)]:
            np.testing.assert_allclose(
                vector.marginal_probabilities(qubits),
                rho.marginal_probabilities(list(qubits)),
                atol=ATOL,
            )

    def test_expectation_matches_dense_trace(self):
        observable = tfim_hamiltonian(3)
        basis = pauli_basis(3)
        for seed in range(4):
            rho = random_density_matrix(20 + seed, num_qubits=3)
            vector = PauliVectorState.from_density_matrix(rho)
            matrix = observable.identity_coefficient() * np.eye(8, dtype=complex)
            for pauli, coeff in observable.non_identity_terms():
                index = sum(
                    {"I": 0, "X": 1, "Y": 2, "Z": 3}[letter] * 4 ** (2 - q)
                    for q, letter in enumerate(pauli.label)
                )
                matrix = matrix + coeff * basis[index]
            expected = float(np.real(np.trace(matrix @ rho.data)))
            assert vector.expectation(observable)[0] == pytest.approx(expected, abs=ATOL)

    def test_batched_evolution_is_bitwise_single_row(self):
        """The batch axis is elementwise: stacked rows evolve and measure
        exactly as they would alone — the fast-path's core assumption."""
        rng = np.random.default_rng(5)
        singles = []
        for seed in range(6):
            rho = random_density_matrix(60 + seed, num_qubits=3)
            singles.append(PauliVectorState.from_density_matrix(rho))
        stacked = PauliVectorState.stack(singles)
        assert stacked.batch == 6
        ops = [
            (unitary_ptm(Gate("h", 1).matrix()), (1,)),
            (kraus_to_ptm(amplitude_damping_kraus(0.12)), (0,)),
            (unitary_ptm(Gate("cx", 2).matrix()), (2, 0)),
            (kraus_to_ptm(depolarizing_kraus(0.01, num_qubits=2)), (1, 2)),
        ]
        for ptm, positions in ops:
            stacked.apply_ptm(ptm, positions)
            for single in singles:
                single.apply_ptm(ptm, positions)
        for index, single in enumerate(singles):
            assert np.array_equal(stacked.data[index], single.data[0]), index
        batch_probs = stacked.batch_probabilities()
        batch_marginals = stacked.batch_marginal_probabilities((2, 0))
        for index, single in enumerate(singles):
            assert np.array_equal(batch_probs[index], single.probabilities())
            assert np.array_equal(
                batch_marginals[index], single.marginal_probabilities((2, 0))
            )

    def test_stack_and_row_round_trip(self):
        singles = [PauliVectorState(2) for _ in range(3)]
        singles[1].apply_unitary(Gate("h", 1).matrix(), (0,))
        stacked = PauliVectorState.stack(singles)
        for index in range(3):
            assert np.array_equal(stacked.row(index).data, singles[index].data)

    def test_shape_validation(self):
        with pytest.raises(SimulationError):
            PauliVectorState(2, data=np.zeros(5))
        with pytest.raises(SimulationError):
            PauliVectorState(0)
        with pytest.raises(SimulationError):
            PauliVectorState(2).apply_ptm(np.eye(4), (0, 0))
        with pytest.raises(SimulationError):
            PauliVectorState(2, batch=2).trace()


class TestFusionSemantics:
    @pytest.fixture(scope="class")
    def device(self):
        return randomized.fuzz_device()

    @pytest.fixture(scope="class")
    def noise(self, device):
        return NoiseModel.from_device(device)

    def test_fused_kernel_equals_member_product(self):
        """Composing PTMs then applying once equals applying one by one."""
        members = [
            unitary_ptm(Gate("rx", 1, (0.4,)).matrix()),
            kraus_to_ptm(phase_damping_kraus(0.2)),
            unitary_ptm(Gate("h", 1).matrix()),
        ]
        composed = members[2] @ (members[1] @ members[0])
        fused = PauliVectorState.from_density_matrix(random_density_matrix(3, 2))
        stepped = fused.copy()
        fused.apply_ptm(composed, (1,))
        for member in members:
            stepped.apply_ptm(member, (1,))
        np.testing.assert_allclose(fused.data, stepped.data, atol=ATOL)

    def test_evolver_matches_unfused_application(self, device, noise):
        """The fused walk equals applying every op's PTM individually."""
        evolver = PTMEvolver(noise)
        for seed in randomized.fuzz_seeds(4, offset=900):
            scheduled = randomized.random_schedule(seed, device=device)
            fused = evolver.run(scheduled)
            context = evolver.prepare(scheduled)
            unfused = PauliVectorState(scheduled.num_qubits)
            last_time = dict(context.initial_last_time)
            for op in evolver._simulator.schedule_ops(
                scheduled, context, last_time, 0, len(context.ordered)
            ):
                unfused.apply_ptm(sim_op_ptm(op), op.positions)
            np.testing.assert_allclose(fused.data, unfused.data, atol=ATOL)

    def test_segmented_advance_is_bitwise_on_stride_grid(self, device, noise):
        """Stopping and resuming at stride multiples replays the identical
        composed-kernel sequence — the warm-resume determinism contract."""
        evolver = PTMEvolver(noise)
        for seed in randomized.fuzz_seeds(4, offset=950):
            scheduled = randomized.random_schedule(seed, device=device)
            context = evolver.prepare(scheduled)
            total = len(context.ordered)
            one_shot = evolver.begin(scheduled, context)
            evolver.advance(scheduled, one_shot, context)
            segmented = evolver.begin(scheduled, context)
            stops = list(range(evolver.fusion_stride, total, evolver.fusion_stride))
            for stop in stops + [total]:
                evolver.advance(scheduled, segmented, context, stop_index=stop)
            assert np.array_equal(one_shot.state.data, segmented.state.data), seed
            # Fusion never crosses the stride grid, so the kernel counters are
            # segmentation-independent too.
            assert segmented.matmuls == one_shot.matmuls
            assert segmented.fused == one_shot.fused

    def test_cursor_copy_resets_counters(self, device, noise):
        evolver = PTMEvolver(noise)
        scheduled = randomized.random_schedule(31, device=device)
        cursor = evolver.begin(scheduled)
        evolver.advance(scheduled, cursor, stop_index=evolver.fusion_stride)
        assert cursor.matmuls > 0
        snapshot = cursor.copy()
        assert snapshot.matmuls == 0 and snapshot.fused == 0
        assert np.array_equal(snapshot.state.data, cursor.state.data)

    def test_fusion_beats_dense_contraction_count(self, device, noise):
        """The acceptance criterion: fewer fused kernels than dense-path
        contractions on every fuzz schedule."""
        evolver = PTMEvolver(noise)
        for seed in randomized.fuzz_seeds(4, offset=980):
            scheduled = randomized.random_schedule(seed, device=device)
            cursor = evolver.begin(scheduled)
            evolver.advance(scheduled, cursor)
            dense_count = dense_contraction_count(noise, scheduled)
            assert cursor.matmuls < dense_count, (
                f"seed {seed}: {cursor.matmuls} kernels vs {dense_count} contractions"
            )
            assert cursor.fused > 0
