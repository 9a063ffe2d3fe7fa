"""Tests for noise-model construction and channel generation."""

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.simulators import NoiseModel, is_valid_channel, thermal_relaxation_kraus


class TestFlavours:
    def test_calibration_excludes_coherent(self, device):
        model = NoiseModel.from_calibration(device)
        assert not model.include_coherent_errors
        assert not model.include_crosstalk
        assert model.include_relaxation and model.include_gate_error

    def test_device_includes_coherent(self, device):
        model = NoiseModel.from_device(device)
        assert model.include_coherent_errors and model.include_crosstalk

    def test_ideal_is_noiseless(self, device):
        model = NoiseModel.ideal(device)
        assert model.is_noiseless()
        assert not NoiseModel.from_device(device).is_noiseless()

    def test_repr_flavours(self, device):
        assert "device" in repr(NoiseModel.from_device(device))
        assert "calibration" in repr(NoiseModel.from_calibration(device))
        assert "ideal" in repr(NoiseModel.ideal(device))


class TestIdleChannels:
    def test_zero_duration_produces_nothing(self, device_noise):
        assert device_noise.idle_channels(0, 100.0, 100.0) == []

    def test_channels_are_trace_preserving(self, device_noise):
        ops = device_noise.idle_channels(0, 0.0, 500.0, idle_neighbors=[1])
        assert ops
        for op in ops:
            assert is_valid_channel(op.kraus)

    def test_coherent_component_present_only_in_device_flavour(self, device, device_noise, calibration_noise):
        device_ops = device_noise.idle_channels(0, 0.0, 1000.0)
        calib_ops = calibration_noise.idle_channels(0, 0.0, 1000.0)
        # The device flavour adds a unitary (single-Kraus) channel for the detuning.
        assert any(len(op.kraus) == 1 for op in device_ops)
        assert all(len(op.kraus) > 1 for op in calib_ops)

    def test_crosstalk_requires_idle_neighbors(self, device_noise):
        without = device_noise.idle_channels(0, 0.0, 1000.0, idle_neighbors=[])
        with_neighbor = device_noise.idle_channels(0, 0.0, 1000.0, idle_neighbors=[1])
        assert len(with_neighbor) == len(without) + 1
        two_qubit_ops = [op for op in with_neighbor if len(op.qubits) == 2]
        assert two_qubit_ops and two_qubit_ops[0].qubits == (0, 1)

    def test_time_offset_changes_drift_phase(self, device):
        base = NoiseModel.from_device(device)
        shifted = NoiseModel(device, time_offset_ns=25000.0)
        phase_a = [op for op in base.idle_channels(0, 0.0, 2000.0) if len(op.kraus) == 1]
        phase_b = [op for op in shifted.idle_channels(0, 0.0, 2000.0) if len(op.kraus) == 1]
        assert not np.allclose(phase_a[0].kraus[0], phase_b[0].kraus[0])


class TestRelaxationMemo:
    """Idle channels are keyed by absolute time; their relaxation part is
    built once per (qubit, duration, flags)."""

    def test_equal_durations_share_one_channel(self, device):
        model = NoiseModel.from_calibration(device)
        first = model.idle_channels(0, 0.0, 500.0)
        second = model.idle_channels(0, 1200.0, 1700.0)
        assert first is not second
        assert first[0] is second[0]
        assert first[0].superop is second[0].superop
        props = device.qubits[0]
        expected = thermal_relaxation_kraus(500.0, props.t1_ns, props.t2_ns)
        assert len(first[0].kraus) == len(expected)
        for got, want in zip(first[0].kraus, expected):
            assert np.array_equal(got, want)
        assert model.idle_channels(0, 0.0, 600.0)[0] is not first[0]
        assert model.idle_channels(1, 0.0, 500.0)[0] is not first[0]

    def test_invalidation_and_flag_toggle_miss(self, device):
        """Idle relaxation and the gate step share the memo: a repeat lookup
        hits (the gate step on equal matrix content), and invalidation or a
        noise flag toggle misses and rebuilds."""
        matrix = Gate("cx", 2).matrix()
        cases = [
            (lambda model, k: model.idle_channels(0, 100.0 * k, 100.0 * k + 500.0)[0],
             "include_coherent_errors", True),
            (lambda model, k: model.gate_step("cx", (0, 1), matrix.copy()),
             "include_gate_error", False),
            (lambda model, k: model.gate_step("cx", (1, 0), matrix.copy()),
             "include_relaxation", False),
        ]
        for lookup, flag, value in cases:
            model = NoiseModel.from_calibration(device)
            before = lookup(model, 0)
            model.invalidate_channel_cache()
            after = lookup(model, 1)
            assert after is not before
            assert lookup(model, 2) is after
            setattr(model, flag, value)
            rebuilt = lookup(model, 3)
            assert rebuilt is not after
            fresh = NoiseModel.from_calibration(device)
            setattr(fresh, flag, value)
            assert np.array_equal(rebuilt.superop, lookup(fresh, 3).superop)


class TestChannelMemoBound:
    def test_full_memo_evicts_its_least_recently_used_channel(self, device, monkeypatch):
        from repro.simulators import noise_model

        def coherent_only():
            return NoiseModel(
                device,
                include_crosstalk=False,
                include_gate_error=False,
                include_relaxation=False,
            )

        probe = coherent_only()
        probe.idle_channels(0, 0.0, 100.0)
        entry_size = probe.channel_cache.as_dict()["size"]
        monkeypatch.setattr(noise_model, "CHANNEL_CACHE_BYTES", 2 * entry_size)
        model = coherent_only()
        first = model.idle_channels(0, 0.0, 100.0)
        second = model.idle_channels(0, 0.0, 200.0)
        assert model.idle_channels(0, 0.0, 100.0) is first  # used just before
        model.idle_channels(0, 0.0, 300.0)  # full: the least recently used goes
        assert model.idle_channels(0, 0.0, 100.0) is first
        assert model.idle_channels(0, 0.0, 200.0) is not second
        assert model.channel_cache.as_dict()["evictions"] == 2


class TestGateChannels:
    def test_virtual_gates_are_noiseless(self, device_noise):
        assert device_noise.gate_channels("rz", [0]) == []
        assert device_noise.gate_channels("barrier", [0]) == []

    def test_cx_noise_covers_both_qubits(self, device_noise):
        ops = device_noise.gate_channels("cx", [0, 1])
        qubit_sets = [op.qubits for op in ops]
        assert (0,) in qubit_sets and (1,) in qubit_sets
        assert any(len(q) == 2 for q in qubit_sets)
        for op in ops:
            assert is_valid_channel(op.kraus)

    def test_gate_error_disabled(self, device):
        model = NoiseModel(device, include_gate_error=False)
        ops = model.gate_channels("cx", [0, 1])
        assert all(len(op.qubits) == 1 for op in ops)  # only relaxation remains

    def test_ideal_flavour_has_no_gate_noise(self, ideal_noise):
        assert ideal_noise.gate_channels("cx", [0, 1]) == []

    @pytest.mark.parametrize(
        "name,qubits,params",
        [("sx", (2,), ()), ("x", (0,), ()), ("rz", (1,), (0.7,)), ("rx", (3,), (-1.3,)),
         ("cx", (0, 1), ()), ("cx", (1, 0), ()), ("cx", (3, 5), ())],
    )
    def test_gate_step_is_trace_preserving(self, device_noise, name, qubits, params):
        """The gate step composes the unitary with every gate channel into
        one trace-preserving channel on the gate's qubits, whose Kraus set,
        derived from the kept superoperator on first read, gives it back."""
        step = device_noise.gate_step(name, qubits, Gate(name, len(qubits), params).matrix())
        assert step.qubits == qubits
        assert is_valid_channel(step.kraus)
        dim = 2 ** len(qubits)
        # Trace preservation in superoperator form: summing the output's
        # diagonal rows leaves the input's trace functional.
        diagonal = step.superop.reshape(dim, dim, dim * dim)[np.arange(dim), np.arange(dim)]
        np.testing.assert_allclose(diagonal.sum(axis=0), np.eye(dim).reshape(-1), atol=1e-12)
        np.testing.assert_allclose(kron_superop(step.kraus), step.superop, atol=1e-12)
        assert not step.superop.flags.writeable


class TestReadout:
    def test_confusion_identity_when_disabled(self, device, ideal_noise):
        assert np.allclose(ideal_noise.readout_confusion(0), np.eye(2))

    def test_confusion_matches_device(self, device, device_noise):
        assert np.allclose(device_noise.readout_confusion(2), device.readout_confusion_matrix(2))

    def test_measurement_prelude_relaxation(self, device_noise, ideal_noise):
        assert device_noise.measurement_prelude_channels(0)
        assert ideal_noise.measurement_prelude_channels(0) == []


def kron_superop(kraus):
    """The superoperator as ``ChannelOp.superop`` used to build it."""
    dim = kraus[0].shape[0]
    superop = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in kraus:
        superop += np.kron(k, k.conj())
    return superop


class TestSuperoperator:
    def test_matches_the_kron_loop_for_every_channel_kind(self, device_noise):
        """Relaxation, 1- and 2-qubit depolarizing, coherent Z and ZZ and the
        readout prelude, over seeded durations and idle intervals."""
        rng = np.random.default_rng(17)
        device = device_noise.device
        edges = sorted(device.coupling_edges)
        kinds = {}
        for _ in range(30):
            qubit = int(rng.integers(device.num_qubits))
            a, b = edges[int(rng.integers(len(edges)))]
            start = float(rng.uniform(0.0, 5_000.0))
            end = start + float(rng.uniform(10.0, 3_000.0))
            groups = {
                "sx": device_noise.gate_channels("sx", [qubit]),
                "cx": device_noise.gate_channels("cx", [a, b]),
                "idle": device_noise.idle_channels(a, start, end, [b]),
                "measure": device_noise.measurement_prelude_channels(qubit),
            }
            for group, ops in groups.items():
                for op in ops:
                    kinds[(group, len(op.qubits), len(op.kraus))] = True
                    assert np.array_equal(op.superop, kron_superop(op.kraus))
        # Relaxation and 1q depolarizing (sx), 2q depolarizing (cx), coherent
        # Z and ZZ (idle, one Kraus operator each) and the prelude all ran.
        assert ("cx", 2, 16) in kinds
        assert ("idle", 1, 1) in kinds and ("idle", 2, 1) in kinds
        assert any(group == "measure" for group, _, _ in kinds)
        assert any(group == "sx" and width == 1 and count > 1 for group, width, count in kinds)
