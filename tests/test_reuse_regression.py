"""Reuse regression guards for the window-tuner fast path.

The H2 window-tuner sweep is the workload the engine's reuse machinery was
built for; its reuse fraction is recorded in ``BENCH_engine.json``
(``h2_window_tuner.reuse_fraction``) and must not silently regress.  These
tests replay the benchmark's sweep configuration and pin three facts:

* on the PTM kernel, where segment replay runs, the sweep's reuse fraction
  clears the ``> 0.53`` floor — the ceiling an oracle measured for
  *prefix-only* reuse, which segment replay exists to break (the measured
  value is ~0.72; raise the floor when it improves), and segment replay
  leaves the tuned energy bit-identical;
* the dense kernel reuses prefixes only: its sweep counts no segments,
  keeps every prefix resume and computes no segment keys;
* the tuned energy is bit-identical across a sweep run here, one run in a
  process-map worker and one whose candidates caller threads fan into one
  engine, and the counters honour each path's determinism contract.  Repeat
  runs here and in a worker report *identical* stats (each sweep starts on a
  fresh engine, so its counters are a pure function of the sweep).  With
  caller threads,
  whether an item finds a sibling's prefix snapshot is timing: a prefix-skip
  can become a segment replay, shifting ``segment_hits`` (and the PTM
  kernel's matmul/fusion tallies) without changing any result.  What stays
  pinned: single-flight ``segment_misses`` (every distinct key missed
  exactly once however threads interleave) and the instruction totals
  ``instructions_simulated`` / ``instructions_reused``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import in_worker
from repro.engine import NoisyDensityMatrixEngine
from repro.simulators import NoiseModel
from repro.transpiler import transpile
from repro.vaqem import IndependentWindowTuner, TuningBudget
from repro.vqe import ExpectationEstimator, get_application

#: The prefix-only reuse ceiling measured by PR 5's oracle on this sweep.
#: PTM segment replay must stay strictly above it (measured value ~0.72).
REUSE_FLOOR = 0.53

#: The dense kernel's prefix-only reuse on the full sweep: resumes and the
#: reuse fraction it reached with segment replay switched off.
DENSE_PREFIX_RESUMES = 53
DENSE_REUSE_FRACTION = 0.4454

#: Full benchmark budget — used for the recorded-baseline guards.
FULL_BUDGET = dict(dd_resolution=4, gs_resolution=4, max_windows=10)

#: Reduced budget for the tier-determinism matrix (seven sweeps).
SMALL_BUDGET = dict(dd_resolution=2, gs_resolution=2, max_windows=4)


@pytest.fixture(scope="module")
def h2_sweep_inputs():
    application = get_application("UCCSD_H2")
    rng = np.random.default_rng(3)
    circuit = application.ansatz.bind_parameters(
        rng.uniform(-0.3, 0.3, application.num_parameters)
    )
    circuit.measure_all()
    device = application.device()
    compiled = transpile(circuit, device)
    return application, device, compiled


def _run_sweep(
    application,
    device,
    compiled,
    *,
    kernel="ptm",
    enable_segment_reuse=True,
    budget=FULL_BUDGET,
    caller_threads=None,
):
    """One window-tuner sweep on a fresh engine; returns ``(result, stats)``.

    Each candidate batch is one ``estimate_batch`` call.  ``caller_threads=N``
    instead fans each batch out over ``N`` caller threads as one single-item
    ``estimate_batch`` call per candidate, all into the same engine.
    """
    noise_model = NoiseModel.from_device(device)
    engine = NoisyDensityMatrixEngine(
        noise_model,
        seed=11,
        kernel=kernel,
        enable_segment_reuse=enable_segment_reuse,
    )
    estimator = ExpectationEstimator(noise_model, seed=11, engine=engine)
    hamiltonian = application.hamiltonian
    if caller_threads is None:
        def objective(schedules):
            return [r.value for r in estimator.estimate_batch(schedules, hamiltonian)]
    else:
        pool = ThreadPoolExecutor(max_workers=caller_threads)

        def evaluate(scheduled):
            return estimator.estimate_batch([scheduled], hamiltonian)[0].value

        def objective(schedules):
            return list(pool.map(evaluate, schedules))

    tuner = IndependentWindowTuner(objective=objective, budget=TuningBudget(**budget))
    result = tuner.tune(compiled.scheduled, compiled.idle_windows)
    if caller_threads is not None:
        pool.shutdown()
    return result, engine.stats


@pytest.fixture(scope="module")
def h2_sweep(h2_sweep_inputs):
    application, device, compiled = h2_sweep_inputs
    return _run_sweep(application, device, compiled)


@pytest.fixture(scope="module")
def noseg_sweep(h2_sweep_inputs):
    application, device, compiled = h2_sweep_inputs
    return _run_sweep(application, device, compiled, enable_segment_reuse=False)


def test_reuse_fraction_meets_recorded_baseline(h2_sweep):
    _, stats = h2_sweep
    assert stats.reuse_fraction > REUSE_FLOOR
    assert stats.segment_hits > 0
    assert 0.0 < stats.segment_hit_rate <= 1.0


def test_segment_reuse_is_bitwise_transparent_on_the_sweep(h2_sweep, noseg_sweep):
    # Segment replay applies the identical operator arrays in the identical
    # order a cold walk applies: the tuned energy is bit-identical, not
    # merely close, and the tuner walks the exact same candidate sequence.
    result, stats = h2_sweep
    noseg_result, noseg_stats = noseg_sweep
    assert result.tuned_value == noseg_result.tuned_value
    assert result.num_evaluations == noseg_result.num_evaluations
    assert noseg_stats.segment_hits == 0
    assert stats.reuse_fraction > noseg_stats.reuse_fraction


def test_dense_kernel_reuses_prefixes_only(h2_sweep_inputs, h2_sweep):
    # The dense kernel holds no segment cache: it counts no segments, keeps
    # its prefix resumes, computes no segment keys, and tunes to the PTM
    # sweep's energy within the kernels' float tolerance.
    application, device, compiled = h2_sweep_inputs
    result, stats = _run_sweep(application, device, compiled, kernel="dense")
    assert stats.segment_hits == stats.segment_misses == 0
    assert stats.prefix_resumes == DENSE_PREFIX_RESUMES
    assert stats.reuse_fraction == pytest.approx(DENSE_REUSE_FRACTION, abs=1e-4)
    assert result.tuned_value == pytest.approx(h2_sweep[0].tuned_value, abs=1e-9)
    engine = NoisyDensityMatrixEngine(NoiseModel.from_device(device), kernel="dense")
    try:
        assert engine._segment_keys(compiled.scheduled) is None
    finally:
        engine.close()


def _small_sweep(application, device, compiled):
    return _run_sweep(application, device, compiled, budget=SMALL_BUDGET)


class TestTierDeterminism:
    """Counters are a pure function of the workload, here and in a
    process-map worker, and the tuned energy is bit-identical across both
    and under caller threads."""

    @pytest.fixture(scope="class")
    def tier_sweeps(self, h2_sweep_inputs):
        sweeps = {
            None: [_small_sweep(*h2_sweep_inputs) for _ in range(2)],
            "process": [in_worker.run(_small_sweep, *h2_sweep_inputs) for _ in range(2)],
        }
        application, device, compiled = h2_sweep_inputs
        sweeps["caller_threads"] = [
            _run_sweep(application, device, compiled, budget=SMALL_BUDGET, caller_threads=2)
        ]
        return sweeps

    @pytest.mark.parametrize("tier", [None, "process"])
    def test_repeat_runs_are_identical(self, tier_sweeps, tier):
        (first_result, first_stats), (second_result, second_stats) = tier_sweeps[tier]
        assert first_result.tuned_value == second_result.tuned_value
        assert first_stats.as_dict() == second_stats.as_dict()
        assert first_stats.segment_hits > 0

    def test_energy_bit_identical_across_tiers(self, tier_sweeps):
        values = {sweeps[0][0].tuned_value for sweeps in tier_sweeps.values()}
        assert len(values) == 1

    def test_serial_and_thread_share_one_cache_profile(self, tier_sweeps):
        # One engine, one single-flight segment cache: every distinct key is
        # missed exactly once however caller threads interleave, and the
        # instruction counters do not depend on the interleaving.
        # (segment_hits may legitimately differ: a thread can start an item
        # before a sibling's snapshot exists, so fewer prefix skips, more
        # replays.)
        serial = tier_sweeps[None][0][1]
        thread = tier_sweeps["caller_threads"][0][1]
        for counter in (
            "segment_misses",
            "instructions_simulated",
            "instructions_reused",
            "prefix_resumes",
        ):
            assert getattr(serial, counter) == getattr(thread, counter)
