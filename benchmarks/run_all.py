"""Run every fig-benchmark in reduced "smoke" mode and record a perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--output BENCH_engine.json]

Each benchmark's underlying sweep runs with deliberately small parameters
(one application, tiny tuning budgets) so the whole suite completes in well
under a minute.  The driver measures per-benchmark wall-clock, collects the
execution engine's cache/prefix-reuse counters from every pipeline run,
re-times the H2 window-tuner sweep through the sequential (no cache, no
prefix reuse) path and the pipelined engine path, times two concurrent
estimator frontends sharing one engine against a blocking reference, and
compares the dense and PTM
simulation kernels on identical inputs (``docs/ptm.md``), so future perf PRs
have a machine-readable trajectory (``BENCH_engine.json``) to compare against.
``docs/benchmarks.md`` explains every leg.

Exits 1 when a leg raises or a correctness gate (:data:`CORRECTNESS_GATES`)
does not read true; the file is written either way, and every failed gate
is named on standard output and under ``failed_gates``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

os.environ.setdefault("REPRO_BENCH_SMOKE", "1")

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
# The randomized-schedule leg shares its generator with the fuzz test suites
# (one source for fuzz cases and benchmark inputs; see docs/testing.md), and
# the service-load leg reuses the load generator's runner.
sys.path.insert(0, str(BENCH_DIR.parent / "tests"))
sys.path.insert(0, str(BENCH_DIR.parent / "tools"))

import numpy as np

import vaqem_shared


def _smoke_runners():
    """(name, zero-argument callable) per fig-benchmark, smallest useful size."""
    import bench_fig03_surface
    import bench_fig05_dd_sweep
    import bench_fig06_gate_position
    import bench_fig08_angle_tuning
    import bench_fig09_sim_vs_machine
    import bench_fig12_improvements
    import bench_fig13_rel_optimal
    import bench_fig14_window_configs
    import bench_fig15_execution_time
    import bench_fig16_temporal_variability
    import bench_table1_characteristics

    return [
        ("table1_characteristics", bench_table1_characteristics._characterise),
        ("fig03_surface", lambda: bench_fig03_surface._surface_slice(num_points=5)),
        ("fig05_dd_sweep", lambda: bench_fig05_dd_sweep._dd_sweep(max_counts=6)),
        ("fig06_gate_position", lambda: bench_fig06_gate_position._position_sweep(num_positions=7)),
        ("fig08_angle_tuning", lambda: bench_fig08_angle_tuning._angle_tuning_trajectories(maxiter=20, samples=3)),
        ("fig09_sim_vs_machine", lambda: bench_fig09_sim_vs_machine._position_sweep(num_positions=5)),
        ("fig12_improvements", bench_fig12_improvements._run_all),
        ("fig13_rel_optimal", bench_fig13_rel_optimal._run_all),
        ("fig14_window_configs", bench_fig14_window_configs._window_configurations),
        ("fig15_execution_time", lambda: bench_fig15_execution_time._time_breakdowns(angle_iterations=50)),
        ("fig16_temporal_variability", lambda: bench_fig16_temporal_variability._drift_series(hours=6, step_hours=3)),
    ]


#: The smoke suite's correctness gates, as dotted paths into the payload.
#: Each must read ``true``; ``converged`` is informational and not among them.
CORRECTNESS_GATES = (
    "h2_window_tuner.energies_exact_match",
    "h2_concurrent_frontends.values_exact_match",
    "segment_reuse.energies_bit_identical",
    "segment_reuse.randomized_families.probabilities_bit_identical",
    "ptm_kernel_comparison.randomized_families.ptm_beats_dense_contractions",
    "spsa_convergence.spsa.evaluations_match_contract",
    "spsa_convergence.spsa_fewer_circuits",
    "adaptive_shots.adaptive_beats_uniform_stderr",
)


def failed_gates(payload) -> list:
    """The correctness gates that do not read ``true``, by name.

    A gate whose leg raised is skipped: the leg is already under
    ``failures``.  A gate missing from a leg that ran counts as failed.
    """
    failed = []
    for gate in CORRECTNESS_GATES:
        leg, *path = gate.split(".")
        value = payload.get(leg)
        if value is None:
            continue
        for part in path:
            value = value.get(part) if isinstance(value, dict) else None
        if value is not True:
            failed.append(gate)
    return failed


def stable_service_counters(result):
    """The service-load leg with each race-dependent counter split replaced
    by its sum.

    Two tenants submitting one program at once can both miss the fleet
    store, and the engine then serves the later one from its result cache.
    So store hits against misses, a tenant's dedupe hits against store
    misses, and the engine's cache hits and executions move between runs of
    the same code; their sums (and the engine's cache misses, which are
    executions less cache hits) do not.  ``dedupe_hit_rate`` (store hits
    over lookups) moves with them and is left out; stdout still prints it.
    """
    result = dict(result)
    del result["dedupe_hit_rate"]
    store = result["fleet_store"]
    result["fleet_store"] = {
        "entries": store["entries"],
        "lookups": store["hits"] + store["misses"],
    }
    result["engine_stats"] = {
        name: value
        for name, value in result["engine_stats"].items()
        if name not in ("cache_hits", "executions", "hit_rate")
    }
    tenants = {}
    for name, metrics in result["per_tenant"].items():
        metrics = dict(metrics)
        metrics["store_lookups"] = metrics.pop("dedupe_hits") + metrics.pop("store_misses")
        tenants[name] = metrics
    result["per_tenant"] = tenants
    return result


def _engine_objective(estimator, hamiltonian):
    """The window tuner's objective on ``estimator``'s engine: one blocking
    batch per sweep phase."""

    def objective(schedules):
        return [result.value for result in estimator.estimate_batch(schedules, hamiltonian)]

    return objective


def _h2_tuner_comparison():
    """Time the H2 window-tuner sweep with and without the engine's reuse.

    Two legs tune from the same compiled schedule: the legacy *sequential*
    path (one ``estimate`` call per candidate, no result cache, no prefix
    reuse — what the pre-engine code did), and the *batched* engine path,
    one ``estimate_batch`` call per sweep phase with the result cache and
    prefix reuse on.  With ``shots=None`` the tuned energies of both legs
    must agree bit for bit (the engine acceptance criterion); only
    wall-clock may differ.

    Each leg runs once untimed, so neither pays the process's first-call
    costs; then three alternating repeats per leg, each on a fresh engine
    and noise model, give the in-process medians the seconds and the
    speedup report.  The energies must match on every repeat.
    """
    from repro.engine import NoisyDensityMatrixEngine
    from repro.simulators import NoiseModel
    from repro.transpiler import transpile
    from repro.vaqem import IndependentWindowTuner, TuningBudget
    from repro.vqe import ExpectationEstimator, get_application

    application = get_application("UCCSD_H2")
    rng = np.random.default_rng(3)
    circuit = application.ansatz.bind_parameters(
        rng.uniform(-0.3, 0.3, application.num_parameters)
    )
    circuit.measure_all()
    device = application.device()
    compiled = transpile(circuit, device)
    budget = TuningBudget(dd_resolution=4, gs_resolution=4, max_windows=10)
    hamiltonian = application.hamiltonian

    def tune(leg: str):
        # A fresh noise model per leg: otherwise the legs timed later would
        # inherit the first leg's warmed channel cache and bias the speedups.
        batched = leg != "sequential"
        noise_model = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(
            noise_model,
            seed=11,
            enable_prefix_reuse=batched,
            result_cache_bytes=(256 << 20) if batched else 0,
        )
        estimator = ExpectationEstimator(noise_model, seed=11, engine=engine)
        if batched:
            objective = _engine_objective(estimator, hamiltonian)
        else:

            def objective(schedules):
                return [estimator.estimate(s, hamiltonian).value for s in schedules]

        tuner = IndependentWindowTuner(objective, budget=budget)
        start = time.perf_counter()
        result = tuner.tune(compiled.scheduled, compiled.idle_windows)
        elapsed = time.perf_counter() - start
        return elapsed, result, engine

    legs = ("sequential", "batched")
    for leg in legs:
        tune(leg)
    runs = {leg: [] for leg in legs}
    for _ in range(3):
        for leg in legs:
            runs[leg].append(tune(leg))
    sequential_s = float(np.median([run[0] for run in runs["sequential"]]))
    batched_s = float(np.median([run[0] for run in runs["batched"]]))
    sequential = runs["sequential"][-1][1]
    _, batched, engine = runs["batched"][-1]
    return {
        "sequential_seconds": sequential_s,
        "batched_seconds": batched_s,
        "speedup": sequential_s / batched_s if batched_s else float("inf"),
        "tuned_energy_sequential": sequential.tuned_value,
        "tuned_energy_batched": batched.tuned_value,
        "energies_exact_match": all(
            a[1].tuned_value == b[1].tuned_value
            for a, b in zip(runs["sequential"], runs["batched"])
        ),
        "num_evaluations": batched.num_evaluations,
        "engine_stats": engine.stats.as_dict(),
        # The headline reuse number (tracked by tests/test_reuse_regression.py).
        "reuse_fraction": engine.stats.reuse_fraction,
        # Segment-cache replay counters for the batched leg
        # (docs/segment_reuse.md): hits are whole fusion-stride blocks served
        # from the content-keyed kernel cache instead of re-walking their
        # instructions.  Segments run on the PTM kernel only, so these are
        # zero on the dense kernel.
        "segment_cache": {
            "hits": engine.stats.segment_hits,
            "misses": engine.stats.segment_misses,
            "hit_rate": engine.stats.segment_hit_rate,
        },
    }


def _concurrent_frontends_leg():
    """Two submitters sharing one engine, against a blocking reference.

    Each frontend owns a *disjoint* family of H2 schedules (different bound
    parameters, so no shared simulated prefix across frontends) and submits
    it in several ``submit_expectation_batch_full`` batches from its own
    thread, with its estimator as the ``submitter``; the engine's scheduler
    runs them one at a time, round-robin across the two
    (``docs/scheduler.md``).  Values must be bit-identical to a blocking
    serial reference.
    """
    import threading

    from repro.engine import NoisyDensityMatrixEngine
    from repro.mitigation import DDConfig, insert_dd_sequences
    from repro.mitigation.gate_scheduling import GSConfig, reschedule_gate
    from repro.simulators import NoiseModel
    from repro.transpiler import transpile
    from repro.vqe import ExpectationEstimator, get_application

    application = get_application("UCCSD_H2")
    device = application.device()
    rng = np.random.default_rng(17)

    def build_family():
        """One frontend's workload: a base schedule plus sweep-style variants."""
        circuit = application.ansatz.bind_parameters(
            rng.uniform(-0.3, 0.3, application.num_parameters)
        )
        circuit.measure_all()
        compiled = transpile(circuit, device)
        schedules = [compiled.scheduled]
        for window in compiled.idle_windows[:6]:
            for position in (0.0, 0.33, 0.66):
                schedules.append(
                    reschedule_gate(compiled.scheduled, window, GSConfig(position))
                )
            try:
                schedules.append(
                    insert_dd_sequences(compiled.scheduled, window, DDConfig("xy4", 1))
                )
            except Exception:
                pass
        return schedules

    families = [build_family(), build_family()]
    batch_size = 4
    batches = [
        [family[start : start + batch_size] for start in range(0, len(family), batch_size)]
        for family in families
    ]

    def run_frontends():
        # A fresh noise model, as in the tuner comparison: the reference
        # below must not inherit warmed channel caches.
        noise_model = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise_model, seed=11)
        estimators = [
            ExpectationEstimator(noise_model, seed=11, engine=engine) for _ in families
        ]
        values = {}
        errors = []

        def frontend(index):
            try:
                futures = []
                for batch in batches[index]:
                    futures.extend(
                        engine.submit_expectation_batch_full(
                            batch, application.hamiltonian, submitter=estimators[index]
                        )
                    )
                values[index] = tuple(future.result().value for future in futures)
            except Exception as error:  # pragma: no cover - surfaced via raise below
                errors.append(error)

        threads = [
            threading.Thread(target=frontend, args=(index,)) for index in range(len(families))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        engine.close()
        if errors:
            raise errors[0]
        return elapsed, tuple(values[index] for index in range(len(families)))

    concurrent_seconds, concurrent_values = run_frontends()

    # Blocking serial reference: the determinism bar.
    noise_model = NoiseModel.from_device(device)
    reference_engine = NoisyDensityMatrixEngine(noise_model, seed=11)
    reference_estimator = ExpectationEstimator(noise_model, seed=11, engine=reference_engine)
    reference_values = tuple(
        tuple(
            r.value
            for r in reference_estimator.estimate_batch(family, application.hamiltonian)
        )
        for family in families
    )

    return {
        "num_frontends": len(families),
        "schedules_per_frontend": len(families[0]),
        "batches_per_frontend": len(batches[0]),
        "cpu_count": os.cpu_count(),
        "concurrent_seconds": concurrent_seconds,
        "values_exact_match": concurrent_values == reference_values,
    }


def _randomized_reuse_leg():
    """Engine reuse on the shared randomized schedule families.

    Inputs come from ``tests/randomized.py`` — the same seeded generator the
    fuzz suites run — so this leg benchmarks exactly the cases the
    differential tests prove correct.  Each family is a base schedule and
    its sweep-style DD/GS variants, which share checkpoint prefixes (and,
    on the PTM kernel, segments) with the base.
    """
    import randomized
    from repro.engine import NoisyDensityMatrixEngine
    from repro.simulators import NoiseModel

    device = randomized.fuzz_device()
    seeds = randomized.fuzz_seeds(6, offset=500)
    families = []
    for seed in seeds:
        compiled = randomized.random_compiled(seed, device=device)
        families.append(randomized.schedule_family(compiled, seed))

    engine = NoisyDensityMatrixEngine(NoiseModel.from_device(device), seed=5)
    start = time.perf_counter()
    for family in families:
        for scheduled in family:
            engine.run(scheduled)
    elapsed = time.perf_counter() - start
    stats = engine.stats.as_dict()
    return {
        "seeds": seeds,
        "num_families": len(families),
        "num_schedules": sum(len(family) for family in families),
        "seconds": elapsed,
        "reuse_fraction": stats["reuse_fraction"],
        "cache_hits": stats["cache_hits"],
        "prefix_resumes": stats["prefix_resumes"],
    }


def _ptm_kernel_comparison():
    """Dense kernel vs PTM kernel on identical inputs, seeds and schedules.

    Two workloads, both kernel-blind at the API level: the H2 window-tuner
    sweep (the paper's hot loop) and the randomized schedule families shared
    with the fuzz suites (the exact seeds ``_randomized_reuse_leg`` uses).
    Both kernels run with the same engine seed; the leg records wall-clock
    per kernel, the PTM backend's fused-kernel counters
    (``ptm_matmuls`` / ``instructions_fused``), the number
    of tensor contractions the dense backend spends on the same op streams
    (:func:`repro.simulators.ptm.dense_contraction_count` — the acceptance
    bar is ``ptm_matmuls`` strictly below it), and the largest energy
    difference between kernels (float-tolerance parity; the differential
    suite ``tests/test_ptm_differential.py`` enforces ``<= 1e-9``).
    """
    import randomized
    from repro.engine import NoisyDensityMatrixEngine
    from repro.operators import tfim_hamiltonian
    from repro.simulators import NoiseModel
    from repro.simulators.ptm import dense_contraction_count
    from repro.transpiler import transpile
    from repro.vaqem import IndependentWindowTuner, TuningBudget
    from repro.vqe import ExpectationEstimator, get_application

    application = get_application("UCCSD_H2")
    rng = np.random.default_rng(3)
    circuit = application.ansatz.bind_parameters(
        rng.uniform(-0.3, 0.3, application.num_parameters)
    )
    circuit.measure_all()
    device = application.device()
    compiled = transpile(circuit, device)
    budget = TuningBudget(dd_resolution=4, gs_resolution=4, max_windows=10)

    def tune(kernel: str):
        # Same seed and inputs as the batched leg of the H2 comparison; only
        # the kernel differs (fresh noise model per leg, as ever).
        noise_model = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise_model, seed=11, kernel=kernel)
        estimator = ExpectationEstimator(noise_model, seed=11, engine=engine)
        tuner = IndependentWindowTuner(
            _engine_objective(estimator, application.hamiltonian), budget=budget
        )
        start = time.perf_counter()
        result = tuner.tune(compiled.scheduled, compiled.idle_windows)
        elapsed = time.perf_counter() - start
        stats = engine.stats.as_dict()
        return elapsed, result, stats

    dense_seconds, dense_tuned, dense_stats = tune("dense")
    ptm_seconds, ptm_tuned, ptm_stats = tune("ptm")

    # Randomized families: the same seeds the reuse leg benchmarks and the
    # differential suites prove correct.
    fuzz_device = randomized.fuzz_device()
    seeds = randomized.fuzz_seeds(6, offset=500)
    schedules = []
    for seed in seeds:
        family_compiled = randomized.random_compiled(seed, device=fuzz_device)
        schedules.extend(randomized.schedule_family(family_compiled, seed))
    observable = tfim_hamiltonian(4)

    def run_families(kernel: str):
        noise_model = NoiseModel.from_device(fuzz_device)
        engine = NoisyDensityMatrixEngine(noise_model, seed=5, kernel=kernel)
        start = time.perf_counter()
        values = engine.expectation_batch(schedules, observable)
        elapsed = time.perf_counter() - start
        stats = engine.stats.as_dict()
        return elapsed, values, stats

    family_dense_seconds, family_dense_values, _ = run_families("dense")
    family_ptm_seconds, family_ptm_values, family_ptm_stats = run_families("ptm")
    contraction_noise = NoiseModel.from_device(fuzz_device)
    dense_contractions = sum(
        dense_contraction_count(contraction_noise, scheduled) for scheduled in schedules
    )
    max_family_delta = max(
        abs(a - b) for a, b in zip(family_dense_values, family_ptm_values)
    )

    return {
        "h2_window_tuner": {
            "dense_seconds": dense_seconds,
            "ptm_seconds": ptm_seconds,
            "speedup": dense_seconds / ptm_seconds if ptm_seconds else float("inf"),
            "tuned_energy_dense": dense_tuned.tuned_value,
            "tuned_energy_ptm": ptm_tuned.tuned_value,
            "tuned_energy_delta": abs(dense_tuned.tuned_value - ptm_tuned.tuned_value),
            "num_evaluations": ptm_tuned.num_evaluations,
            "ptm_matmuls": ptm_stats["ptm_matmuls"],
            "instructions_fused": ptm_stats["instructions_fused"],
            "dense_engine_stats": dense_stats,
        },
        "randomized_families": {
            "seeds": seeds,
            "num_schedules": len(schedules),
            "dense_seconds": family_dense_seconds,
            "ptm_seconds": family_ptm_seconds,
            "speedup": (
                family_dense_seconds / family_ptm_seconds
                if family_ptm_seconds
                else float("inf")
            ),
            "max_energy_delta": max_family_delta,
            "ptm_matmuls": family_ptm_stats["ptm_matmuls"],
            "instructions_fused": family_ptm_stats["instructions_fused"],
            "dense_contractions": dense_contractions,
            # The acceptance criterion: fused kernels strictly undercut the
            # dense backend's per-instruction contraction count.
            "ptm_beats_dense_contractions": (
                family_ptm_stats["ptm_matmuls"] < dense_contractions
            ),
        },
    }


def _ingestion_leg():
    """External-program ingestion: the ``benchmarks/qasm/`` standard set
    through the frontend (``docs/ingestion.md``), timed end to end.

    Four measurements: (1) QASM parse throughput — tokenize, parse,
    macro-expand, decompose to native gates, resource-validate; (2) the JSON
    wire-format round trip of the same circuits; (3) the rejection cost of
    adversarial inputs — every corruption class applied to every benchmark
    must fail with a typed ``IngestError``, and the time it takes is the
    overhead an ingesting service pays per malicious submission; (4) executing
    the ingested programs through the full noisy pipeline under both
    simulation kernels.  The kernels sample from distributions that agree to
    float tolerance, so per-benchmark counts agreement is recorded as a
    fraction rather than asserted bit-exact (the PTM differential suite owns
    the tolerance bar).
    """
    import randomized
    from repro.backends import get_device
    from repro.engine import FakeDeviceEngine
    from repro.exceptions import IngestError
    from repro.frontend import (
        IngestStats,
        circuit_from_json,
        circuit_to_json,
        ingest_qasm,
        parse_qasm,
    )

    qasm_dir = BENCH_DIR / "qasm"
    sources = {path.stem: path.read_text() for path in sorted(qasm_dir.glob("*.qasm"))}
    if not sources:
        raise FileNotFoundError(f"no .qasm benchmarks found in {qasm_dir}")
    repeats = 20
    total_bytes = sum(len(text.encode()) for text in sources.values())

    # Leg 1: parse throughput (repeated — the individual files are small).
    programs = {}
    start = time.perf_counter()
    for _ in range(repeats):
        for name, text in sources.items():
            programs[name] = ingest_qasm(text, name=name)
    parse_seconds = time.perf_counter() - start
    stats = IngestStats()
    for program in programs.values():
        stats.record(program)

    # Leg 2: JSON wire-format round trip of the parsed circuits.
    start = time.perf_counter()
    for _ in range(repeats):
        for program in programs.values():
            circuit_from_json(circuit_to_json(program.circuit))
    json_seconds = time.perf_counter() - start

    # Leg 3: adversarial inputs — every corruption class on every file.
    rejected = 0
    benign = 0
    start = time.perf_counter()
    for index, text in enumerate(sources.values()):
        for kind in randomized.CORRUPTION_KINDS:
            _, corrupted = randomized.corrupt_program(text, 4000 + index, kind=kind)
            try:
                parse_qasm(corrupted)
                benign += 1  # some mutations stay valid; typed failure or success only
            except IngestError:
                rejected += 1
    reject_seconds = time.perf_counter() - start

    # Leg 4: execute the ingested programs under both simulation kernels.
    device = get_device("fake_casablanca")
    kernels = {}
    counts_by_kernel = {}
    for kernel in ("dense", "ptm"):
        engine = FakeDeviceEngine(device, seed=11, shots=256, kernel=kernel)
        start = time.perf_counter()
        counts_by_kernel[kernel] = {
            name: engine.run(program).counts for name, program in programs.items()
        }
        kernels[kernel] = {
            "seconds": time.perf_counter() - start,
            # The inner schedule-level engine carries the kernel counters
            # (ptm_matmuls / instructions_fused); the frontend engine's own
            # stats only track its transpile cache.
            "engine_stats": engine.noisy_engine.stats.as_dict(),
        }
    matches = sum(
        counts_by_kernel["dense"][name] == counts_by_kernel["ptm"][name]
        for name in sources
    )

    return {
        "benchmarks": sorted(sources),
        "repeats": repeats,
        "source_bytes": total_bytes,
        "ingest_counters": stats.as_dict(),
        "parse_seconds": parse_seconds,
        "programs_per_second": (repeats * len(sources)) / parse_seconds
        if parse_seconds
        else float("inf"),
        "json_round_trip_seconds": json_seconds,
        "corruption": {
            "cases": rejected + benign,
            "typed_rejections": rejected,
            "benign_mutations": benign,
            "seconds": reject_seconds,
        },
        "kernels": kernels,
        "counts_agreement_fraction": matches / len(sources),
    }


def _segment_reuse_leg():
    """A/B the segment-level operator cache on the H2 window-tuner sweep.

    Both legs run the serial tier on the PTM kernel, the only kernel with a
    segment cache, with prefix reuse on; only ``enable_segment_reuse``
    differs.  Replaying a cached segment applies
    the identical operator arrays in the identical order as re-walking its
    instructions, so the tuned energies must agree *bit for bit* — the delta
    recorded here is the acceptance check, not a tolerance.  The reuse
    fractions quantify what segment replay adds on top of prefix snapshots:
    window-tuner candidates differing only inside window k share every
    fusion-stride block after k (docs/segment_reuse.md).
    """
    from repro.engine import NoisyDensityMatrixEngine
    from repro.simulators import NoiseModel
    from repro.transpiler import transpile
    from repro.vaqem import IndependentWindowTuner, TuningBudget
    from repro.vqe import ExpectationEstimator, get_application

    application = get_application("UCCSD_H2")
    rng = np.random.default_rng(3)
    circuit = application.ansatz.bind_parameters(
        rng.uniform(-0.3, 0.3, application.num_parameters)
    )
    circuit.measure_all()
    device = application.device()
    compiled = transpile(circuit, device)
    budget = TuningBudget(dd_resolution=4, gs_resolution=4, max_windows=10)

    def tune(enable_segment_reuse):
        noise_model = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(
            noise_model, seed=11, kernel="ptm", enable_segment_reuse=enable_segment_reuse
        )
        estimator = ExpectationEstimator(noise_model, seed=11, engine=engine)
        tuner = IndependentWindowTuner(
            _engine_objective(estimator, application.hamiltonian), budget=budget
        )
        start = time.perf_counter()
        result = tuner.tune(compiled.scheduled, compiled.idle_windows)
        elapsed = time.perf_counter() - start
        stats = engine.stats.as_dict()
        return elapsed, result, stats

    on_seconds, on_result, on_stats = tune(True)
    off_seconds, off_result, off_stats = tune(False)

    # Randomized segment families (tests/randomized.py:segment_family — the
    # same generator the tests/test_segments.py differential suite fuzzes):
    # window-divergent variants, run with the cache on and off, checking the
    # final probability vectors bit for bit.
    import randomized

    fuzz_device = randomized.fuzz_device()
    families = []
    for fuzz_seed in randomized.fuzz_seeds(4, offset=900):
        fuzz_compiled = randomized.random_compiled(fuzz_seed, device=fuzz_device)
        families.append(randomized.segment_family(fuzz_compiled, fuzz_seed))
    num_schedules = sum(len(family) for family in families)

    def run_families(enable_segment_reuse):
        noise_model = NoiseModel.from_device(fuzz_device)
        engine = NoisyDensityMatrixEngine(
            noise_model, seed=5, kernel="ptm", enable_segment_reuse=enable_segment_reuse
        )
        start = time.perf_counter()
        probabilities = [
            engine.run(scheduled).probabilities
            for family in families
            for _, _, scheduled in family
        ]
        elapsed = time.perf_counter() - start
        stats = engine.stats.as_dict()
        return elapsed, probabilities, stats

    fam_on_seconds, fam_on_probs, fam_on_stats = run_families(True)
    fam_off_seconds, fam_off_probs, _ = run_families(False)
    families_bit_identical = all(
        np.array_equal(a, b) for a, b in zip(fam_on_probs, fam_off_probs)
    )

    return {
        "segments_on_seconds": on_seconds,
        "segments_off_seconds": off_seconds,
        "speedup": off_seconds / on_seconds if on_seconds else float("inf"),
        "reuse_fraction": on_stats["reuse_fraction"],
        "reuse_fraction_segments_off": off_stats["reuse_fraction"],
        "segment_hits": on_stats["segment_hits"],
        "segment_misses": on_stats["segment_misses"],
        "segment_hit_rate": on_stats["segment_hit_rate"],
        "tuned_energy": on_result.tuned_value,
        # Bitwise, by construction — replay applies the same arrays in the
        # same order.  Recorded as the delta so a regression is visible in
        # the trajectory, not just in the test suite.
        "energies_bit_identical": on_result.tuned_value == off_result.tuned_value,
        "energy_delta": abs(on_result.tuned_value - off_result.tuned_value),
        "randomized_families": {
            "num_families": len(families),
            "num_schedules": num_schedules,
            "segments_on_seconds": fam_on_seconds,
            "segments_off_seconds": fam_off_seconds,
            "segment_hits": fam_on_stats["segment_hits"],
            "segment_misses": fam_on_stats["segment_misses"],
            "reuse_fraction": fam_on_stats["reuse_fraction"],
            "probabilities_bit_identical": families_bit_identical,
        },
    }


class _RecordingObjective:
    """Record every evaluated point while forwarding to a batch objective."""

    def __init__(self, inner):
        self.inner = inner
        self.points = []

    def __call__(self, parameters):
        self.points.append(np.asarray(parameters, dtype=float).copy())
        return self.inner(parameters)

    def evaluate_batch(self, points):
        self.points.extend(np.asarray(p, dtype=float).copy() for p in points)
        return self.inner.evaluate_batch(points)


def _spsa_convergence_leg():
    """Circuits-executed-to-convergence: engine-batched SPSA vs fixed-shot scipy.

    Both optimizers minimise the same sampled H2 objective (hardware-
    efficient SU2 ansatz, 16 parameters, a scarce 64-shot budget per
    evaluation — the shot-frugal regime where stochastic-approximation
    optimizers earn their keep) from the same initial point on identically
    seeded engines, under an equal evaluation budget.  The cost metric is
    *circuits executed until convergence* — each objective evaluation submits
    one measured circuit per qubit-wise-commuting Hamiltonian group —
    following the convention of the shot-frugal optimizer literature rather
    than wall-clock (``docs/algorithms.md``).  Convergence is judged
    honestly: the recorded evaluation points are replayed at ``shots=None``
    (the exact noisy expectation, engine-cached so the replay is nearly free)
    and the first evaluation closing 95% of the exact gap to the
    trajectories' best value marks the convergence point.  A QAOA MaxCut
    instance (``qaoa_ansatz`` + ``ring_maxcut_hamiltonian``) rides along as a
    second workload exercising the same batched path on a different ansatz
    family.
    """
    from repro.circuits import efficient_su2, qaoa_ansatz
    from repro.engine import NoisyDensityMatrixEngine
    from repro.operators import h2_hamiltonian, ring_maxcut_hamiltonian
    from repro.optimizers import COBYLA, SPSA
    from repro.simulators import NoiseModel
    from repro.vqe import VQE, get_application

    smoke = vaqem_shared.smoke_mode()
    maxiter = 60 if smoke else 100
    shots = 64

    hamiltonian = h2_hamiltonian()
    ansatz = efficient_su2(hamiltonian.num_qubits, reps=1, entanglement="linear")
    device = get_application("UCCSD_H2").device()
    num_groups = len(hamiltonian.group_commuting())

    def run(optimizer):
        # A fresh seeded engine per optimizer: identical sampled objective,
        # no cache inherited from the other optimizer's trajectory.
        noise_model = NoiseModel.from_device(device)
        engine = NoisyDensityMatrixEngine(noise_model, seed=11)
        vqe = VQE(ansatz, hamiltonian, seed=7)
        objective = _RecordingObjective(
            vqe.noisy_batch_objective_factory(
                device, noise_model=noise_model, shots=shots, engine=engine
            )
        )
        start = time.perf_counter()
        result = optimizer.minimize(objective, vqe.initial_point(scale=0.5))
        elapsed = time.perf_counter() - start
        # Honest convergence: replay every evaluated point at shots=None (the
        # exact noisy expectation; the noisy evolutions are already cached).
        exact_objective = vqe.noisy_batch_objective_factory(
            device, noise_model=noise_model, shots=None, engine=engine
        )
        exact_values = exact_objective.evaluate_batch(objective.points)
        return result, exact_values, elapsed

    # Gains tuned for the SU2/H2 landscape (Spall's schedules with a larger
    # base step; the defaults are calibrated for the small-angle UCCSD runs).
    spsa = SPSA(maxiter=maxiter, seed=7, learning_rate=2.0, perturbation=0.2)
    spsa_result, spsa_exact, spsa_seconds = run(spsa)
    # Equal evaluation budget for the scipy baseline (COBYLA is the paper's
    # feasible-flow optimizer for the chemistry problems).
    evaluation_budget = 1 + 2 * spsa.resamplings * maxiter
    cobyla_result, cobyla_exact, cobyla_seconds = run(COBYLA(maxiter=evaluation_budget))

    exact_initial = spsa_exact[0]
    exact_best = min(min(spsa_exact), min(cobyla_exact))
    threshold = exact_best + max(0.05 * (exact_initial - exact_best), 0.02)

    def circuits_to_convergence(exact_values):
        for index, value in enumerate(exact_values):
            if value <= threshold:
                return (index + 1) * num_groups, True
        return len(exact_values) * num_groups, False

    spsa_circuits, spsa_converged = circuits_to_convergence(spsa_exact)
    cobyla_circuits, cobyla_converged = circuits_to_convergence(cobyla_exact)

    # QAOA ride-along: the same batched SPSA on a MaxCut ring instance.
    qaoa_ham = ring_maxcut_hamiltonian(6)
    qaoa_noise = NoiseModel.from_device(device)
    qaoa_engine = NoisyDensityMatrixEngine(qaoa_noise, seed=11)
    qaoa_vqe = VQE(
        qaoa_ansatz(6, [(i, (i + 1) % 6) for i in range(6)], reps=2), qaoa_ham, seed=7
    )
    qaoa_objective = qaoa_vqe.noisy_batch_objective_factory(
        device, noise_model=qaoa_noise, shots=shots, engine=qaoa_engine
    )
    qaoa_result = SPSA(maxiter=maxiter, seed=7).minimize(
        qaoa_objective, qaoa_vqe.initial_point()
    )
    qaoa_exact_final = qaoa_vqe.noisy_batch_objective_factory(
        device, noise_model=qaoa_noise, shots=None, engine=qaoa_engine
    ).evaluate_batch([qaoa_result.optimal_parameters])[0]

    return {
        "workload": "H2_efficient_su2",
        "num_parameters": ansatz.num_parameters,
        "shots": shots,
        "maxiter": maxiter,
        "num_measurement_groups": num_groups,
        "evaluation_budget": evaluation_budget,
        "exact_initial": exact_initial,
        "exact_best": exact_best,
        "convergence_threshold": threshold,
        "spsa": {
            "circuits_to_convergence": spsa_circuits,
            "converged": spsa_converged,
            "num_evaluations": spsa_result.num_evaluations,
            # The hidden-third-evaluation regression pin, visible in the
            # trajectory as well as the test suite.
            "evaluations_match_contract": (
                spsa_result.num_evaluations == evaluation_budget
            ),
            "exact_final": spsa_exact[-1],
            "metadata": spsa_result.metadata,
            "seconds": spsa_seconds,
        },
        "cobyla": {
            "circuits_to_convergence": cobyla_circuits,
            "converged": cobyla_converged,
            "num_evaluations": cobyla_result.num_evaluations,
            "exact_final": cobyla_exact[-1],
            "seconds": cobyla_seconds,
        },
        # The acceptance criterion: batched SPSA reaches convergence with
        # fewer executed circuits than the fixed-shot scipy baseline.
        "spsa_fewer_circuits": spsa_circuits < cobyla_circuits,
        "qaoa_ring6": {
            "shots": shots,
            "maxiter": maxiter,
            "num_measurement_groups": len(qaoa_ham.group_commuting()),
            "num_evaluations": qaoa_result.num_evaluations,
            "exact_final": qaoa_exact_final,
            "ground_energy": qaoa_ham.ground_energy(),
        },
    }


def _adaptive_shots_leg():
    """Adaptive shot collector vs a uniform split at the same budget.

    The workload is the LiH-scale surrogate Hamiltonian (6 qubits, 7
    measurement groups with strongly unequal variances) on a hardware-
    efficient SU2 ansatz.  Both strategies spend exactly the same budget on
    the same seeded engine; ``round_shots=budget`` degenerates the collector
    into its uniform warm-up round, so the baseline runs the identical code
    path.  Recorded per strategy, averaged over independent seeds: absolute
    error against the exact noisy expectation and the estimated standard
    error.  Neyman allocation should cut both — the stderr ratio is the
    analytic win, the error ratio the empirical one.
    """
    from repro.circuits import efficient_su2
    from repro.engine import NoisyDensityMatrixEngine
    from repro.operators import lih_hamiltonian
    from repro.simulators import NoiseModel
    from repro.transpiler import transpile
    from repro.vqe import AdaptiveShotCollector, ExpectationEstimator, get_application

    smoke = vaqem_shared.smoke_mode()
    budget = 4096 if smoke else 16384
    repeats = 3 if smoke else 5

    hamiltonian = lih_hamiltonian()
    ansatz = efficient_su2(hamiltonian.num_qubits, reps=1, entanglement="circular")
    rng = np.random.default_rng(5)
    circuit = ansatz.bind_parameters(rng.uniform(-0.4, 0.4, ansatz.num_parameters))
    circuit.measure_all()
    device = get_application("UCCSD_H2").device()
    compiled = transpile(circuit, device)

    noise_model = NoiseModel.from_device(device)
    engine = NoisyDensityMatrixEngine(noise_model, seed=11)
    estimator = ExpectationEstimator(noise_model, engine=engine)
    exact = engine.expectation(compiled.scheduled, hamiltonian)

    def collect(round_shots, seed):
        collector = AdaptiveShotCollector(
            estimator,
            compiled.scheduled,
            hamiltonian,
            total_shots=budget,
            round_shots=round_shots,
            seed=seed,
        )
        return collector.collect()

    start = time.perf_counter()
    adaptive_runs = [collect(None, 100 + index) for index in range(repeats)]
    uniform_runs = [collect(budget, 100 + index) for index in range(repeats)]
    elapsed = time.perf_counter() - start

    adaptive_error = float(np.mean([abs(run.value - exact) for run in adaptive_runs]))
    uniform_error = float(np.mean([abs(run.value - exact) for run in uniform_runs]))
    adaptive_stderr = float(np.mean([run.stderr for run in adaptive_runs]))
    uniform_stderr = float(np.mean([run.stderr for run in uniform_runs]))
    sample = adaptive_runs[0]
    return {
        "workload": "LiH_surrogate",
        "num_qubits": hamiltonian.num_qubits,
        "num_terms": hamiltonian.num_terms,
        "num_measurement_groups": len(sample.groups),
        "budget": budget,
        "repeats": repeats,
        "exact_noisy_value": exact,
        "adaptive": {
            "mean_abs_error": adaptive_error,
            "mean_stderr": adaptive_stderr,
            "rounds": sample.rounds,
            "circuits_executed": sample.circuits_executed,
            "shots_per_group": sample.shots_per_group,
        },
        "uniform": {
            "mean_abs_error": uniform_error,
            "mean_stderr": uniform_stderr,
            "rounds": uniform_runs[0].rounds,
            "circuits_executed": uniform_runs[0].circuits_executed,
            "shots_per_group": uniform_runs[0].shots_per_group,
        },
        "stderr_ratio": adaptive_stderr / uniform_stderr if uniform_stderr else float("inf"),
        "error_ratio": adaptive_error / uniform_error if uniform_error else float("inf"),
        "adaptive_beats_uniform_stderr": adaptive_stderr < uniform_stderr,
        "seconds": elapsed,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(BENCH_DIR.parent / "BENCH_engine.json"),
        help="where to write the machine-readable trajectory (default: repo root)",
    )
    args = parser.parse_args()

    timings = {}
    failures = {}
    suite_start = time.perf_counter()
    for name, runner in _smoke_runners():
        start = time.perf_counter()
        try:
            runner()
            timings[name] = time.perf_counter() - start
            print(f"[run_all] {name:28s} {timings[name]:7.2f}s")
        except Exception as error:  # keep the trajectory even if one fig regresses
            failures[name] = f"{type(error).__name__}: {error}"
            print(f"[run_all] {name:28s} FAILED ({failures[name]})")

    # Guarded like the fig loop: a tuner-leg failure must not discard the
    # per-fig trajectory collected above.
    tuner = None
    try:
        tuner = _h2_tuner_comparison()
    except Exception as error:
        failures["h2_window_tuner"] = f"{type(error).__name__}: {error}"
        print(f"[run_all] h2 tuner comparison FAILED ({failures['h2_window_tuner']})")
    if tuner is not None:
        print(
            f"[run_all] h2 tuner: sequential {tuner['sequential_seconds']:.2f}s, "
            f"batched {tuner['batched_seconds']:.2f}s "
            f"({tuner['speedup']:.1f}x, exact match: {tuner['energies_exact_match']})"
        )

    # The concurrent-frontends leg (docs/scheduler.md): guarded like the
    # others so a scheduler regression still leaves the rest of the file.
    concurrent = None
    try:
        concurrent = _concurrent_frontends_leg()
    except Exception as error:
        failures["h2_concurrent_frontends"] = f"{type(error).__name__}: {error}"
        print(
            f"[run_all] concurrent frontends FAILED ({failures['h2_concurrent_frontends']})"
        )
    if concurrent is not None:
        print(
            f"[run_all] concurrent frontends ({concurrent['num_frontends']} estimators, "
            f"{concurrent['cpu_count']} cores): {concurrent['concurrent_seconds']:.2f}s "
            f"(exact match: {concurrent['values_exact_match']})"
        )

    # Randomized-schedule leg: benchmark inputs shared with the fuzz suites.
    randomized_reuse = None
    try:
        randomized_reuse = _randomized_reuse_leg()
    except Exception as error:
        failures["randomized_reuse"] = f"{type(error).__name__}: {error}"
        print(f"[run_all] randomized reuse FAILED ({failures['randomized_reuse']})")
    if randomized_reuse is not None:
        print(
            f"[run_all] randomized reuse ({randomized_reuse['num_schedules']} schedules): "
            f"{randomized_reuse['seconds']:.2f}s, reuse "
            f"{randomized_reuse['reuse_fraction']:.3f}, "
            f"{randomized_reuse['prefix_resumes']} prefix resumes"
        )

    # Segment-cache A/B leg (docs/segment_reuse.md): guarded like the others.
    segment_reuse = None
    try:
        segment_reuse = _segment_reuse_leg()
    except Exception as error:
        failures["segment_reuse"] = f"{type(error).__name__}: {error}"
        print(f"[run_all] segment reuse FAILED ({failures['segment_reuse']})")
    if segment_reuse is not None:
        print(
            f"[run_all] segment reuse: on {segment_reuse['segments_on_seconds']:.2f}s "
            f"(reuse {segment_reuse['reuse_fraction']:.3f}, "
            f"{segment_reuse['segment_hits']} hits / "
            f"{segment_reuse['segment_misses']} misses) vs off "
            f"{segment_reuse['segments_off_seconds']:.2f}s "
            f"(reuse {segment_reuse['reuse_fraction_segments_off']:.3f}), "
            f"{segment_reuse['speedup']:.2f}x, bit identical: "
            f"{segment_reuse['energies_bit_identical']}"
        )

    # Dense vs PTM kernel comparison (docs/ptm.md): guarded like the others.
    ptm_comparison = None
    try:
        ptm_comparison = _ptm_kernel_comparison()
    except Exception as error:
        failures["ptm_kernel_comparison"] = f"{type(error).__name__}: {error}"
        print(
            f"[run_all] ptm kernel comparison FAILED ({failures['ptm_kernel_comparison']})"
        )
    if ptm_comparison is not None:
        h2 = ptm_comparison["h2_window_tuner"]
        families = ptm_comparison["randomized_families"]
        print(
            f"[run_all] ptm kernel h2 tuner: dense {h2['dense_seconds']:.2f}s, "
            f"ptm {h2['ptm_seconds']:.2f}s ({h2['speedup']:.2f}x, "
            f"energy delta {h2['tuned_energy_delta']:.2e})"
        )
        print(
            f"[run_all] ptm kernel families ({families['num_schedules']} schedules): "
            f"{families['ptm_matmuls']} fused kernels vs "
            f"{families['dense_contractions']} dense contractions "
            f"({families['instructions_fused']} ops fused, max energy delta "
            f"{families['max_energy_delta']:.2e})"
        )

    # External-program ingestion leg (docs/ingestion.md): guarded like the
    # others so a frontend regression still leaves the rest of the file.
    ingestion = None
    try:
        ingestion = _ingestion_leg()
    except Exception as error:
        failures["ingestion"] = f"{type(error).__name__}: {error}"
        print(f"[run_all] ingestion FAILED ({failures['ingestion']})")
    if ingestion is not None:
        corruption = ingestion["corruption"]
        print(
            f"[run_all] ingestion ({len(ingestion['benchmarks'])} programs x "
            f"{ingestion['repeats']}): {ingestion['programs_per_second']:.0f} parses/s, "
            f"json round trip {ingestion['json_round_trip_seconds']:.2f}s, "
            f"{corruption['typed_rejections']}/{corruption['cases']} corruptions "
            f"rejected typed, dense {ingestion['kernels']['dense']['seconds']:.2f}s vs "
            f"ptm {ingestion['kernels']['ptm']['seconds']:.2f}s, counts agreement "
            f"{ingestion['counts_agreement_fraction']:.2f}"
        )

    # Batched-SPSA convergence leg (docs/algorithms.md): guarded as ever.
    spsa_convergence = None
    try:
        spsa_convergence = _spsa_convergence_leg()
    except Exception as error:
        failures["spsa_convergence"] = f"{type(error).__name__}: {error}"
        print(f"[run_all] spsa convergence FAILED ({failures['spsa_convergence']})")
    if spsa_convergence is not None:
        print(
            f"[run_all] spsa convergence (H2, {spsa_convergence['shots']} shots): "
            f"spsa {spsa_convergence['spsa']['circuits_to_convergence']} circuits "
            f"(converged: {spsa_convergence['spsa']['converged']}) vs cobyla "
            f"{spsa_convergence['cobyla']['circuits_to_convergence']} "
            f"(converged: {spsa_convergence['cobyla']['converged']}), "
            f"spsa fewer: {spsa_convergence['spsa_fewer_circuits']}, "
            f"eval contract: {spsa_convergence['spsa']['evaluations_match_contract']}"
        )

    # Adaptive shot-collector leg (docs/algorithms.md): guarded as ever.
    adaptive_shots = None
    try:
        adaptive_shots = _adaptive_shots_leg()
    except Exception as error:
        failures["adaptive_shots"] = f"{type(error).__name__}: {error}"
        print(f"[run_all] adaptive shots FAILED ({failures['adaptive_shots']})")
    if adaptive_shots is not None:
        print(
            f"[run_all] adaptive shots (LiH, {adaptive_shots['budget']} shots x "
            f"{adaptive_shots['repeats']}): adaptive stderr "
            f"{adaptive_shots['adaptive']['mean_stderr']:.2e} vs uniform "
            f"{adaptive_shots['uniform']['mean_stderr']:.2e} "
            f"(ratio {adaptive_shots['stderr_ratio']:.2f}, error ratio "
            f"{adaptive_shots['error_ratio']:.2f})"
        )

    # Service-tier load leg (docs/service.md): N synthetic tenants against
    # one served engine, open-loop arrivals, shared program pool so the
    # fleet store sees cross-tenant duplicates.
    service_load = None
    try:
        import load_gen

        service_load = load_gen.run_load(
            num_tenants=2,
            duration_seconds=2.0 if vaqem_shared.smoke_mode() else 10.0,
            rate_per_tenant=20.0,
            seed=2026,
            kernel=os.environ.get("REPRO_ENGINE_KERNEL") or None,
        )
        if service_load["unexpected_errors"]:
            raise RuntimeError(
                f"unexpected service errors: {service_load['unexpected_errors'][:3]}"
            )
    except Exception as error:
        failures["service_load"] = f"{type(error).__name__}: {error}"
        print(f"[run_all] service load FAILED ({failures['service_load']})")
    if service_load is not None:
        print(
            f"[run_all] service load ({service_load['tenants']} tenants x "
            f"{service_load['duration_seconds']:.0f}s): "
            f"{service_load['throughput_rps']:.1f} rps, "
            f"p50 {service_load['latency_ms']['p50']:.1f} ms, "
            f"p99 {service_load['latency_ms']['p99']:.1f} ms, "
            f"rejections {sum(service_load['rejections'].values())}, "
            f"dedupe hit-rate {service_load['dedupe_hit_rate']:.2f}"
        )

    payload = {
        "mode": "smoke" if vaqem_shared.smoke_mode() else "default",
        "python": platform.python_version(),
        "total_seconds": time.perf_counter() - suite_start,
        "benchmarks_seconds": timings,
        "failures": failures,
        "pipeline_engine_stats": vaqem_shared.collected_engine_stats(),
        "h2_window_tuner": tuner,
        "h2_concurrent_frontends": concurrent,
        "randomized_reuse": randomized_reuse,
        "segment_reuse": segment_reuse,
        "ptm_kernel_comparison": ptm_comparison,
        "ingestion": ingestion,
        "spsa_convergence": spsa_convergence,
        "adaptive_shots": adaptive_shots,
        "service_load": service_load and stable_service_counters(service_load),
    }
    payload["failed_gates"] = failed_gates(payload)
    for gate in payload["failed_gates"]:
        print(f"[run_all] correctness gate FAILED: {gate} is not true")
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[run_all] wrote {output}")
    if failures or payload["failed_gates"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
