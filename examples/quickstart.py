"""Quickstart: the execution engine, async submission, then VAQEM end-to-end.

Everything in this reproduction that executes circuits goes through one
backend API — the :class:`~repro.engine.base.ExecutionEngine`:

* ``StatevectorEngine``        — ideal, noise-free runs of logical circuits,
* ``NoisyDensityMatrixEngine`` — schedule-aware noisy runs with a content
  cache and a prefix-reuse fast path,
* ``FakeDeviceEngine``         — "submit to the machine": transpile (cached)
  and execute noisily on a fake IBM device.

Part 1 below drives the engines directly; part 2 submits work
*asynchronously* (futures overlap execution with whatever the caller does
next); part 3 runs the paper's feasible flow (Fig. 11, right), whose
pipeline routes every machine execution through a shared
``NoisyDensityMatrixEngine`` — which is what makes the per-window mitigation
sweeps fast.  The pipeline's window tuner always overlaps each window
sweep's candidate generation with execution: its one objective,
``VAQEMPipeline.make_objective()``, returns futures.  With
``VAQEMConfig(parallelism="process")`` the pipeline evaluates each strategy
in a worker process instead, on a fresh engine, with bit-identical outcomes.

The full design is documented in ``docs/architecture.md`` (layers, caching,
prefix reuse, the process tier), ``docs/async.md`` (the futures-returning
submission layer), ``docs/scheduler.md`` (the batch scheduler that serves
independent frontends on a shared engine) and ``docs/api.md`` (the public
engine API).

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    FakeDeviceEngine,
    StatevectorEngine,
    TuningBudget,
    VAQEMConfig,
    VAQEMPipeline,
    get_application,
)


def engine_tour() -> None:
    application = get_application("HW_TFIM_4q_c_6r")
    circuit = application.ansatz.bind_parameters(
        [0.1] * application.num_parameters
    )

    # Ideal execution: exact expectation values from the statevector.
    ideal = StatevectorEngine(seed=7)
    print(f"ideal <H>        : {ideal.expectation(circuit, application.hamiltonian):.4f}")

    # Fake-device execution: transpile + schedule-aware noisy simulation.
    # run() returns sampled counts; expectation() measures the Hamiltonian
    # the way hardware would (per measurement group, with readout error).
    measured = circuit.copy()
    measured.measure_all()
    machine = FakeDeviceEngine(application.device(), seed=7, shots=4096)
    noisy_value = machine.expectation(measured, application.hamiltonian)
    print(f"machine <H>      : {noisy_value:.4f}")

    # Batching: identical circuits are executed once (content-hash cache),
    # near-identical ones share their simulated prefix; results are
    # order-stable and bit-identical to sequential run() calls.
    before = machine.noisy_engine.stats.as_dict()
    results = machine.run_batch([measured] * 8)
    after = machine.noisy_engine.stats.as_dict()
    print(f"batch of 8       : {after['cache_hits'] - before['cache_hits']:.0f} cache hits, "
          f"{after['cache_misses'] - before['cache_misses']:.0f} simulations")


def async_tour() -> None:
    """Submit an H2 sweep asynchronously, do other work, then gather."""
    import numpy as np

    from repro import NoiseModel, gather
    from repro.transpiler import transpile
    from repro.vqe import ExpectationEstimator

    application = get_application("UCCSD_H2")
    device = application.device()
    noise_model = NoiseModel.from_device(device)
    estimator = ExpectationEstimator(noise_model, seed=7)

    # Build a small sweep of bound ansatz circuits around one operating point.
    rng = np.random.default_rng(7)
    points = [rng.uniform(-0.3, 0.3, application.num_parameters) for _ in range(4)]
    schedules = []
    for point in points:
        circuit = application.ansatz.bind_parameters(point)
        circuit.measure_all()
        schedules.append(transpile(circuit, device).scheduled)

    # Submit: the futures return immediately and the engine's batch
    # scheduler executes behind this thread (docs/async.md).
    futures = estimator.submit_batch(schedules, application.hamiltonian)

    # ... overlap: any work here runs while the sweep executes ...
    reference = sum(point.sum() for point in points)

    results = gather(futures)  # ordered like the submission
    energies = [result.value for result in results]
    print("\nAsync H2 sweep (submit -> overlap -> gather)")
    print(f"  energies        : {', '.join(f'{e:.4f}' for e in energies)}")
    print(f"  overlapped work : parameter checksum {reference:+.3f}")

    # Bit-identical to the blocking batch, per the engine seeding contract.
    blocking = [r.value for r in estimator.estimate_batch(schedules, application.hamiltonian)]
    print(f"  async == blocking: {energies == blocking}")

    # Multi-tenant: a second estimator can share the same engine.  Each
    # submits under its own identity, so the scheduler serves both fairly
    # (docs/scheduler.md) — values stay bit-identical regardless.
    second = ExpectationEstimator(noise_model, seed=7, engine=estimator.engine)
    first_futures = estimator.submit_batch(schedules[:2], application.hamiltonian)
    second_futures = second.submit_batch(schedules[2:], application.hamiltonian)
    shared = [r.value for r in gather(first_futures + second_futures)]
    print(f"  two frontends, one engine: {shared == blocking}")
    estimator.engine.close()


def vaqem_flow() -> None:
    application = get_application("HW_TFIM_4q_c_6r")
    print(f"\nApplication : {application.name}")
    print(f"Description : {application.description}")
    print(f"Device      : {application.device().name}")
    print(f"Exact E0    : {application.exact_ground_energy():.4f} (classical reference)")

    config = VAQEMConfig(
        angle_tuning_iterations=200,
        budget=TuningBudget(dd_resolution=4, gs_resolution=4, max_windows=8),
        seed=7,
    )
    pipeline = VAQEMPipeline(application, config)

    angle_result = pipeline.tune_angles()
    print("\nStage 1 — angle tuning (ideal simulation, SPSA + polish)")
    print(f"  tuned ideal objective : {angle_result.optimal_value:.4f}")

    compiled = pipeline.compile()
    print(f"\nStage 2 — compilation for {pipeline.device.name}")
    print(f"  CX depth             : {compiled.cx_depth}")
    print(f"  idle windows found   : {compiled.num_idle_windows}")

    print("\nStage 3 — evaluating mitigation strategies on the noisy device model")
    print("  (window sweeps run batched through the pipeline's shared engine)")
    result = pipeline.run(strategies=("no_em", "mem", "dd_xy4", "vaqem_gs_xy"))
    for strategy in ("no_em", "mem", "dd_xy4", "vaqem_gs_xy"):
        energy = result.energies[strategy]
        fraction = energy / result.optimal_energy
        print(f"  {strategy:12s} energy = {energy: .4f}   ({100 * fraction:.1f}% of optimal)")

    improvement = result.improvement("vaqem_gs_xy", baseline="mem")
    print(f"\nVAQEM GS+XY4 improves the measured objective by {improvement:.2f}x over the MEM baseline.")
    stats = result.engine_stats
    print(
        "Engine totals: "
        f"{stats['executions']:.0f} submissions, "
        f"{100 * stats['hit_rate']:.0f}% cache hits, "
        f"{100 * stats['reuse_fraction']:.0f}% of instruction processing "
        "skipped via prefix reuse."
    )


def main() -> None:
    engine_tour()
    async_tour()
    vaqem_flow()


if __name__ == "__main__":
    main()
