"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench/check_perfbench.py -q

They pin the three promises the per-layer trace rests on: a wrapper never
changes a return value, traced outputs equal untraced outputs bit for bit,
and two traced runs of one input report identical work counters.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import DETERMINISTIC, pin_environment, traced  # noqa: E402

pin_environment()

import tracer as tracing  # noqa: E402


def small_fig12_unit():
    """A two-strategy VAQEM run small enough for a test (about a second)."""
    from repro import TuningBudget, VAQEMConfig, VAQEMPipeline, get_application

    config = VAQEMConfig(
        angle_tuning_iterations=30,
        budget=TuningBudget(dd_resolution=2, gs_resolution=2, max_windows=3),
        seed=11,
    )
    pipeline = VAQEMPipeline(get_application("UCCSD_H2"), config)
    try:
        result = pipeline.run(strategies=("mem", "dd_xy4", "vaqem_gs_xy"))
    finally:
        pipeline.engine.close()
    return dict(result.energies)


def test_span_wrapper_returns_the_wrapped_object():
    tracer = tracing.Tracer()
    sentinel = object()

    def inner():
        return sentinel

    wrapped_inner = tracing._span(tracer, "layer", inner)

    def outer():
        return wrapped_inner()  # same layer: collapses into the outer span

    wrapped_outer = tracing._span(tracer, "layer", outer)
    assert wrapped_outer() is sentinel
    assert tracer.layers["layer"][0] == 1


def test_span_wrapper_propagates_exceptions_and_unwinds():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracing._span(tracer, "layer", boom)()
    assert tracer.stack() == []
    assert tracer.layers["layer"][0] == 1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    child = tracing._span(tracer, "child", lambda: sum(range(20000)))
    parent = tracing._span(tracer, "parent", lambda: [child() for _ in range(5)])
    parent()
    calls, total, self_ns = tracer.layers["parent"]
    assert calls == 1 and 0 <= self_ns < total
    assert total - self_ns == tracer.layers["child"][1]


def test_install_wraps_library_entry_points_and_uninstall_restores_them():
    import repro.transpiler.pipeline as pipeline
    import repro.vaqem.framework as framework
    from repro.simulators.noisy_simulator import NoisySimulator
    from repro.optimizers.scipy_optimizers import COBYLA

    before = (pipeline.transpile, framework.transpile, NoisySimulator.advance)
    assert "minimize" not in vars(COBYLA)
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert framework.transpile.__perfbench_original__ is before[0]
        assert NoisySimulator.advance.__perfbench_original__ is before[2]
    finally:
        uninstall()
    assert (pipeline.transpile, framework.transpile, NoisySimulator.advance) == before
    assert "minimize" not in vars(COBYLA)


def test_traced_outputs_equal_untraced_outputs_bit_for_bit():
    untraced = small_fig12_unit()
    outputs, _, report = traced(small_fig12_unit)
    assert outputs == untraced
    assert report["evolve.dense.operator_applications"] > 0
    assert report["tuner.evaluations"] > 0


def test_two_traced_runs_report_identical_counters():
    first = traced(small_fig12_unit)[2]
    second = traced(small_fig12_unit)[2]
    assert {name: first[name] for name in DETERMINISTIC if name in first} == {
        name: second[name] for name in DETERMINISTIC if name in second
    }


def test_benchmark_json_names_every_metric_the_command_prints():
    import json

    from run import END_TO_END, PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_service_steps_give_p99_ten_samples_beyond_it():
    import json

    import service_load

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    phases = service_load._phases(spec["run_seconds"])
    assert sum(count for _, _, rate, count in phases if rate) * 0.01 >= 10
