"""The repository benchmark: one command, four VAQEM workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload vaqem_fig12 --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced units of the workload and prints every
end-to-end metric; ``--trace 1`` alternates untraced and traced units and
prints every per-layer metric.  Either way every unit's outputs are checked,
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

Workloads, metrics and predictions are described in ``REFERENCE.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: Median time of :func:`reference_seconds` on a quiet 2-vCPU development VM.
#: Timings are reported at this reference speed (see :func:`host_factor`).
REFERENCE_NOMINAL_S = 0.12

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "max_ok_rps": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_KERNEL_FIELDS = ("calls", "self_s", "operator_applications", "bytes_computed", "ns_per_op")
PER_LAYER = {
    "transpiler.calls": "count", "transpiler.self_s": "s",
    "mitigation.candidates": "count", "mitigation.self_s": "s",
    "prepare.calls": "count", "prepare.self_s": "s", "canonical.self_s": "s",
    "keying.calls": "count", "keying.self_s": "s",
    "reuse.reuse_fraction": "ratio", "reuse.result_hit_rate": "ratio",
    "reuse.segment_hit_rate": "ratio", "reuse.prefix_resumes": "count",
    "reuse.instructions_simulated": "count",
    "channels.calls": "count", "channels.self_s": "s", "channels.ptm_s": "s",
    **{
        f"evolve.{kernel}.{field}": unit
        for kernel in ("dense", "ptm")
        for field, unit in zip(_KERNEL_FIELDS, ("count", "s", "count", "bytes", "ns"))
    },
    "measure.calls": "count", "measure.self_s": "s", "measure.shots": "count",
    "statevector.calls": "count", "statevector.self_s": "s",
    "optimizer.evaluations": "count", "optimizer.self_s": "s",
    "tuner.windows": "count", "tuner.evaluations": "count", "tuner.self_s": "s",
    "runtime.self_s": "s",
    "scheduler.batches": "count", "scheduler.wait_s": "s", "scheduler.turnaround_s": "s",
    "parallel.shards": "count", "parallel.plan_s": "s", "parallel.map_s": "s",
    "frontend.docs": "count", "frontend.self_s": "s",
    "service.store_hit_rate": "ratio", "service.rejections": "count", "service.exec_s": "s",
    "service.p50_ms": "ms", "service.p90_ms": "ms", "service.p99_ms": "ms",
    "trace.overhead_frac": "ratio", "other.self_s": "s", "loadgen.lag_p99_ms": "ms",
    "science.geomean_gs_xy": "ratio", "science.final_energy": "Ha",
}

#: Counters that must repeat exactly between two traced units of one input.
DETERMINISTIC = tuple(
    name for name in PER_LAYER
    if name.startswith(("reuse.", "science."))
    or name.endswith((".operator_applications", ".bytes_computed", ".windows", ".evaluations"))
)


def pin_environment() -> Dict[str, Any]:
    """Fix what changes timings or results between hosts; returns the record.

    Must run before numpy is imported: BLAS reads its thread count once.
    """
    os.environ.pop("REPRO_ENGINE_KERNEL", None)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return {"nproc": os.cpu_count(), "openblas_threads": 1, "python": platform.python_version()}


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------

def layer_metrics(snapshot: Dict[str, Any], engine: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from one tracer snapshot and summed engine counters."""
    layers, counters = snapshot["layers"], snapshot["counters"]

    def calls(layer):
        return layers.get(layer, [0, 0, 0])[0]

    def total_s(layer):
        return layers.get(layer, [0, 0, 0])[1] / 1e9

    def self_s(layer):
        return layers.get(layer, [0, 0, 0])[2] / 1e9

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    values = {
        "transpiler.calls": calls("transpiler"), "transpiler.self_s": self_s("transpiler"),
        "mitigation.candidates": counters.get("mitigation.candidates", 0),
        "mitigation.self_s": self_s("mitigation"),
        "prepare.calls": calls("prepare"), "prepare.self_s": self_s("prepare"),
        "canonical.self_s": self_s("canonical"),
        "keying.calls": calls("keying"), "keying.self_s": self_s("keying"),
        "reuse.reuse_fraction": ratio(
            engine.get("instructions_reused", 0), engine.get("instructions_simulated", 0)
        ),
        "reuse.result_hit_rate": ratio(engine.get("cache_hits", 0), engine.get("cache_misses", 0)),
        "reuse.segment_hit_rate": ratio(
            engine.get("segment_hits", 0), engine.get("segment_misses", 0)
        ),
        "reuse.prefix_resumes": engine.get("prefix_resumes", 0),
        "reuse.instructions_simulated": engine.get("instructions_simulated", 0),
        "channels.calls": calls("channels"), "channels.self_s": self_s("channels"),
        "channels.ptm_s": self_s("channels.ptm"),
        "measure.calls": calls("measure"), "measure.self_s": self_s("measure"),
        "measure.shots": counters.get("measure.shots", 0),
        "statevector.calls": calls("statevector"), "statevector.self_s": self_s("statevector"),
        "optimizer.evaluations": counters.get("optimizer.evaluations", 0),
        "optimizer.self_s": self_s("optimizer"),
        "tuner.windows": counters.get("tuner.windows", 0),
        "tuner.evaluations": counters.get("tuner.evaluations", 0),
        "tuner.self_s": self_s("tuner"),
        "runtime.self_s": self_s("runtime"),
        "scheduler.batches": counters.get("scheduler.batches", 0),
        "scheduler.wait_s": total_s("scheduler.wait"),
        "scheduler.turnaround_s": counters.get("scheduler.turnaround_ns", 0) / 1e9,
        "parallel.shards": counters.get("parallel.shards", 0),
        "parallel.plan_s": total_s("parallel.plan"), "parallel.map_s": total_s("parallel.map"),
        "frontend.docs": counters.get("frontend.docs", 0), "frontend.self_s": self_s("frontend"),
        "service.exec_s": total_s("service.exec"),
        "other.self_s": self_s("unit"),
        # Set by the runner of the workload they describe, zero elsewhere.
        "service.store_hit_rate": 0.0, "service.rejections": 0,
        "service.p50_ms": 0.0, "service.p90_ms": 0.0, "service.p99_ms": 0.0,
        "loadgen.lag_p99_ms": 0.0, "trace.overhead_frac": 0.0,
        "science.geomean_gs_xy": 0.0, "science.final_energy": 0.0,
    }
    for kernel in ("dense", "ptm"):
        layer = f"evolve.{kernel}"
        applications = counters.get(f"{layer}.operator_applications", 0)
        values[f"{layer}.calls"] = calls(layer)
        values[f"{layer}.self_s"] = self_s(layer)
        values[f"{layer}.operator_applications"] = applications
        values[f"{layer}.bytes_computed"] = counters.get(f"{layer}.bytes_computed", 0)
        values[f"{layer}.ns_per_op"] = (
            layers.get(layer, [0, 0, 0])[2] / applications if applications else 0.0
        )
    return values


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reference_seconds() -> float:
    """Time a fixed kernel shaped like the library's hot path: small complex
    tensor contractions, content hashing and dict traffic.  It uses no
    ``repro`` code, so no change to the library can move it."""
    import numpy as np

    rng = np.random.default_rng(0)
    state = rng.standard_normal((2,) * 8) + 1j * rng.standard_normal((2,) * 8)
    operator = np.linalg.qr(rng.standard_normal((4, 4)))[0].reshape(2, 2, 2, 2)
    # Without the collector: its cost grows with the caller's heap, which
    # differs between workloads and over a run.
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for step in range(5000):
            axes = [step % 4, (step + 1) % 4]
            state = np.moveaxis(np.tensordot(operator, state, axes=([2, 3], axes)), [0, 1], axes)
            digest = hashlib.sha256(repr((step, axes)).encode()).hexdigest()
            total += len({digest: step, str(step): axes})
        return time.perf_counter() - started
    finally:
        gc.enable()


def host_factor(before: float, after: float) -> float:
    """Scale from this host's current speed to the reference speed.

    The host's CPU speed drifts by tens of percent over minutes under
    co-tenant load.  The reference kernel runs right before and right after
    each timed interval, and the interval is reported as it would read at the
    reference kernel's nominal speed.
    """
    return REFERENCE_NOMINAL_S / ((before + after) / 2)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the library."""
    environment = dict(os.environ, PYTHONPATH=str(SRC))
    return timed_setup(
        lambda: subprocess.run([sys.executable, "-c", "import repro"], env=environment, check=True)
    )


def timed_setup(build: Callable[[], Any]) -> float:
    """Median of ``SETUP_REPEATS`` timed calls of ``build``."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        build()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def traced(unit: Callable[[], Any]):
    """Run ``unit`` with every layer wrapped; returns (outputs, seconds, report)."""
    from tracer import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        started = time.perf_counter()
        outputs, _ = tracer.call("unit", unit, (), {})
        seconds = time.perf_counter() - started
    finally:
        uninstall()
    return outputs, seconds, layer_metrics(tracer.snapshot(), tracer.engine_counters())


class Outcome:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def judge(self, problems: List[str], operations: int = 1, failed: int = None) -> None:
        self.attempted += operations
        if failed is None:
            failed = 1 if problems else 0
        self.failed += failed
        self.problems.extend(problems)


def run_batch(name: str, seed: int, seconds: float, trace: bool):
    from workloads import BATCH_WORKLOADS

    workload = BATCH_WORKLOADS[name]()
    if workload.parallelism is None:
        # One core, the one the reference kernel measures: the engine's
        # scheduler thread would otherwise also feel the other core's load.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = timed_setup(lambda: workload.setup(seed))
    outcome = Outcome()
    untraced_times: List[float] = []
    traced_times: List[float] = []
    reports: List[Dict[str, float]] = []
    #: Host speed factor of each untraced unit.
    factors: List[float] = []
    reference_outputs = None

    def measure(use_trace: bool) -> bool:
        nonlocal reference_outputs
        try:
            if use_trace:
                outputs, elapsed, report = traced(workload.unit)
                reports.append(report)
                traced_times.append(elapsed)
            else:
                before = reference_seconds()
                started = time.perf_counter()
                outputs = workload.unit()
                untraced_times.append(time.perf_counter() - started)
                factors.append(host_factor(before, reference_seconds()))
        except Exception:  # noqa: BLE001 - a failed unit is counted, then the run stops
            traceback.print_exc()
            outcome.judge(["unit raised"])
            return False
        problems = workload.check(outputs)
        if reference_outputs is None:
            reference_outputs = outputs
        elif outputs != reference_outputs:
            problems.append("a unit's outputs differ from the first unit's")
        outcome.judge(problems)
        if use_trace:
            reports[-1].update(workload.science(outputs))
        return True

    # Whole units until ``seconds`` of them have been timed: a run overshoots
    # by less than one unit, and every run of a workload times the same work.
    # A traced run alternates untraced and traced units, at least one of each.
    use_trace = False
    while sum(untraced_times) + sum(traced_times) < seconds or (trace and not traced_times):
        if not measure(use_trace):
            break
        use_trace = trace and not use_trace

    if trace:
        metrics = _merge_reports(reports, outcome)
        if untraced_times and traced_times:
            metrics["trace.overhead_frac"] = (
                statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
            )
        return outcome, metrics
    print("unit wall seconds: " + " ".join(f"{t:.3f}" for t in untraced_times), file=sys.stderr)
    print("host factors: " + " ".join(f"{f:.3f}" for f in factors), file=sys.stderr)
    if not untraced_times:
        return outcome, {}
    median = statistics.median(t * f for t, f in zip(untraced_times, factors))
    # A batch workload is one closed-loop client: it sustains one unit per
    # median unit time.
    metrics = {
        "setup_s": setup_s * statistics.median(factors),
        "run_s": median,
        "max_ok_rps": 1.0 / median,
    }
    return outcome, metrics


def _merge_reports(reports: List[Dict[str, float]], outcome: Outcome) -> Dict[str, float]:
    """Mean times over traced units; counters must agree exactly."""
    if not reports:
        return {}
    merged = dict(reports[0])
    for report in reports[1:]:
        for name in DETERMINISTIC:
            if report.get(name) != merged.get(name):
                outcome.problems.append(
                    f"counter {name} differs between traced units: "
                    f"{merged.get(name)!r} vs {report.get(name)!r}"
                )
                outcome.failed += 1
    for name in merged:
        if name.endswith(("_s", "ns_per_op")):
            merged[name] = statistics.fmean(report[name] for report in reports)
    return merged


def run_service(seed: int, seconds: float, trace: bool):
    import service_load

    plan_seconds = seconds / 2 if trace else seconds
    holder = {}
    build_s = timed_setup(lambda: holder.update(plan=service_load.build_plan(seed, plan_seconds)))
    plan = holder["plan"]
    outcome = Outcome()
    if trace:
        cycles = [
            service_load.run_cycle(plan, service_load.ServerProcess(trace=use_trace).start())
            for use_trace in (False, True)
        ]
    else:
        # Set-up includes the server's start: three starts, the last one serves.
        servers = [service_load.ServerProcess(trace=False) for _ in range(SETUP_REPEATS)]
        for server in servers[:-1]:
            with server.start():
                pass
        cycles = [service_load.run_cycle(plan, servers[-1].start())]
    for cycle in cycles:
        problems = service_load.check(plan, cycle, seed)
        outcome.judge(problems, operations=cycle["attempted"],
                      failed=cycle["failed"] + len(problems))
    untraced = service_load.summarize(plan, cycles[0])
    if not trace:
        metrics = {name: untraced[name] for name in ("run_s", "max_ok_rps")}
        metrics["setup_s"] = build_s + statistics.median(server.start_s for server in servers)
        print(f"service_load: {untraced['samples']} requests", file=sys.stderr)
        return outcome, metrics
    cycle = cycles[1]
    report = cycle["report"]
    metrics = layer_metrics(report, report["engine"])
    metrics.update(service_load.service_counters(cycle["metrics"]))
    traced_summary = service_load.summarize(plan, cycle)
    metrics["other.self_s"] = service_load.unattributed_s(report)
    metrics["loadgen.lag_p99_ms"] = traced_summary["lag_p99_ms"]
    # Latencies of the untraced cycle: on this host they spread too much
    # between runs (p90 up to 55%) to carry an end-to-end bound.
    for name in ("p50_ms", "p90_ms", "p99_ms"):
        metrics[f"service.{name}"] = untraced[name]
    metrics["trace.overhead_frac"] = traced_summary["p50_ms"] / untraced["p50_ms"] - 1.0
    return outcome, metrics


def main(argv=None) -> int:
    environment = pin_environment()
    parser = argparse.ArgumentParser(description="VAQEM repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("vaqem_fig12", "noisy_vqe", "service_load", "fig12_process"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2

    import numpy

    import repro
    from repro.engine import NoisyDensityMatrixEngine
    from repro.simulators import NoiseModel
    from repro.backends import fake_casablanca

    environment.update(
        numpy=numpy.__version__,
        repro=repro.__version__,
        kernel=NoisyDensityMatrixEngine(NoiseModel.from_device(fake_casablanca())).kernel,
    )
    print("environment: " + json.dumps(environment, sort_keys=True))
    reference_seconds()  # the first call pays one-off import and allocation costs

    if args.workload == "service_load":
        outcome, metrics = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        outcome, metrics = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)

    table = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        # Read before the import probes below, which are child processes too.
        metrics["peak_rss_mb"] = peak_rss_mb()
        before = reference_seconds()
        import_s = import_seconds()
        import_s *= host_factor(before, reference_seconds())
        metrics["setup_s"] = metrics.get("setup_s", 0.0) + import_s
        attempted = max(outcome.attempted, 1)
        metrics["ok_frac"] = (attempted - outcome.failed) / attempted
    missing = [name for name in table if name not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems and not missing,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in table.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
