"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
the corresponding rows/series.  The heavy evaluation experiments (Figs. 12,
13, 14) share a cached VAQEM run per application so that running the whole
``benchmarks/`` directory does not repeat work.

Two knobs control the fidelity/cost trade-off:

* ``REPRO_BENCH_APPS`` — comma-separated application names, or ``all``
  (default: a representative 3-application subset so the full benchmark suite
  completes in minutes; set to ``all`` to sweep every Table-I benchmark).
* ``REPRO_BENCH_FULL`` — set to ``1`` to use the full per-window sweep budget
  instead of the reduced default.
* ``REPRO_BENCH_SMOKE`` — set to ``1`` for the minimal configuration used by
  ``benchmarks/run_all.py``: one application, few angle-tuning iterations and
  a tiny per-window sweep, so the whole suite finishes in well under a
  minute while still exercising every code path.

All heavy executions route through each pipeline's shared
:class:`~repro.engine.density_engine.NoisyDensityMatrixEngine`; the engine's
cache/prefix-reuse counters are collected into every run result
(``VAQEMRunResult.engine_stats``) and aggregated by :func:`collected_engine_stats`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.vaqem import TuningBudget, VAQEMConfig, VAQEMPipeline, VAQEMRunResult
from repro.vqe import VQAApplication, build_applications, get_application

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Strategies evaluated for Figs. 12/13, in the paper's bar order.
FIGURE12_STRATEGIES = (
    "no_em",
    "mem",
    "dd_xx",
    "dd_xy4",
    "vaqem_gs",
    "vaqem_xx",
    "vaqem_xy",
    "vaqem_gs_xy",
)

_DEFAULT_APPS = ("HW_TFIM_4q_c_6r", "HW_TFIM_4q_f_6r", "UCCSD_H2")

_RUN_CACHE: Dict[str, VAQEMRunResult] = {}


def smoke_mode() -> bool:
    """Whether the reduced ``run_all.py`` smoke configuration is active."""
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def selected_application_names() -> List[str]:
    """Applications selected via ``REPRO_BENCH_APPS`` (default: fast subset)."""
    raw = os.environ.get("REPRO_BENCH_APPS", "").strip()
    if not raw:
        return [_DEFAULT_APPS[0]] if smoke_mode() else list(_DEFAULT_APPS)
    if raw.lower() == "all":
        return [app.name for app in build_applications()]
    return [name.strip() for name in raw.split(",") if name.strip()]


def benchmark_config(seed: int = 11) -> VAQEMConfig:
    """The VAQEM configuration used by the evaluation benchmarks."""
    if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
        budget = TuningBudget(dd_resolution=6, gs_resolution=5, max_windows=None)
        iterations = 250
    elif smoke_mode():
        budget = TuningBudget(dd_resolution=2, gs_resolution=2, max_windows=3)
        iterations = 30
    else:
        budget = TuningBudget(dd_resolution=4, gs_resolution=4, max_windows=10)
        iterations = 250
    return VAQEMConfig(angle_tuning_iterations=iterations, budget=budget, seed=seed)


def run_application(name: str, strategies: Sequence[str] = FIGURE12_STRATEGIES) -> VAQEMRunResult:
    """Run (or fetch from cache) the full VAQEM evaluation of one application."""
    key = (
        f"{name}:{','.join(strategies)}:{os.environ.get('REPRO_BENCH_FULL', '0')}"
        f":{os.environ.get('REPRO_BENCH_SMOKE', '0')}"
    )
    if key not in _RUN_CACHE:
        application = get_application(name)
        pipeline = VAQEMPipeline(application, benchmark_config())
        _RUN_CACHE[key] = pipeline.run(strategies=strategies)
    return _RUN_CACHE[key]


#: Derived ratios in ``EngineStats.as_dict`` — recomputed from the aggregated
#: counters below, never summed across runs.
_RATIO_FIELDS = ("hit_rate", "reuse_fraction")


def collected_engine_stats() -> Dict[str, float]:
    """Execution-engine counters aggregated across every cached pipeline run.

    Counter fields stay integers in the output, summed as
    :meth:`~repro.engine.base.EngineStats.add_counters` sums them; the
    derived ``hit_rate`` / ``reuse_fraction`` ratios are recomputed from the
    totals.
    """
    totals: Dict[str, float] = {}
    for result in _RUN_CACHE.values():
        for field, value in result.engine_stats.items():
            if field in _RATIO_FIELDS:
                continue
            totals[field] = totals.get(field, 0) + int(value)
    executions = totals.get("executions", 0)
    simulated = totals.get("instructions_simulated", 0)
    reused = totals.get("instructions_reused", 0)
    if executions:
        totals["hit_rate"] = totals.get("cache_hits", 0) / executions
    if simulated + reused:
        totals["reuse_fraction"] = reused / (simulated + reused)
    return totals


def save_results(filename: str, payload) -> Path:
    """Persist benchmark output under ``benchmarks/results`` for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / filename
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Print an aligned text table (the benchmark's stdout deliverable)."""
    rows = [list(map(str, header))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    print(f"\n=== {title} ===")
    for index, row in enumerate(rows):
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            print("  ".join("-" * widths[i] for i in range(len(header))))
