"""Per-layer spans timed from outside the library.

The benchmark never edits ``src/``.  Instead :func:`install` replaces each
layer's public entry points with thin wrappers, at every module attribute and
class attribute where callers look them up, and :func:`uninstall` puts the
originals back.  A wrapper returns exactly what the wrapped call returned.

Spans live on a per-thread stack, so work that the engine's scheduler runs on
its own worker threads nests under that thread's spans.  A layer's *self*
time is its span's duration minus the time covered by child spans on the same
thread.  A call into a layer that is already the innermost span on the thread
(``uniform_dd`` calling ``insert_dd_sequences``, a method delegating to its
sibling) is not a new span: it is counted once, at the outer call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

#: Kernels whose evolution spans count operator applications.
KERNEL_LAYERS = {"evolve.dense": "dense", "evolve.ptm": "ptm"}


class Tracer:
    """Span and counter sink shared by every installed wrapper."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: layer -> [calls, total_ns, self_ns]
        self.layers: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: Dict[str, float] = defaultdict(float)
        #: thread name -> ns covered by that thread's outermost spans
        self.roots: Dict[str, int] = defaultdict(int)
        #: Every engine built while installed (held strongly: an engine a
        #: closure created may be collected before the report is read).
        self.engines: List[Any] = []

    # -- spans ---------------------------------------------------------
    def stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> Optional[str]:
        stack = self.stack()
        return stack[-1][0] if stack else None

    def call(self, layer: str, func: Callable, args, kwargs):
        stack = self.stack()
        if stack and stack[-1][0] == layer:
            return func(*args, **kwargs), False
        frame = [layer, _now(), 0]
        stack.append(frame)
        try:
            return func(*args, **kwargs), True
        finally:
            duration = _now() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += duration
            else:
                with self._lock:
                    self.roots[threading.current_thread().name] += duration
            self.record(layer, duration, duration - frame[2])

    def record(self, layer: str, total_ns: int, self_ns: int, calls: int = 1) -> None:
        with self._lock:
            entry = self.layers[layer]
            entry[0] += calls
            entry[1] += total_ns
            entry[2] += self_ns

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- engines -------------------------------------------------------
    def register_engine(self, engine) -> None:
        with self._lock:
            self.engines.append(engine)

    def engine_counters(self) -> Dict[str, int]:
        """Summed ``EngineStats`` counters of every engine built so far."""
        totals: Dict[str, int] = defaultdict(int)
        with self._lock:
            engines = list(self.engines)
        for engine in engines:
            for name, value in engine.stats.as_dict().items():
                if isinstance(value, int):
                    totals[name] += value
        return dict(totals)

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "layers": {name: list(entry) for name, entry in self.layers.items()},
                "counters": dict(self.counters),
                "roots": dict(self.roots),
            }


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------

def _span(tracer: Tracer, layer: str, func: Callable, after: Optional[Callable] = None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result, opened = tracer.call(layer, func, args, kwargs)
        if after is not None and (opened or getattr(after, "nested", False)):
            after(tracer, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = func
    return wrapper


def _async_span(tracer: Tracer, layer: str, func: Callable):
    """Wall time of a coroutine, kept off the thread's span stack: coroutines
    interleave on one event-loop thread, so their spans cannot nest."""

    @functools.wraps(func)
    async def wrapper(*args, **kwargs):
        started = _now()
        try:
            return await func(*args, **kwargs)
        finally:
            tracer.record(layer, _now() - started, 0)

    wrapper.__perfbench_original__ = func
    return wrapper


def _operator_counter(tracer: Tracer, func: Callable, contractions: int):
    """Counts contractions done by a state's apply method inside an evolve span."""

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        result = func(self, *args, **kwargs)
        kernel = KERNEL_LAYERS.get(tracer.innermost())
        if kernel is not None:
            tracer.count(f"evolve.{kernel}.operator_applications", contractions)
            tracer.count(f"evolve.{kernel}.bytes_computed", contractions * self.data.nbytes)
        return result

    wrapper.__perfbench_original__ = func
    return wrapper


def _engine_registrar(tracer: Tracer, func: Callable):
    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        result = func(self, *args, **kwargs)
        tracer.register_engine(self)
        return result

    wrapper.__perfbench_original__ = func
    return wrapper


# -- ``after`` hooks: counters read off a layer's own return value ----------

def _count_candidates(tracer, args, kwargs, result):
    tracer.count("mitigation.candidates")


def _count_shots(tracer, args, kwargs, result):
    exact = kwargs.get("exact", args[3] if len(args) > 3 else False)
    if not exact:
        tracer.count("measure.shots", int(kwargs.get("shots", args[1] if len(args) > 1 else 0)))


#: Shots are sampled inside ``measure_pauli_sum``'s span too.
_count_shots.nested = True


def _count_evaluations(tracer, args, kwargs, result):
    tracer.count("optimizer.evaluations", int(result.num_evaluations))


def _count_tuning(tracer, args, kwargs, result):
    tracer.count("tuner.windows", len(result.window_records))
    tracer.count("tuner.evaluations", int(result.num_evaluations))


def _count_shards(tracer, args, kwargs, result):
    tracer.count("parallel.shards", len(result))


def _count_docs(tracer, args, kwargs, result):
    tracer.count("frontend.docs")


def _track_batch(tracer, args, kwargs, result):
    """Submit-to-done turnaround of one submitted batch."""
    futures = list(result)
    tracer.count("scheduler.batches")
    if not futures:
        return
    submitted = _now()
    remaining = [len(futures)]
    lock = threading.Lock()

    def done(_future):
        with lock:
            remaining[0] -= 1
            last = remaining[0] == 0
        if last:
            tracer.count("scheduler.turnaround_ns", _now() - submitted)

    for future in futures:
        future.add_done_callback(done)


# ----------------------------------------------------------------------
# The layer table
# ----------------------------------------------------------------------

def _targets():
    """``(owner, attribute, kind, layer, after)`` for every wrapped entry point.

    ``owner`` is the module or class that defines the attribute; function
    wrappers are additionally installed wherever another ``repro`` module
    bound the same function object, under whatever name.
    """
    from repro.engine import base, canonical, density_engine, fingerprint, futures, parallel, segments
    from repro.engine.statevector_engine import StatevectorEngine
    from repro.mitigation import dd, gate_scheduling, mem
    from repro.optimizers.scipy_optimizers import COBYLA
    from repro.optimizers.spsa import SPSA
    from repro.runtime.session import RuntimeSession
    from repro.simulators import density_matrix, noise_model, noisy_simulator, ptm, readout
    from repro.transpiler import pipeline
    from repro.vaqem.window_tuner import IndependentWindowTuner
    from repro.frontend import ingest
    from repro.service import server

    NoisySimulator = noisy_simulator.NoisySimulator
    NoiseModel = noise_model.NoiseModel
    Engine = density_engine.NoisyDensityMatrixEngine
    return [
        (pipeline, "transpile", "span", "transpiler", None),
        (dd, "insert_dd_sequences", "span", "mitigation", _count_candidates),
        (dd, "uniform_dd", "span", "mitigation", _count_candidates),
        (gate_scheduling, "reschedule_gate", "span", "mitigation", _count_candidates),
        (mem.MeasurementMitigator, "mitigate_probabilities", "span", "mitigation", None),
        (NoisySimulator, "prepare", "span", "prepare", None),
        (ptm.PTMEvolver, "prepare", "span", "prepare", None),
        (canonical, "canonical_order", "span", "canonical", None),
        (fingerprint, "schedule_hash_chain", "span", "keying", None),
        (segments, "schedule_segment_keys", "span", "keying", None),
        (NoiseModel, "gate_channels", "span", "channels", None),
        (NoiseModel, "idle_channels", "span", "channels", None),
        (NoiseModel, "measurement_prelude_channels", "span", "channels", None),
        (ptm, "channel_ptm", "span", "channels.ptm", None),
        (NoisySimulator, "advance", "span", "evolve.dense", None),
        (ptm.PTMEvolver, "advance", "span", "evolve.ptm", None),
        (density_matrix.DensityMatrix, "apply_unitary", "ops", 2, None),
        (density_matrix.DensityMatrix, "apply_superop", "ops", 1, None),
        (ptm.PauliVectorState, "apply_ptm", "ops", 1, None),
        (density_engine, "measure_pauli_sum", "span", "measure", None),
        (noisy_simulator, "state_measured_probabilities", "span", "measure", None),
        (readout, "probabilities_to_counts", "span", "measure", _count_shots),
        (StatevectorEngine, "expectation", "span", "statevector", None),
        (SPSA, "minimize", "span", "optimizer", _count_evaluations),
        (COBYLA, "minimize", "span", "optimizer", _count_evaluations),
        (IndependentWindowTuner, "tune", "span", "tuner", _count_tuning),
        (RuntimeSession, "run_program", "span", "runtime", None),
        (base.ExecutionEngine, "submit_batch", "span", "scheduler", _track_batch),
        (base.ExecutionEngine, "submit_expectation_batch", "span", "scheduler", _track_batch),
        (Engine, "submit_expectation_batch", "span", "scheduler", _track_batch),
        (Engine, "submit_expectation_batch_full", "span", "scheduler", _track_batch),
        (futures.EngineFuture, "result", "span", "scheduler.wait", None),
        (parallel, "plan_shards", "span", "parallel.plan", _count_shards),
        (parallel, "process_map", "span", "parallel.map", None),
        (ingest, "ingest_json", "span", "frontend", _count_docs),
        (server.EngineService, "handle", "async", "service.exec", None),
        (Engine, "__init__", "engine", None, None),
    ]


def _aliases(original: Callable) -> List[Tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                found.append((module, attribute))
    return found


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns a function that undoes it."""
    import repro  # noqa: F401 - loads every module the aliases scan walks
    import repro.service  # noqa: F401

    restore: List[Tuple[Any, str, Any]] = []
    for owner, attribute, kind, layer, after in _targets():
        # An inherited method is wrapped on the named class only.
        original = getattr(owner, attribute)
        if kind == "span":
            wrapper = _span(tracer, layer, original, after)
        elif kind == "async":
            wrapper = _async_span(tracer, layer, original)
        elif kind == "ops":
            wrapper = _operator_counter(tracer, original, layer)
        else:
            wrapper = _engine_registrar(tracer, original)
        sites = [(owner, attribute)]
        if not isinstance(owner, type):
            sites = _aliases(original)
        for site_owner, site_attribute in sites:
            restore.append((site_owner, site_attribute, vars(site_owner).get(site_attribute)))
            setattr(site_owner, site_attribute, wrapper)

    def uninstall() -> None:
        for site_owner, site_attribute, value in reversed(restore):
            if value is None:
                delattr(site_owner, site_attribute)
            else:
                setattr(site_owner, site_attribute, value)

    return uninstall
