"""Engine calls on a fresh engine inside a process-map worker.

A process VAQEM run evaluates each strategy on a fresh engine in a
:func:`repro.engine.parallel.process_map` worker and relies on the values
crossing the process boundary bit for bit.  The tests that check this run a
call here and compare it with the same call in the test process.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Tuple

from repro.engine import gather
from repro.engine.futures import EngineFuture
from repro.engine.parallel import process_map


def call(build: Callable[[], Any], method: str, *args, **kwargs) -> Tuple[Any, Dict[str, int]]:
    """``build().method(*args, **kwargs)`` in a worker process.

    ``build`` must pickle (a class, or a ``functools.partial`` of one).
    Returns the value, with a list of futures gathered in the worker, and the
    engine's counters.
    """
    return process_map(_call, [(build, method, args, kwargs)], 1)[0]


def run(function: Callable, *args) -> Any:
    """``function(*args)`` in a worker process (``function`` must be a
    module-level function)."""
    return process_map(_run, [(function, args)], 1)[0]


def _call(task):
    build, method, args, kwargs = task
    engine = build()
    value = getattr(engine, method)(*args, **kwargs)
    if isinstance(value, list) and value and isinstance(value[0], EngineFuture):
        value = gather(value)
    return value, dataclasses.asdict(engine.stats)


def _run(task):
    function, args = task
    return function(*args)
