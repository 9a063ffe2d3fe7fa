"""The engine server the ``service_load`` workload drives, in its own process.

Started by ``service_load.py``.  It prints one JSON line ``{"port": N}`` once
the server listens, serves until a line arrives on its standard input (or the
input closes), shuts the server down and, with ``--trace 1``, prints one more
JSON line holding its spans and the engine's counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Sampling seed of the served engine (its exact expectations ignore it, but
#: the fleet store keys on it).
ENGINE_SEED = 97

#: Admission limits far above the offered load: the workload measures
#: latency, so no request may be refused.
GENEROUS = 1_000_000


def build_engine():
    from repro.backends import fake_casablanca
    from repro.engine import NoisyDensityMatrixEngine
    from repro.simulators import NoiseModel

    return NoisyDensityMatrixEngine(NoiseModel.from_device(fake_casablanca()), seed=ENGINE_SEED)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro.service import EngineServer, ServiceConfig, TenantPolicy

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    policy = TenantPolicy(rate_per_second=GENEROUS, burst=GENEROUS, max_queue_depth=GENEROUS)
    config = ServiceConfig(default_policy=policy, max_inflight_requests=GENEROUS)
    engine = build_engine()
    with EngineServer(engine, config, own_engine=True) as server:
        print(json.dumps({"port": server.port}), flush=True)
        sys.stdin.readline()
    if tracer is not None:
        report = tracer.snapshot()
        report["engine"] = tracer.engine_counters()
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
