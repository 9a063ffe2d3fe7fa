"""Fingerprint the outputs of the repository benchmark's batch workloads.

Usage, from the repository root::

    python tools/unit_hashes.py --root DIR --workload vaqem_fig12 \\
        --seeds 0 1 2 3 4 5 6 7

``DIR`` is a checkout (default: this repository).  The script calls
``DIR/perfbench/run.py``'s ``pin_environment()`` before numpy loads (BLAS
threads 1, ``REPRO_ENGINE_KERNEL`` unset), imports ``workloads`` from
``DIR/perfbench``, and for each seed runs ``setup(seed)`` and one ``unit()``.
It prints one line per seed, ``workload seed sha256``, where the digest is
``sha256(repr(outputs))``: two checkouts whose lines agree computed every
output of those units bit for bit alike.

Uses the standard library only and writes nothing in ``DIR`` (bytecode
caching is off).  Run one checkout per process: a process imports one
``repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    run_path = args.root.resolve() / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", run_path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.pin_environment()
    repro = importlib.import_module("repro")
    source = args.root.resolve() / "src"
    if source not in Path(repro.__file__).resolve().parents:
        parser.error(f"imported repro from {repro.__file__}, not from {source}")
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.BATCH_WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.BATCH_WORKLOADS)}")

    for seed in args.seeds:
        workload = workloads.BATCH_WORKLOADS[args.workload]()
        workload.setup(seed)
        digest = hashlib.sha256(repr(workload.unit()).encode()).hexdigest()
        print(f"{args.workload} {seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
