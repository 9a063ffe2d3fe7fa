"""Regenerate ``reference.json``: the outputs every benchmark input must produce.

Run from the repository root::

    python3 perfbench/make_reference.py

It runs each batch workload once per VAQEM seed the benchmark can select, on
the serial tier and the dense kernel, and records the outputs the benchmark's
checks compare against.  Regenerate only when a change is meant to alter
results; a pure performance change must leave this file untouched.
"""

from __future__ import annotations

import json
import sys

from run import pin_environment

pin_environment()

from workloads import CONFIG_SEEDS, REFERENCE_PATH, Fig12, NoisyVQE  # noqa: E402


def main() -> int:
    reference = {}
    for index, seed in enumerate(CONFIG_SEEDS):
        fig12 = Fig12()
        fig12.setup(index)
        outputs = fig12.unit()
        noisy = NoisyVQE()
        noisy.setup(index)
        vqe = noisy.unit()
        reference[str(seed)] = {
            "fig12": outputs,
            "noisy_vqe": {
                "final_energy": noisy.final_energy(vqe),
                "optimal_value": vqe["optimal_value"],
                "num_evaluations": vqe["num_evaluations"],
            },
        }
        print(f"seed {seed}: geomean_gs_xy {outputs['geomean_gs_xy']:.6f}", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
