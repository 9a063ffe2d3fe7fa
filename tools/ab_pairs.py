"""Alternating parent/change comparison on the repository benchmark.

Usage, from the repository root::

    python tools/ab_pairs.py --parent DIR --change DIR --workload vaqem_fig12 \\
        --seed 9 --pairs 10 [--claim run_s]

``DIR`` is a checkout of each commit.  Each pair runs the command of the
change's ``BENCHMARK.json`` (``perfbench/run.py --trace 0`` at its
``run_seconds``) once in each tree, the parent first in even pairs and the
change first in odd ones, so a drift in host speed falls on both sides.

For every end-to-end metric the report gives both sides' median and
quartiles and how many pairs the change won (ties count for neither side).
The claimed metric gets the gain verdict: the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.  Every other metric is a ``regression`` when the
change's median is worse than the parent's by more than the metric's bound,
``unresolved`` when either side's runs spread wider than the bound (unless
every change run beats every parent run), and ``within bound`` otherwise.

Uses the standard library only and writes nothing in either tree.  Exits 1
when the claim is not met or any metric regressed or is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _sign(better: str) -> int:
    """+1 when a lower value is better, -1 when a higher one is."""
    return 1 if better == "lower" else -1


def change_wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs in which the change read strictly better than the parent."""
    sign = _sign(better)
    return sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)


def claim_met(parent: Sequence[float], change: Sequence[float], better: str) -> bool:
    """The gain rule: the change wins at least nine tenths of all pairs, and
    its median beats the parent's by more than the parent's quartile spread."""
    q1, parent_median, q3 = quartiles(parent)
    gain = _sign(better) * (parent_median - statistics.median(change))
    return 10 * change_wins(parent, change, better) >= 9 * len(parent) and gain > q3 - q1


def bound_verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """``"regression"``, ``"unresolved"`` or ``"within bound"`` for a
    metric whose change median may be at most ``bound`` (relative) worse."""
    sign = _sign(better)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    worse = sign * (change_median - parent_median)
    scale = abs(parent_median)
    if worse > 0 and (scale == 0 or worse / scale > bound):
        return "regression"
    spread = 0.0
    for side in (parent, change):
        q1, median, q3 = quartiles(side)
        if q3 > q1:
            spread = max(spread, (q3 - q1) / abs(median) if median else float("inf"))
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def run_once(tree: Path, command: List[str], workload: str, seed: int, seconds: float) -> Dict:
    """One benchmark run in ``tree``; returns its JSON result."""
    arguments = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command + arguments, cwd=tree, capture_output=True, text=True)
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr[-4000:])
        raise SystemExit(f"benchmark run failed in {tree} (exit {completed.returncode})")
    return json.loads(lines[-1])


def metric_value(run: Dict, name: str) -> float:
    """The value of metric ``name`` in one run's JSON result."""
    return float(run["metrics"][name]["value"])


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def report(
    runs: Dict[str, List[Dict]], spec: Dict, claim: Optional[str]
) -> Tuple[List[str], bool]:
    """The report lines and whether the comparison passed."""
    lines = [f"{'metric':<12} {'parent median [q1, q3]':<28} {'change median [q1, q3]':<28} won  verdict"]
    passed = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [metric_value(run, name) for run in runs["parent"] if name in run["metrics"]]
        change = [metric_value(run, name) for run in runs["change"] if name in run["metrics"]]
        if len(parent) != len(change) or not parent:
            continue
        won = change_wins(parent, change, metric["better"])
        if name == claim:
            met = claim_met(parent, change, metric["better"])
            verdict = "claim met" if met else "claim not met"
        else:
            verdict = bound_verdict(parent, change, metric["better"], metric["bound"])
            met = verdict == "within bound"
        passed = passed and met
        lines.append(f"{name:<12} {_fmt(parent):<28} {_fmt(change):<28} {won}/{len(parent):<3} {verdict}")
    for side in ("parent", "change"):
        attempted = sum(run.get("attempted", 0) for run in runs[side])
        failed = sum(run.get("failed", 0) for run in runs[side])
        correct = all(run.get("correct", False) for run in runs[side])
        lines.append(f"{side}: {failed}/{attempted} operations failed, correct={correct}")
    return lines, passed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--claim", default=None, help="the end-to-end metric the change claims")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.claim is not None and args.claim not in {m["name"] for m in spec["end_to_end"]}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric of BENCHMARK.json")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(
                run_once(trees[side], spec["command"], args.workload, args.seed, spec["run_seconds"])
            )
        summary = " ".join(
            f"{side} run_s={metric_value(runs[side][-1], 'run_s'):.3f}" for side in ("parent", "change")
        )
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): {summary}", file=sys.stderr, flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {spec['run_seconds']}")
    lines, passed = report(runs, spec, args.claim)
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
