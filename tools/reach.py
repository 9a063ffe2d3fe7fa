"""Which ``src/repro`` functions do the repository's entry points reach?

Usage, from the repository root::

    python tools/reach.py [--root DIR]

Runs each entry point below in a fresh interpreter from the root of the
checkout ``DIR`` (default: this repository) and reports the functions of
``DIR/src/repro`` that none of them called:

* ``perfbench/run.py --seed 3 --seconds 0 --trace 1`` for ``vaqem_fig12``,
  ``noisy_vqe`` and ``fig12_process`` (one untraced and one traced unit
  each), and ``service_load`` at ``--seconds 4``;
* the four ``examples/``;
* ``tools/load_gen.py --smoke``;
* ``benchmarks/run_all.py``, writing its JSON to a temporary directory;
* pytest on the eleven figure files that assert the paper's results;
* ``tools/run_doc_snippets.py``.

The hook is a generated ``sitecustomize.py`` on ``PYTHONPATH``: it sets
``sys.setprofile`` and ``threading.setprofile`` and appends each first-called
code object of ``src/repro`` to a file per process id.  Forked pool workers
inherit it and the service subprocess loads it, so worker-side code counts
as reached.  ``REPRO_ENGINE_KERNEL`` is removed from the entry points'
environment, so every engine runs its default kernel.

A definition is an AST ``FunctionDef`` (or ``AsyncFunctionDef``); a recorded
code object reaches it when the names agree and the code's first line lies
between the definition's first decorator line and its ``def`` line.  Nested
functions are definitions of their own, and a never-reached line is counted
once even when it lies inside several never-reached definitions.  Prints
each entry point's exit status and time, the counts, the never-reached
lines by module and then every never-reached function.  Exits 1 if an entry
point fails.  Uses the standard library only; records, logs and
``run_all.py``'s JSON go to a temporary directory, and what the entry points
write into the checkout (``__pycache__/``, ``.benchmarks/``,
``benchmarks/results/``) is listed in ``.gitignore``.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Seconds one entry point may run before it counts as failed.
ENTRY_TIMEOUT_S = 1200

FIGURE_TESTS = (
    "benchmarks/bench_fig03_surface.py",
    "benchmarks/bench_fig05_dd_sweep.py",
    "benchmarks/bench_fig06_gate_position.py",
    "benchmarks/bench_fig08_angle_tuning.py",
    "benchmarks/bench_fig09_sim_vs_machine.py",
    "benchmarks/bench_fig12_improvements.py",
    "benchmarks/bench_fig13_rel_optimal.py",
    "benchmarks/bench_fig14_window_configs.py",
    "benchmarks/bench_fig15_execution_time.py",
    "benchmarks/bench_fig16_temporal_variability.py",
    "benchmarks/bench_table1_characteristics.py",
)

EXAMPLES = ("quickstart", "h2_chemistry_runtime", "dd_exploration", "qasm_vqe")


def entry_points(workdir: Path) -> Dict[str, List[str]]:
    """Each entry point's command line, run from the checkout root."""
    python = sys.executable
    perfbench = [python, "perfbench/run.py", "--seed", "3", "--trace", "1", "--seconds"]
    commands: Dict[str, List[str]] = {
        f"perfbench {workload}": perfbench + ["0", "--workload", workload]
        for workload in ("vaqem_fig12", "noisy_vqe", "fig12_process")
    }
    commands["perfbench service_load"] = perfbench + ["4", "--workload", "service_load"]
    for example in EXAMPLES:
        commands[f"example {example}"] = [python, f"examples/{example}.py"]
    commands["load_gen --smoke"] = [python, "tools/load_gen.py", "--smoke"]
    commands["run_all"] = [
        python, "benchmarks/run_all.py", "--output", str(workdir / "BENCH_engine.json"),
    ]
    commands["figure tests"] = [
        python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *FIGURE_TESTS,
    ]
    commands["doc snippets"] = [python, "tools/run_doc_snippets.py"]
    return commands


HOOK = '''"""Records each first-called function of src/repro (tools/reach.py)."""
import os
import sys
import threading

_PREFIXES = {prefixes!r}
_OUT = {out!r}
_seen = set()
_lock = threading.Lock()
_sink = [None, None]  # (pid, file) of the process writing


def _reach_profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if not code.co_filename.startswith(_PREFIXES):
        return
    with _lock:
        pid = os.getpid()
        if _sink[0] != pid:
            # A forked worker inherits the parent's sink; give it its own.
            _sink[0] = pid
            _sink[1] = open(os.path.join(_OUT, "%d.tsv" % pid), "a", buffering=1)
        _sink[1].write("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name))


sys.setprofile(_reach_profile)
threading.setprofile(_reach_profile)
'''


# ----------------------------------------------------------------------
# Definitions and matching
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Definition:
    """One ``def`` of a module: its qualified name and line span."""

    module: str
    qualname: str
    name: str
    first_line: int  # first decorator line, else the ``def`` line
    def_line: int
    last_line: int

    def lines(self) -> range:
        return range(self.first_line, self.last_line + 1)


def definitions(source: str, module: str) -> List[Definition]:
    """Every function definition of ``source``, nested ones included."""
    found: List[Definition] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(
                    Definition(module, qualname, child.name, first, child.lineno, child.end_lineno)
                )
                visit(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def reached(
    defined: Sequence[Definition], records: Iterable[Tuple[str, int, str]]
) -> Set[Definition]:
    """The definitions some recorded ``(module, first line, name)`` matches."""
    by_module: Dict[str, List[Definition]] = {}
    for definition in defined:
        by_module.setdefault(definition.module, []).append(definition)
    hit: Set[Definition] = set()
    for module, line, name in records:
        for definition in by_module.get(module, ()):
            if definition.name == name and definition.first_line <= line <= definition.def_line:
                hit.add(definition)
    return hit


def unreached_lines(defined: Sequence[Definition], hit: Set[Definition]) -> Dict[str, int]:
    """Per module, the lines inside never-reached definitions, each once."""
    lines: Dict[str, Set[int]] = {}
    for definition in defined:
        if definition not in hit:
            lines.setdefault(definition.module, set()).update(definition.lines())
    return {module: len(numbers) for module, numbers in lines.items()}


# ----------------------------------------------------------------------
# Running the entry points
# ----------------------------------------------------------------------

def read_records(record_dir: Path, package: Path) -> Set[Tuple[str, int, str]]:
    """``(module relative to the package, first line, name)`` of every
    recorded code object."""
    records: Set[Tuple[str, int, str]] = set()
    for path in record_dir.glob("*.tsv"):
        for row in path.read_text().splitlines():
            filename, line, name = row.split("\t")
            module = Path(os.path.realpath(filename)).relative_to(package)
            records.add((module.as_posix(), int(line), name))
    return records


def run_entry_points(
    root: Path, workdir: Path
) -> Tuple[List[Tuple[str, int, float]], Set[Tuple[str, int, str]]]:
    """Run every entry point under the hook; their outcomes and records."""
    package = Path(os.path.realpath(root / "src" / "repro"))
    record_dir = workdir / "records"
    hook_dir = workdir / "hook"
    record_dir.mkdir()
    hook_dir.mkdir()
    prefixes = tuple({str(root / "src" / "repro") + os.sep, str(package) + os.sep})
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(prefixes=prefixes, out=str(record_dir))
    )
    environment = dict(os.environ)
    environment.pop("REPRO_ENGINE_KERNEL", None)
    environment["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(root / "src")])
    outcomes: List[Tuple[str, int, float]] = []
    for name, command in entry_points(workdir).items():
        log = workdir / f"{name.replace(' ', '_')}.log"
        started = time.perf_counter()
        with open(log, "w") as handle:
            try:
                status = subprocess.run(
                    command, cwd=root, env=environment, stdout=handle,
                    stderr=subprocess.STDOUT, timeout=ENTRY_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                status = -1
        elapsed = time.perf_counter() - started
        outcomes.append((name, status, elapsed))
        print(f"{name:28s} exit {status:3d} {elapsed:7.1f} s", flush=True)
        if status != 0:
            print("".join(log.read_text().splitlines(keepends=True)[-20:]), flush=True)
    return outcomes, read_records(record_dir, package)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="checkout to measure (default: this repository)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir_name:
        outcomes, records = run_entry_points(root, Path(workdir_name))

    package = root / "src" / "repro"
    defined: List[Definition] = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        defined.extend(definitions(path.read_text(), module))
    hit = reached(defined, records)
    missed = unreached_lines(defined, hit)
    all_lines = sum(unreached_lines(defined, set()).values())
    print()
    print(f"functions defined:       {len(defined)}")
    print(f"functions reached:       {len(hit)}")
    print(f"functions never reached: {len(defined) - len(hit)}")
    print(f"never-reached lines:     {sum(missed.values())} of {all_lines} function lines")
    print()
    print("never-reached lines by module:")
    for module, count in sorted(missed.items(), key=lambda item: (-item[1], item[0])):
        functions = sum(1 for d in defined if d.module == module and d not in hit)
        print(f"  {module:40s} {count:5d}  ({functions} functions)")
    print()
    print("never-reached functions:")
    for definition in defined:
        if definition not in hit:
            print(f"  {definition.module}:{definition.def_line} {definition.qualname}")
    failed = [name for name, status, _ in outcomes if status != 0]
    if failed:
        print(f"\nentry points failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
