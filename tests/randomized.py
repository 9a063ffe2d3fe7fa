"""Seeded random circuit and schedule generation, shared by tests and benchmarks.

One generator feeds both the fuzz suites (``test_randomized_differential.py``,
``test_segments.py``) and the randomized benchmark legs in
``benchmarks/run_all.py``, so benchmark inputs and fuzz cases come from the
same source and a failing case is always reproducible from its seed alone
(see ``docs/testing.md``).

Everything here is a pure function of its ``seed`` argument: the same seed
produces the same circuit, schedule or variant family on every platform and
in every process.  No pytest dependency — the module is plain Python,
imported by the test suite from the ``tests`` directory and by
``benchmarks/run_all.py`` via an explicit ``sys.path`` entry.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import fake_casablanca
from repro.circuits import QuantumCircuit
from repro.mitigation.dd import DDConfig, insert_dd_sequences, max_sequences_in_window
from repro.mitigation.gate_scheduling import GSConfig, movable_gate, reschedule_gate
from repro.transpiler import transpile
from repro.transpiler.pipeline import TranspileResult
from repro.transpiler.scheduling import ScheduledCircuit

#: Parameterized single-qubit gates the generator draws angles for.
_PARAMETRIC_1Q = ("rx", "ry", "rz")
#: Fixed single-qubit gates, including the diagonal ones (commuting
#: same-qubit adjacencies) and x/y (the DD-pulse shapes).
_FIXED_1Q = ("x", "y", "h", "s", "sx", "t", "z")


def fuzz_device(seed: int = 7001):
    """The deterministic 7-qubit device every fuzz case runs on.

    The Casablanca model carries the full noise surface — coupling map,
    nonzero ZZ crosstalk rates, per-qubit calibration — and a fixed
    construction seed keeps fingerprints stable across runs.
    """
    return fake_casablanca(seed=seed)


def random_circuit(
    seed: int,
    num_qubits: int = 4,
    depth: int = 12,
    p_two_qubit: float = 0.25,
    p_delay: float = 0.15,
    measure: bool = True,
) -> QuantumCircuit:
    """A seeded random logical circuit with idle windows.

    ``depth`` counts layers; each layer applies, per qubit, either a random
    single-qubit gate (parameterized or fixed), joins a two-qubit ``cx``
    (non-commuting adjacencies), or inserts an explicit ``delay`` (idle
    windows for the schedule-level fuzzing).  Consecutive same-qubit draws
    produce both commuting (diagonal-diagonal) and non-commuting adjacencies
    by construction.
    """
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"fuzz_{seed}")
    for _ in range(depth):
        order = list(rng.permutation(num_qubits))
        used: set = set()
        while order:
            qubit = order.pop(0)
            if qubit in used:
                continue
            used.add(qubit)
            draw = rng.random()
            if draw < p_two_qubit and order:
                partners = [q for q in order if q not in used]
                if partners:
                    partner = partners[int(rng.integers(len(partners)))]
                    used.add(partner)
                    if rng.random() < 0.5:
                        circuit.cx(qubit, partner)
                    else:
                        circuit.cx(partner, qubit)
                    continue
            if draw < p_two_qubit + p_delay:
                circuit.delay(float(rng.uniform(40.0, 400.0)), qubit)
            elif rng.random() < 0.5:
                name = _PARAMETRIC_1Q[int(rng.integers(len(_PARAMETRIC_1Q)))]
                getattr(circuit, name)(float(rng.uniform(-np.pi, np.pi)), qubit)
            else:
                name = _FIXED_1Q[int(rng.integers(len(_FIXED_1Q)))]
                getattr(circuit, name)(qubit)
    if measure:
        circuit.measure_all()
    return circuit


def random_compiled(
    seed: int,
    num_qubits: int = 4,
    depth: int = 12,
    device=None,
    **kwargs,
) -> TranspileResult:
    """Transpile a :func:`random_circuit` for the fuzz device.

    Returns the full :class:`TranspileResult` (schedule plus idle windows),
    so callers can build DD/GS variant families from the same compilation.
    """
    device = device if device is not None else fuzz_device()
    circuit = random_circuit(seed, num_qubits=num_qubits, depth=depth, **kwargs)
    return transpile(circuit, device)


def random_schedule(seed: int, num_qubits: int = 4, depth: int = 12, device=None) -> ScheduledCircuit:
    """The scheduled circuit of :func:`random_compiled` (convenience)."""
    return random_compiled(seed, num_qubits=num_qubits, depth=depth, device=device).scheduled


def schedule_family(
    compiled: TranspileResult,
    seed: int,
    max_variants: int = 6,
) -> List[ScheduledCircuit]:
    """Sweep-style variants of one compiled schedule (base always first).

    Mirrors what the window tuner evaluates: DD pulses inserted into idle
    windows and single-qubit gates moved within them.  These are the
    families whose prefixes the engine's reuse fast path shares.
    """
    rng = np.random.default_rng(seed)
    variants: List[ScheduledCircuit] = [compiled.scheduled]
    windows = list(compiled.idle_windows)
    rng.shuffle(windows)
    for window in windows:
        if len(variants) > max_variants:
            break
        capacity = max_sequences_in_window(window, compiled.scheduled, "xy4")
        if capacity > 0:
            count = int(rng.integers(1, capacity + 1))
            variants.append(
                insert_dd_sequences(compiled.scheduled, window, DDConfig("xy4", count))
            )
        if movable_gate(compiled.scheduled, window) is not None:
            position = float(rng.uniform(0.0, 1.0))
            variants.append(reschedule_gate(compiled.scheduled, window, GSConfig(position)))
    return variants[: max_variants + 1]


def segment_family(
    compiled: TranspileResult,
    seed: int,
    max_variants: int = 6,
) -> List[Tuple[str, object, ScheduledCircuit]]:
    """Segment-sharing candidates of one compiled schedule, labelled.

    The segment-reuse differential harness (``tests/test_segments.py``,
    the ``segment_reuse`` leg of ``benchmarks/run_all.py``) needs families
    whose members share *checkpoint-aligned segments* rather than just
    prefixes: window-tuner candidates that diverge inside exactly one idle
    window and are untouched everywhere else, so every segment not
    overlapping that window carries identical content before and after the
    edit.  Returns ``(label, window, scheduled)`` triples, base first:

    - ``("base", None, ...)`` — the compiled schedule itself;
    - ``("dd", window, ...)`` / ``("gs", window, ...)`` — one DD insertion
      or gate move inside ``window``, the single point of divergence.

    Deterministic per ``(compiled, seed)`` like everything in this module.
    """
    rng = np.random.default_rng(seed)
    members: List[Tuple[str, object, ScheduledCircuit]] = [
        ("base", None, compiled.scheduled)
    ]
    windows = list(compiled.idle_windows)
    rng.shuffle(windows)
    for window in windows:
        if len(members) > max_variants:
            break
        capacity = max_sequences_in_window(window, compiled.scheduled, "xy4")
        if capacity > 0:
            count = int(rng.integers(1, capacity + 1))
            members.append(
                (
                    "dd",
                    window,
                    insert_dd_sequences(compiled.scheduled, window, DDConfig("xy4", count)),
                )
            )
        if movable_gate(compiled.scheduled, window) is not None:
            position = float(rng.uniform(0.0, 1.0))
            members.append(
                ("gs", window, reschedule_gate(compiled.scheduled, window, GSConfig(position)))
            )
    return members[: max_variants + 1]


def fuzz_seeds(count: int, offset: int = 0) -> List[int]:
    """The fuzz seed list (documented in ``docs/testing.md``)."""
    return [1000 + offset + index for index in range(count)]


# ----------------------------------------------------------------------------
# Frontend fuzzing: seeded QASM/JSON program generation and corruption
# ----------------------------------------------------------------------------
#
# ``random_qasm_case`` emits a pair (QASM text, reference circuit) where the
# reference is built through the native circuit API applying *exactly* the
# instructions the frontend pipeline should produce — including the
# decomposer's expansions for non-native gates and the parser's macro
# expansions.  The round-trip property is then content-exact: same
# fingerprint, bit-identical engine results.  Expression arguments come from
# a fixed table whose Python mirrors replay the parser's evaluation order
# operation for operation, so the float values agree to the last bit.

import math

from repro.circuits.gates import Barrier, Delay, Measure, standard_gate
from repro.frontend import Decomposer

#: (expression text, bit-exact Python value) pairs — the mirror must apply
#: the same float operations in the same order as the QASM expression
#: evaluator.
_EXPRESSIONS: Tuple[Tuple[str, float], ...] = (
    ("pi/2", math.pi / 2),
    ("-pi/4", -(math.pi / 4)),
    ("3*pi/4", (3.0 * math.pi) / 4),
    ("2*pi/3", (2.0 * math.pi) / 3),
    ("0.5", 0.5),
    ("1.25", 1.25),
    ("-0.75", -0.75),
    ("1e-3", float("1e-3")),
    ("sin(0.5)", math.sin(0.5)),
    ("cos(0.25)", math.cos(0.25)),
    ("sqrt(2)/2", math.sqrt(2.0) / 2),
    ("(pi+1)/4", (math.pi + 1.0) / 4),
    ("2^-2", math.pow(2.0, -2.0)),
    ("0.7 - 0.2", 0.7 - 0.2),
)

_QASM_FIXED_1Q = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "id")
_QASM_PARAM_1Q = ("rx", "ry", "rz", "p")
_QASM_FIXED_2Q = ("cx", "cz", "swap")
_QASM_PARAM_2Q = ("rzz", "rxx", "cry")
#: Non-native gates the decomposer must expand: (name, num params, arity).
_QASM_DECOMPOSED = (
    ("u1", 1, 1), ("u2", 2, 1), ("u", 3, 1),
    ("cp", 1, 2), ("crz", 1, 2), ("cu1", 1, 2), ("cy", 0, 2), ("ch", 0, 2),
    ("ccx", 0, 3), ("cswap", 0, 3),
)


def random_qasm_case(seed: int, num_qubits: Optional[int] = None) -> Tuple[str, QuantumCircuit]:
    """A seeded valid OpenQASM 2.0 program plus its reference circuit.

    The program exercises the full supported grammar — fixed/parametric
    native gates, expression arguments, decomposable qelib1 gates, gate
    macros (plain and parameterized), register broadcast, barriers, the
    ``delay`` extension and a final register-wide measure — and the
    reference circuit applies exactly the instruction stream the frontend
    pipeline (parse, macro-expand, decompose) should emit.
    """
    rng = random.Random(seed)
    n = num_qubits if num_qubits is not None else rng.randint(2, 5)
    decomposer = Decomposer.default()
    circuit = QuantumCircuit(n, n, name=f"qasm_fuzz_{seed}")
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]

    def qubits_sample(k: int) -> List[int]:
        return rng.sample(range(n), k)

    def apply(name: str, params: Sequence[float], qubits: Sequence[int]) -> None:
        for gate_name, gate_params, gate_qubits in decomposer.expand(name, params, qubits):
            circuit.append(standard_gate(gate_name, *gate_params), gate_qubits)

    # Optional macros, defined up front (QASM requires definition before use).
    macros = []
    if rng.random() < 0.5:
        body_gates = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                body_gates.append((rng.choice(_QASM_FIXED_1Q), "a"))
            else:
                body_gates.append(("cx", "a, b"))
        body = " ".join(f"{g} {args};" for g, args in body_gates)
        lines.append(f"gate m{seed % 97}_f a, b {{ {body} }}")
        macros.append(("fixed", f"m{seed % 97}_f", body_gates))
    if rng.random() < 0.5:
        lines.append(f"gate m{seed % 97}_p(t) a {{ rz(t) a; rx(-t) a; }}")
        macros.append(("param", f"m{seed % 97}_p", None))

    statements = rng.randint(4, 12)
    for _ in range(statements):
        kind = rng.random()
        if kind < 0.25:
            name = rng.choice(_QASM_FIXED_1Q)
            (q,) = qubits_sample(1)
            lines.append(f"{name} q[{q}];")
            apply(name, (), (q,))
        elif kind < 0.45:
            name = rng.choice(_QASM_PARAM_1Q)
            expr, value = rng.choice(_EXPRESSIONS)
            (q,) = qubits_sample(1)
            lines.append(f"{name}({expr}) q[{q}];")
            apply(name, (value,), (q,))
        elif kind < 0.60 and n >= 2:
            if rng.random() < 0.5:
                name = rng.choice(_QASM_FIXED_2Q)
                params: Tuple[float, ...] = ()
                args = ""
            else:
                name = rng.choice(_QASM_PARAM_2Q)
                expr, value = rng.choice(_EXPRESSIONS)
                params = (value,)
                args = f"({expr})"
            qa, qb = qubits_sample(2)
            lines.append(f"{name}{args} q[{qa}], q[{qb}];")
            apply(name, params, (qa, qb))
        elif kind < 0.75:
            candidates = [g for g in _QASM_DECOMPOSED if g[2] <= n]
            name, num_params, arity = rng.choice(candidates)
            exprs, values = [], []
            for _ in range(num_params):
                expr, value = rng.choice(_EXPRESSIONS)
                exprs.append(expr)
                values.append(value)
            qubits = qubits_sample(arity)
            args = f"({', '.join(exprs)})" if exprs else ""
            targets = ", ".join(f"q[{q}]" for q in qubits)
            lines.append(f"{name}{args} {targets};")
            apply(name, tuple(values), tuple(qubits))
        elif kind < 0.82:
            # Register broadcast of a fixed single-qubit gate.
            name = rng.choice(_QASM_FIXED_1Q)
            lines.append(f"{name} q;")
            for q in range(n):
                apply(name, (), (q,))
        elif kind < 0.88:
            lines.append("barrier q;")
            circuit.append(Barrier(n), tuple(range(n)))
        elif kind < 0.94:
            (q,) = qubits_sample(1)
            duration = float(rng.randint(1, 8) * 40)
            lines.append(f"delay({duration!r}) q[{q}];")
            circuit.append(Delay(duration), (q,))
        elif macros:
            style, name, body_gates = rng.choice(macros)
            if style == "fixed":
                if n < 2:
                    continue
                qa, qb = qubits_sample(2)
                lines.append(f"{name} q[{qa}], q[{qb}];")
                binding = {"a": qa, "b": qb}
                for gate, args in body_gates:
                    targets = tuple(binding[x.strip()] for x in args.split(","))
                    apply(gate, (), targets)
            else:
                expr, value = rng.choice(_EXPRESSIONS)
                (q,) = qubits_sample(1)
                lines.append(f"{name}({expr}) q[{q}];")
                apply("rz", (value,), (q,))
                apply("rx", (-value,), (q,))
    lines.append("measure q -> c;")
    for q in range(n):
        circuit.append(Measure(), (q,), (q,))
    return "\n".join(lines) + "\n", circuit


def random_json_case(seed: int, num_qubits: Optional[int] = None) -> Tuple[str, QuantumCircuit]:
    """A seeded valid ``repro-circuit`` JSON document plus its reference."""
    from repro.frontend import circuit_to_json

    _, circuit = random_qasm_case(seed, num_qubits=num_qubits)
    return circuit_to_json(circuit), circuit


#: Mutation classes for adversarial inputs.  ``junk_bytes`` is *guaranteed*
#: corrupting for generated programs (the generator emits no comments, and
#: the junk alphabet is outside the QASM grammar's); the other classes may by
#: chance produce a still-valid program, so the fuzz property for them is
#: "typed IngestError or clean success", never a crash.
CORRUPTION_KINDS = (
    "junk_bytes", "delete_span", "swap_tokens", "duplicate_token",
    "truncate", "flip_char",
)

_JUNK = "@#$%&!?~`\\|"


def corrupt_program(text: str, seed: int, kind: Optional[str] = None) -> Tuple[str, str]:
    """Mutate program text; returns ``(kind, corrupted_text)``.

    Deterministic per ``(text, seed)``; ``kind`` forces one mutation class.
    """
    rng = random.Random(seed)
    kind = kind or rng.choice(CORRUPTION_KINDS)
    if not text:
        return kind, rng.choice(_JUNK)
    if kind == "junk_bytes":
        position = rng.randint(0, len(text))
        junk = "".join(rng.choice(_JUNK) for _ in range(rng.randint(1, 4)))
        return kind, text[:position] + junk + text[position:]
    if kind == "delete_span":
        start = rng.randint(0, max(0, len(text) - 2))
        end = min(len(text), start + rng.randint(1, 12))
        return kind, text[:start] + text[end:]
    if kind == "swap_tokens":
        tokens = text.split()
        if len(tokens) >= 2:
            i, j = rng.sample(range(len(tokens)), 2)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        return kind, " ".join(tokens)
    if kind == "duplicate_token":
        tokens = text.split()
        if tokens:
            i = rng.randrange(len(tokens))
            tokens.insert(i, tokens[i])
        return kind, " ".join(tokens)
    if kind == "truncate":
        return kind, text[: rng.randint(0, max(0, len(text) - 1))]
    # flip_char: overwrite one character with another printable one.
    position = rng.randrange(len(text))
    replacement = rng.choice("abcxyz0189;,[](){}")
    return kind, text[:position] + replacement + text[position + 1 :]
