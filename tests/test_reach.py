"""The definition matcher of ``tools/reach.py`` on a synthetic module."""

import importlib.util
import sys
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
sys.modules["reach"] = reach  # dataclasses look their module up there
_SPEC.loader.exec_module(reach)

SOURCE = textwrap.dedent(
    '''
    import functools


    def plain():
        return 1


    @functools.lru_cache(
        maxsize=None,
    )
    def decorated(value):
        return value


    def outer():
        def inner():
            return 2

        squares = [n * n for n in range(3)]
        return squares


    def dead_outer():
        def dead_inner():
            return 3

        return dead_inner


    class Box:
        @property
        def value(self):
            return 4

        def never(self):
            return 5
    '''
)

FILENAME = "<synthetic reach module>"


def _run_and_record():
    """Execute the module under a profile hook, call some of its functions,
    and return ``(module, first line, name)`` of every code object called."""
    records = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == FILENAME:
            records.add(("synthetic.py", code.co_firstlineno, code.co_name))

    namespace = {}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exec(compile(SOURCE, FILENAME, "exec"), namespace)
        namespace["plain"]()
        namespace["decorated"](1)
        namespace["outer"]()
        namespace["Box"]().value
    finally:
        sys.setprofile(previous)
    return records


def test_definitions_span_decorators_and_name_nested_functions():
    defined = {d.qualname: d for d in reach.definitions(SOURCE, "synthetic.py")}
    assert sorted(defined) == [
        "Box.never", "Box.value", "dead_outer", "dead_outer.<locals>.dead_inner",
        "decorated", "outer", "outer.<locals>.inner", "plain",
    ]
    decorated = defined["decorated"]
    assert decorated.def_line == decorated.first_line + 3
    assert decorated.last_line == decorated.def_line + 1


def test_matcher_finds_called_functions_and_counts_lines_once():
    defined = reach.definitions(SOURCE, "synthetic.py")
    hit = reach.reached(defined, _run_and_record())
    assert sorted(d.qualname for d in hit) == ["Box.value", "decorated", "outer", "plain"]
    # The comprehension inside ``outer`` matches no definition, and the
    # nested ``dead_inner`` adds no line its never-called parent already has:
    # inner (2) + dead_outer (5) + never (2).
    assert reach.unreached_lines(defined, hit) == {"synthetic.py": 9}
