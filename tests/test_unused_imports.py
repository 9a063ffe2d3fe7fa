"""Every top-level import in a ``src/repro`` module is used by that module.

An import that nothing references still executes, so a reach measurement
cannot see it; this scan can.  Package ``__init__.py`` files re-export on
purpose and are exempt.  A name counts as used when the module references it
anywhere: in code, in a string annotation, or in its ``__all__``.
"""

from __future__ import annotations

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _referenced_names(tree: ast.Module):
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(
                element.value for element in node.value.elts if isinstance(element, ast.Constant)
            )
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return names


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced = _referenced_names(tree)
        for name, line in _imported_names(tree):
            if name not in referenced:
                unused.append(f"{path.relative_to(SOURCE)}:{line} {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)
