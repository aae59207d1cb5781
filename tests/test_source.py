"""Checks on the source text of src/glattice."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "glattice"


def _references():
    """{name: set of top-level function names (None outside functions)
    in which the name is read}, over every module of the package."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                out.setdefault(name, set()).add(owner)
    return out


def test_every_private_function_is_referenced():
    refs = _references()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            if (isinstance(top, ast.FunctionDef) and top.name.startswith("_")
                    and not top.name.startswith("__")
                    and not refs.get(top.name, set()) - {top.name}):
                unused.append("%s:%s" % (path.name, top.name))
    assert unused == []
