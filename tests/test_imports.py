"""Package layout rules checked on the source text."""

import ast
from pathlib import Path

import sigvol


def private_imports(path: Path) -> list[str]:
    """`from <sibling> import _name` statements in one module, function-local ones included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("sigvol")):
            source = "." * node.level + (node.module or "")
            found += [f"{path.name}:{node.lineno}: from {source} import {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(Path(sigvol.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_only_sigpoly_knows_the_packed_layout():
    modules = sorted(Path(sigvol.__file__).parent.glob("*.py"))
    found = []
    for path in modules:
        if path.name == "sigpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names if alias.name in ("FIELD_BITS", "MAX_DEGREE")]
    assert found == []
