"""Package layout rules checked on the source text."""

import ast
import importlib
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


def test_every_name_the_layer_tracer_wraps_exists():
    # perfbench/spans.py wraps sigvol functions by name: methods through the
    # class __dict__, functions as module attributes.  Its source runs in a
    # fresh namespace, so reading it writes nothing.
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    namespace = {"__name__": "spans"}
    exec(compile(spans.read_text(), str(spans), "exec"), namespace)
    assert namespace["LAYERS"]
    missing = []
    for layer, (module_name, attributes, _) in namespace["LAYERS"].items():
        module = importlib.import_module(module_name)
        for attribute in attributes:
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                found = isinstance(owner, type) and callable(vars(owner).get(name))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}: {module_name}.{attribute}")
    assert missing == []
