"""Module boundaries: no module of ssw imports another module's private names,
and per-complex state is declared, not patched on."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssw"

# Lines that patch an attribute onto an object of another class; the count
# may only go down.
MAX_PATCHED_ATTRIBUTE_LINES = 12


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ssw"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"


def test_no_private_cross_module_imports():
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "core.py" in paths
    assert [hit for path in paths for hit in private_imports(path)] == []


def test_patched_attributes_do_not_grow():
    lines = [
        f"{path.name}:{k}"
        for path in sorted(SRC.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if "type: ignore[attr-defined]" in line
    ]
    assert len(lines) <= MAX_PATCHED_ATTRIBUTE_LINES, lines


def self_attributes(function):
    """The attributes a method assigns on self."""
    return {
        target.attr
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    }


def test_sset_state_is_declared_in_init():
    tree = ast.parse((SRC / "core.py").read_text())
    (sset,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SSet"]
    methods = {n.name: n for n in sset.body if isinstance(n, ast.FunctionDef)}
    declared = self_attributes(methods.pop("__init__"))
    assert {"_by_faces", "_by_horn", "_plan"} <= declared
    assert {name: sorted(self_attributes(m) - declared) for name, m in methods.items()} == {
        name: [] for name in methods
    }
