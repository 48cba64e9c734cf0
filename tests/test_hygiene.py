"""Module boundaries: no module of ssw imports another module's private names."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssw"


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
