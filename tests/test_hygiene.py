"""Module boundaries: no module of ssw imports another module's private names,
per-complex state is declared, not patched on, and every public name is used."""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ssw"

# Lines that patch an attribute onto an object of another class; the count
# may only go down.
MAX_PATCHED_ATTRIBUTE_LINES = 0

# The one attribute a function may set on an object other than self: the
# resolved lifting bound on the parsed argparse namespace.
ALLOWED_FOREIGN_ATTRIBUTES = {"cli.py:run_command:args.bound"}


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


def assigned_attributes(target):
    """The attribute nodes an assignment target binds, through tuples and stars."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for elt in target.elts for a in assigned_attributes(elt)]
    if isinstance(target, ast.Starred):
        return assigned_attributes(target.value)
    return [target] if isinstance(target, ast.Attribute) else []


def foreign_attribute_assignments(path):
    """path:function:object.attribute for each attribute set on anything but self."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for attribute in (a for t in targets for a in assigned_attributes(t)):
                owner = ast.unparse(attribute.value)
                if owner != "self":
                    hits.add(f"{path.name}:{function.name}:{owner}.{attribute.attr}")
    return hits


def test_functions_set_attributes_only_on_self():
    hits = set().union(*(foreign_attribute_assignments(p) for p in sorted(SRC.glob("*.py"))))
    assert hits - ALLOWED_FOREIGN_ATTRIBUTES == set()


# A ratchet on the lines of src/ssw/*.py, lowered as code is deleted (the
# ROADMAP baseline is 4,904); lines added for speed are paid back by deleting
# others.
MAX_SOURCE_LINES = 4697


def annotation_names(tree):
    """Names read by annotations, including those written as strings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                note = ast.parse(note.value, mode="eval")
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Name):
                    yield sub.id


def unused_imports(path):
    """path:line: name for each imported name the module never reads; the
    names listed in ``__all__`` count as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in ("annotations", "*"):
                    imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= set(annotation_names(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in unused_imports(path)] == []


def test_unused_import_check_sees_a_dead_name(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .core import EZ, SMap\n\n\ndef f(x: 'EZ') -> int:\n    return 1\n")
    assert unused_imports(path) == ["m.py:1: SMap"]


def test_source_lines_stay_at_the_baseline():
    total = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert total <= MAX_SOURCE_LINES, total


WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def uses(tree):
    """What a syntax tree reads: names (including imported ones), attributes,
    and the words of its strings, each counted."""
    names, attributes, words = Counter(), Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(WORD.findall(node.value))
    return names, attributes, words


def public_definitions(tree):
    """(name, node, is_method) for each public top-level function and class of
    a module and each public method of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def dead_names(sources, python_files, text_files):
    """module:name for each public definition of the source modules that no
    file names outside the definition itself: a Python file by a name, an
    import, an attribute (the only way to name a method) or a word of a
    string, a text file by a word."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in python_files}
    names, attributes, words = (sum(counts, Counter()) for counts in zip(*map(uses, trees.values())))
    for path in text_files:
        words.update(WORD.findall(path.read_text()))
    dead = []
    for path in sources:
        for name, node, is_method in public_definitions(trees[path]):
            short = name.rsplit(".", 1)[-1]
            own_names, own_attributes, own_words = uses(node)
            count = attributes[short] - own_attributes[short] + words[short] - own_words[short]
            if not is_method:
                count += names[short] - own_names[short]
            if count == 0:
                dead.append(f"{path.name}:{name}")
    return dead


def test_every_public_name_is_used():
    sources = sorted(SRC.glob("*.py"))
    python_files = sources + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    assert dead_names(sources, python_files, [ROOT / "README.md"]) == []


def test_dead_name_check_sees_dead_names(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return unused() + used()\n\n\n"
        "class C:\n    def m(self):\n        return self.m()\n"
    )
    assert dead_names([path], [path], []) == ["m.py:unused", "m.py:C", "m.py:C.m"]
