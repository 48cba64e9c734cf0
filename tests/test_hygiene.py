"""Module boundaries: no module of ssw imports another module's private names,
per-complex state is declared, not patched on, and every public name is used."""
import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    assert {"_by_faces", "_plan"} <= declared
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


# The functions that validate what they build: the trust boundary, where
# input arrives from outside (documents and @file objects, certificate attach
# maps, the hand-written catalog literal), and proof steps, where a map being
# simplicial is the claim under test.  SSet and SMap never validate when they
# are built; tests/conftest.py validates every build for the whole tier-1 run.
VALIDATING_FUNCTIONS = {
    "catalog.py:j_truncated",
    "cli.py:cmd_check_certificate",
    "doc.py:doc_to_complex",
    "doc.py:doc_to_map",
    "tensor.py:compare_r",
    "tensor.py:join_eq_homotopies",
}


def validating_functions(path):
    """path:function for the innermost function around each call
    x._validate() on anything but self."""
    hits = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "_validate" and ast.unparse(func.value) != "self":
                hits.add(f"{path.name}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return hits


def test_only_boundaries_and_proof_steps_validate():
    hits = set().union(*(validating_functions(p) for p in sorted(SRC.glob("*.py"))))
    assert hits == VALIDATING_FUNCTIONS


def test_validation_check_sees_a_validating_build(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def built():\n    return SSet((), {})\n\n\nclass C:\n    def own(self):\n        self._validate()\n\n\n"
        "def checked(f):\n    def inner():\n        f._validate()\n    g = core.SMap(f.source, f.target, {})\n"
        "    g._validate()\n    return g\n"
    )
    assert validating_functions(path) == {"m.py:inner", "m.py:checked"}


# A ratchet on the lines of src/ssw/*.py, lowered as code is deleted (the
# ROADMAP baseline is 4,904); lines added for speed are paid back by deleting
# others.
MAX_SOURCE_LINES = 4477


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


# Every memo that lives as long as the process is made by ``ssw.ops.memo`` (or
# is put in its registry, ``_MEMOS``), so that ``memo_sizes()`` sees it and
# ``clear_memos()`` empties it.
def unregistered_memos(path):
    """path:line: what, for each memo outside the registry: an ``lru_cache`` or
    ``cache`` named outside a function body (in a function body it lives for one
    call), and a module or class attribute set to an empty dict (``{}``,
    ``dict()``, a ``defaultdict`` or an instance of a dict subclass of the
    module).  The registry ``_MEMOS`` of ops.py is the one exception."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    dict_classes = {
        n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and any(ast.unparse(b) == "dict" for b in n.bases)
    }

    def in_function_body(node):
        while node in parents:
            parent = parents[node]
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)) and node in parent.body:
                return True
            if isinstance(parent, ast.Lambda) and node is parent.body:
                return True
            node = parent
        return False

    def empty_dict(value):
        if isinstance(value, ast.Dict):
            return not value.keys
        if not isinstance(value, ast.Call):
            return False
        func = ast.unparse(value.func).rsplit(".", 1)[-1]
        return func == "defaultdict" or (func in {"dict", *dict_classes} and not value.args and not value.keywords)

    hits = []
    for node in ast.walk(tree):
        if in_function_body(node):
            continue
        if isinstance(node, ast.Name) and node.id in ("lru_cache", "cache") or (
            isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
        ):
            hits.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and empty_dict(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = ", ".join(ast.unparse(t) for t in targets)
            if (path.name, names) != ("ops.py", "_MEMOS"):
                hits.append((node.lineno, names))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(hits)]


def test_every_process_memo_is_in_the_registry():
    import importlib

    from ssw.ops import _MEMOS

    assert [hit for path in sorted(SRC.glob("*.py")) for hit in unregistered_memos(path)] == []
    # and every lru_cache that a module or a class of ssw holds is a registered one
    modules = [importlib.import_module(f"ssw.{path.stem}") for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    registered = {id(m) for m in _MEMOS.values()}
    for module in modules:
        owners = [module] + [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == module.__name__]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_info"):
                    assert id(value) in registered, f"{module.__name__}.{name}"


def test_memo_check_sees_unregistered_memos(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from collections import defaultdict\nfrom functools import cache, lru_cache\n\n"
        "SEEN = {}\nTABLE: dict = dict()\nGROUPS = defaultdict(list)\nKINDS = {'a': 1}\n\n\n"
        "class _Table(dict):\n    pass\n\n\nCACHE = _Table()\nKEPT = memo(lambda x: {})\n\n\n"
        "@lru_cache(maxsize=None)\ndef f(x):\n    return x\n\n\n"
        "class C:\n    seen = {}\n\n    @cache\n    def m(self):\n        return {}\n\n\n"
        "def per_call(xs):\n    seen = {}\n    return lru_cache(maxsize=None)(lambda x: seen.setdefault(x, x))\n"
    )
    assert unregistered_memos(path) == [
        "m.py:4: SEEN", "m.py:5: TABLE", "m.py:6: GROUPS", "m.py:14: CACHE",
        "m.py:18: lru_cache", "m.py:24: seen", "m.py:26: cache",
    ]


# The ssw modules a fresh process loads for each entry point.  The catalog
# needs no lifting engine, and only its golden check reads documents.
CATALOG_MODULES = {"ssw", "ssw.catalog", "ssw.core", "ssw.decor", "ssw.ops", "ssw.tensor"}
STARTUP_MODULES = {
    "import ssw": {"ssw"},
    "import ssw; from ssw.catalog import catalog; catalog(check_goldens=False)": CATALOG_MODULES,
    "import ssw; from ssw.catalog import catalog; catalog()": CATALOG_MODULES | {"ssw.doc"},
    "import ssw.cli": CATALOG_MODULES - {"ssw.catalog"} | {"ssw.cli"},
}

# Loaded by no entry point: records are NamedTuples, so nothing needs the
# method generation of ``dataclasses`` or the ``inspect`` it imports.
NEVER_LOADED = {"dataclasses", "inspect"}


def imported_modules(path):
    """The top-level names of the modules a source file imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_dataclasses():
    assert [p.name for p in sorted(SRC.glob("*.py")) if "dataclasses" in set(imported_modules(p))] == []


def records():
    """One of each record class that was a dataclass, built as ssw builds it."""
    from helpers import sharp_ms
    from ssw.core import identity_map, standard_simplex
    from ssw.decor import MarkedScaled, Scaled
    from ssw.fibration import (
        VERIFIED,
        CertificateStep,
        GeneratorFamily,
        Verdict,
        simplex_generator,
    )
    from ssw.slices import slice_over_vertex
    from ssw.suite import run_suite
    from ssw.tensor import (
        flat_ms,
        gray_variant_scalings,
        marked_variants_witness,
        thick_join,
    )

    d1 = standard_simplex(1)
    gen = simplex_generator("horn", 2, 1)
    variants = gray_variant_scalings(sharp_ms(2), flat_ms(1))
    triangle = sorted(variants.plus.thin - variants.gr.thin)[0]
    return [
        MarkedScaled(d1),
        Scaled(d1),
        Verdict(VERIFIED, bound=2),
        gen,
        GeneratorFamily("horns", (gen,), 2),
        CertificateStep(gen, identity_map(gen.A.base)),
        slice_over_vertex(Scaled(d1, frozenset()), "1", cap=2),
        run_suite([1])[0],
        marked_variants_witness(variants, sharp_ms(2), flat_ms(1), triangle, "plus"),
        thick_join("out", flat_ms(1), flat_ms(0)),
    ]


def test_records_are_immutable_named_tuples():
    built = records()
    assert len({type(r) for r in built}) == 10
    for record in built:
        assert isinstance(record, tuple) and record._fields, type(record).__name__
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


# Prepended to a probe: at exit, write the loaded modules to stderr.
LIST_MODULES = "import atexit, sys; atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr)); "


def fresh_process(code, *argv):
    """(exit code, stdout, loaded modules) of the code run with argv in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", LIST_MODULES + code, *argv], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, set(ast.literal_eval(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("code", sorted(STARTUP_MODULES))
def test_start_up_loads_only_the_start_up_modules(code):
    status, _, modules = fresh_process(code)
    assert status == 0
    assert {m for m in modules if m.split(".")[0] == "ssw"} == STARTUP_MODULES[code]
    assert not modules & NEVER_LOADED


# For each command: the modules it must load, and those it must not.
COMMAND_MODULES = {
    "build q": (set(), {"json", "ssw.doc", "ssw.fibration", "ssw.slices", "ssw.suite"}),
    "build q --format json": ({"ssw.doc"}, {"ssw.fibration", "ssw.slices", "ssw.suite"}),
    "check-bicat d2_flat --bound 2": ({"ssw.fibration"}, {"ssw.doc", "ssw.slices", "ssw.suite"}),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_a_command_loads_only_what_it_uses(command):
    """The command in a fresh process, as the ``ssw`` script runs it, loads
    what it uses and nothing it does not, and prints what run_command does."""
    from ssw.cli import run_command

    loaded, not_loaded = COMMAND_MODULES[command]
    argv = command.split()
    status, out, modules = fresh_process("from ssw.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert loaded <= modules and not modules & not_loaded
    assert not modules & NEVER_LOADED
    assert (status, out) == run_command(argv)
