import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ssw.catalog import catalog, j_truncated
from ssw.cli import CliError, run_command
from ssw.core import EZ, SMap, SSetError, standard_simplex
from ssw.decor import MarkedScaled
from ssw.doc import (
    SCHEMA_VERSION,
    complex_to_doc,
    doc_to_complex,
    doc_to_map,
    map_to_doc,
    parse,
    serialize,
)


# ---------------------------------------------------------------- documents


def test_catalog_documents_round_trip():
    for name, ms in sorted(catalog().items()):
        text = serialize(complex_to_doc(ms, name))
        doc = parse(text)
        again = doc_to_complex(doc)
        assert serialize(complex_to_doc(again, name)) == text


def test_document_rejects_bad_degeneracy_word():
    d1 = standard_simplex(1)
    doc = complex_to_doc(MarkedScaled(d1))
    doc["cells"]["2"] = ["bogus"]
    doc["faces"]["bogus"] = [["01", [0, 1]], ["01", [0, 2]], ["01", [0, 1]]]
    with pytest.raises(Exception):
        doc_to_complex(doc)


def test_document_rejects_marked_triangle():
    d2 = standard_simplex(2)
    doc = complex_to_doc(MarkedScaled(d2))
    doc["marked"] = ["012"]
    with pytest.raises(SSetError, match="marked cell '012' is not a nondegenerate 1-simplex"):
        doc_to_complex(doc)
    doc["marked"], doc["thin"] = [], ["01"]
    with pytest.raises(SSetError, match="thin cell '01' is not a nondegenerate 2-simplex"):
        doc_to_complex(doc)


def test_document_rejects_bad_schema():
    with pytest.raises(Exception):
        doc_to_complex({"schema_version": 999})


def test_map_document_round_trip():
    d1 = standard_simplex(1)
    d2 = standard_simplex(2)
    f = SMap(d1, d2, {"0": EZ("0", (0,)), "1": EZ("2", (0,)), "01": EZ("02", (0, 1))})
    doc = map_to_doc(f)
    f2 = doc_to_map(doc, lambda inline: doc_to_complex(inline))
    assert f2.images == f.images


@pytest.mark.parametrize(
    "doc",
    [
        {"target": "d1", "images": {}},
        {"source": "d1", "images": {}},
        {"source": "d1", "target": "d1"},
        {"source": "d1", "target": "d1", "images": [["0", [0]]]},
        ["source", "target", "images"],
    ],
    ids=["no source", "no target", "no images", "images a list", "not an object"],
)
def test_map_document_of_the_wrong_shape_is_an_sset_error(doc):
    with pytest.raises(SSetError, match="map document|images must"):
        doc_to_map(doc, lambda name: MarkedScaled(standard_simplex(1)))


def test_j_truncated_counts():
    J = j_truncated(3)
    assert J.counts() == (2, 2, 2, 2)


# ---------------------------------------------------------------- CLI


def test_cli_gray_example():
    code, out = run_command(["gray", "--flat", "d1", "d1"])
    assert code == 0
    assert "triangles: 2" in out and "thin: 1" in out


def test_cli_deterministic():
    a = run_command(["slice", "d2_sharp", "2", "--cap", "2"])
    b = run_command(["slice", "d2_sharp", "2", "--cap", "2"])
    assert a == b
    c = run_command(["build", "q", "--format", "json"])
    d = run_command(["build", "q", "--format", "json"])
    assert c == d and c[0] == 0


def test_cli_exit_codes():
    code, _ = run_command(["check-bicat", "d2_sharp", "--bound", "2"])
    assert code == 0
    code, _ = run_command(["check-bicat", "d2_flat", "--bound", "2"])
    assert code == 1
    code, out = run_command(["check-limit-cone", "j_trunc3", "1", "--cap", "2", "--bound", "2"])
    assert code == 2
    code, _ = run_command(["no-such-command"])
    assert code == 3
    code, _ = run_command(["build", "no_such_object"])
    assert code == 3


def test_cli_json_format():
    code, out = run_command(["check-bicat", "d1_sharp", "--bound", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "VERIFIED"
    assert payload["bound"] == 2


# Every command that offers --format, with small arguments.
JSON_COMMANDS = [
    ["build", "q"],
    ["gray", "--flat", "d1", "d1"],
    ["join", "d1", "d0"],
    ["thick-join", "out", "d1", "d0"],
    ["cone", "inn", "left", "d1"],
    ["slice", "d2_sharp", "2", "--cap", "3"],
    ["hom", "d2_sharp", "0", "2", "--cap", "2"],
    ["classify-edges", "d1_sharp", "1", "--bound", "2", "--cap", "2"],
    ["check-fibration", "--kind", "outer-cartesian", "d1_sharp", "1", "--bound", "2", "--cap", "2"],
    ["check-fibration", "--kind", "weak", "d1_sharp", "1", "--bound", "2", "--cap", "2"],
    ["check-bicat", "d2_flat", "--bound", "2"],
    ["check-limit-cone", "d1_sharp", "1"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: argv[0])
def test_cli_json_output_is_one_json_value(argv):
    table_code, _ = run_command(argv)
    code, out = run_command(argv + ["--format", "json"])
    assert code == table_code
    json.loads(out)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["d1_sharp", "1", "--variance", "out"], (0, "VERIFIED up to dimension 3\n")),
        (
            ["d1_sharp", "0"],
            (1, "REFUTED: at vertex '1': target vertex 's0.0' lies in a component not hit by the restriction\n"),
        ),
        (["d2_sharp", "9"], (3, "error: no vertex '9' in 'd2_sharp'\n")),
        # the ambient check ran to bound 1 only (at bound 2 it refutes d2_flat)
        (["d2_flat", "2", "--bound", "1"], (0, "VERIFIED up to dimension 1\n")),
    ],
)
def test_cli_check_limit_cone_on_the_empty_diagram(argv, expected):
    assert run_command(["check-limit-cone"] + argv) == expected


def test_cli_json_complex_documents_carry_their_header():
    for argv in (["slice", "d2_sharp", "2", "--cap", "3"], ["hom", "d2_sharp", "0", "2", "--cap", "2"]):
        _, table = run_command(argv)
        _, out = run_command(argv + ["--format", "json"])
        doc = json.loads(out)
        assert table.startswith(f"provenance: {doc['provenance']}\nsaturated: {doc['saturated']}\n")
        assert f"counts: {doc_to_complex(doc).base.counts()}\n" in table
    _, table = run_command(["gray", "--flat", "d1", "d1"])
    _, out = run_command(["gray", "--flat", "d1", "d1", "--format", "json"])
    assert table.startswith("triangles: 2\nthin: 1\n")
    assert f"counts: {doc_to_complex(json.loads(out)).base.counts()}\n" in table


def test_cli_classify_edges_json_maps_each_edge_to_its_verdict():
    argv = ["classify-edges", "d2_sharp", "2", "--flavor", "weak", "--bound", "3"]
    _, table = run_command(argv)
    code, out = run_command(argv + ["--format", "json"])
    verdicts = json.loads(out)
    assert code == 0 and sorted(verdicts) == ["s1.0", "s1.1", "s1.2"]
    assert all(v == {"status": "VERIFIED", "bound": 3, "evidence": ""} for v in verdicts.values())
    assert table == "".join(f"{e}: VERIFIED up to dimension 3\n" for e in sorted(verdicts))


def test_cli_classify_edges_from_bound_ten():
    argv = ["classify-edges", "d1_sharp", "1", "--bound", "10", "--cap", "1"]
    assert run_command(argv) == (0, "s1.0: VERIFIED up to dimension 10\n")


def test_cli_refutation_on_a_truncated_slice_is_inconclusive():
    """At cap 1 the slice of d2_sharp over 2 lacks its 2-cell, so the scaled
    2-horn has no filler there; at cap 2 the cell is back and the check passes."""
    evidence = "slice not saturated at cap 1 < bound 2: no filler for "
    code, out = run_command(["check-fibration", "--kind", "outer", "d2_sharp", "2", "--cap", "1", "--bound", "2"])
    assert code == 2 and out.startswith(f"INCONCLUSIVE: {evidence}scaled-inner-horn(2,1) with bottom")
    code, out = run_command(["classify-edges", "d2_sharp", "2", "--cap", "1", "--bound", "2"])
    assert code == 2 and out.splitlines()[2].startswith(f"s1.2: INCONCLUSIVE: {evidence}cartesian-horn(2)")
    argv = ["check-fibration", "--kind", "outer", "d2_sharp", "2", "--cap", "2", "--bound", "2"]
    assert run_command(argv) == (0, "VERIFIED up to dimension 2\n")


def test_cli_suite_offers_no_format_and_rejects_unknown_criteria():
    assert run_command(["suite", "--only", "1", "--format", "json"])[0] == 3
    for number in ("0", "12", "99"):
        code, out = run_command(["suite", "--only", "1", number])
        assert code == 3 and out.startswith(f"error: unknown criterion {number}"), out


def test_cli_classify_edges():
    code, out = run_command(["classify-edges", "d1_sharp", "1", "--bound", "2", "--cap", "2"])
    assert code == 0
    assert "VERIFIED" in out


def test_cli_thick_join_and_cone():
    code, out = run_command(["thick-join", "out", "d1", "d0"])
    assert code == 0
    assert "counts: (3, 4, 2)" in out
    code, out = run_command(["cone", "inn", "left", "d1"])
    assert code == 0
    assert "marked:" in out


def test_cli_hom():
    code, out = run_command(["hom", "d2_sharp", "0", "2", "--cap", "2"])
    assert code == 0
    assert "counts:" in out


def test_cli_certificate(tmp_path):
    from ssw.doc import complex_to_doc
    from ssw.core import standard_simplex
    from ssw.decor import MarkedScaled

    d2 = standard_simplex(2)
    start = MarkedScaled(d2)
    target = MarkedScaled(d2, frozenset(), frozenset({"012"}))
    attach = {x: [x, list(range(d2.dim_of[x] + 1))] for x in d2.dim_of}
    doc = {
        "schema_version": 1,
        "start": complex_to_doc(start),
        "claimed": complex_to_doc(target),
        "steps": [
            {
                "kind": "rescale",
                "name": "thin-rescale",
                "from": complex_to_doc(start),
                "to": complex_to_doc(target),
                "attach": attach,
            }
        ],
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out = run_command(["check-certificate", str(path)])
    assert code == 0, out
    # a wrong claim is refuted
    doc["claimed"] = complex_to_doc(start)
    path.write_text(json.dumps(doc))
    code, out = run_command(["check-certificate", str(path)])
    assert code == 1


def test_env_default_bound(monkeypatch):
    from ssw.cli import default_bound

    monkeypatch.setenv("SSW_DEFAULT_BOUND", "5")
    assert default_bound() == 5
    monkeypatch.delenv("SSW_DEFAULT_BOUND")
    assert default_bound() == 4
    monkeypatch.setenv("SSW_DEFAULT_BOUND", "junk")
    with pytest.raises(CliError):
        default_bound()


def test_cli_rejects_negative_bound():
    code, out = run_command(["check-bicat", "d2_flat", "--bound", "-1"])
    assert code == 3
    assert out.startswith("error:") and "--bound" in out


@pytest.mark.parametrize("raw", ["abc", "-2", "2.5"])
def test_cli_rejects_bad_env_default_bound(monkeypatch, raw):
    monkeypatch.setenv("SSW_DEFAULT_BOUND", raw)
    code, out = run_command(["check-bicat", "d2_flat"])
    assert code == 3
    assert out.startswith("error:") and "SSW_DEFAULT_BOUND" in out
    # an explicit --bound does not read the variable, nor does a command without one
    assert run_command(["check-bicat", "d2_flat", "--bound", "2"])[0] == 1
    assert run_command(["build", "d1"])[0] == 0


def test_cli_env_default_bound_applies(monkeypatch):
    monkeypatch.setenv("SSW_DEFAULT_BOUND", "1")
    code, out = run_command(["check-bicat", "d1_sharp", "--format", "json"])
    assert code == 0
    assert json.loads(out)["bound"] == 1


def test_cli_hom_rejects_unknown_vertices():
    for argv in (["hom", "d2_sharp", "0", "9"], ["hom", "d2_sharp", "9", "0"]):
        assert run_command(argv) == (3, "error: no vertex '9' in 'd2_sharp'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["slice", "d2_sharp", "2", "--cap", "-1"],
        ["check-limit-cone", "d2_sharp", "2", "--cap", "-1"],
        ["check-limit-cone", "d2_flat", "0", "--cap", "-1"],  # a refuted ambient
        ["hom", "d2_sharp", "0", "2", "--cap", "-2"],
    ],
)
def test_cli_rejects_negative_cap(argv):
    code, out = run_command(argv)
    assert code == 3
    assert out.startswith("error:") and f"cap must be a non-negative integer, got {argv[-1]}" in out


@pytest.mark.parametrize(
    "argv, env",
    [
        (["check-bicat", "d0", "--bound", str(10**6)], None),
        (["check-bicat", "d0"], str(10**6)),
        (["hom", "d2_sharp", "0", "2", "--cap", str(10**6)], None),
        (["slice", "d2_sharp", "2", "--cap", str(10**6)], None),
        (["check-limit-cone", "d2_sharp", "2", "--cap", "2", "--bound", str(10**6)], None),
    ],
)
def test_cli_rejects_a_bound_or_cap_past_the_maximum(argv, env, monkeypatch):
    """A --bound, SSW_DEFAULT_BOUND or --cap past MAX_BOUND exits 3 with an
    error line before any object is resolved or built."""
    import ssw.cli

    def resolve(spec):
        raise AssertionError("resolved")

    monkeypatch.setattr(ssw.cli, "resolve", resolve)
    if env is not None:
        monkeypatch.setenv("SSW_DEFAULT_BOUND", env)
    source = "SSW_DEFAULT_BOUND" if env is not None else argv[-2]
    assert ssw.cli.MAX_BOUND >= 12  # tier-1 runs check-bicat --bound 12 and slice --cap 11
    assert run_command(argv) == (3, f"error: {source} must be at most {ssw.cli.MAX_BOUND}, got {10**6}\n")


def test_cli_certificate_missing_keys(tmp_path):
    from ssw.doc import complex_to_doc

    path = tmp_path / "cert.json"
    path.write_text("{}")
    code, out = run_command(["check-certificate", str(path)])
    assert (code, out) == (3, "error: certificate document has no 'start' entry\n")
    d1 = complex_to_doc(MarkedScaled(standard_simplex(1)))
    step = {"kind": "rescale", "from": d1, "to": d1}
    path.write_text(json.dumps({"schema_version": 1, "start": d1, "claimed": d1, "steps": [step]}))
    code, out = run_command(["check-certificate", str(path)])
    assert (code, out) == (3, "error: certificate document has no 'attach' entry\n")


def _certificate(**changes) -> dict:
    """A valid one-step certificate on Delta^1 (a rescaling with nothing to add),
    with the given entries of the document, or else of its step, replaced."""
    d1 = complex_to_doc(MarkedScaled(standard_simplex(1)))
    attach = {"0": ["0", [0]], "1": ["1", [0]], "01": ["01", [0, 1]]}
    step = {"kind": "rescale", "from": d1, "to": d1, "attach": attach}
    doc = {"schema_version": 1, "start": d1, "claimed": d1, "steps": [step]}
    for key, value in changes.items():
        if key in doc:
            doc[key] = value
        else:
            step[key] = value
    return doc


def test_cli_certificate_fixture_is_valid(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_certificate()))
    assert run_command(["check-certificate", str(path)])[0] == 0


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"start": 1}, "certificate entry 'start' must be a dict"),
        ({"claimed": [2]}, "certificate entry 'claimed' must be a dict"),
        ({"steps": [1]}, "a certificate document and its steps must be JSON objects"),
        ({"steps": {"kind": "rescale"}}, "certificate entry 'steps' must be a list"),
        ({"attach": ["0", "1"]}, "certificate entry 'attach' must be a dict"),
        ({"from": "d1"}, "certificate entry 'from' must be a dict"),
        ({"attach": {"0": 1, "1": ["1", [0]], "01": ["01", [0, 1]]}},
         "attach image of '0' must be [core, word]"),
        ({"attach": {"0": ["0", [[0]]], "1": ["1", [0]], "01": ["01", [0, 1]]}},
         "attach image of '0' must be [core, word]"),
    ],
)
def test_cli_certificate_wrong_types(tmp_path, changes, message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_certificate(**changes)))
    assert run_command(["check-certificate", str(path)]) == (3, f"error: {message}\n")


@pytest.mark.parametrize(
    "attach",
    [
        {"0": ["01", [0]], "1": ["1", [0]], "01": ["01", [0, 1]]},  # vertex to an edge
        {"0": ["0", [0]], "1": ["0", [0]], "01": ["01", [0, 0]]},  # edge word not onto its core
    ],
)
def test_cli_certificate_attach_must_be_ez_normal(tmp_path, attach):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_certificate(attach=attach)))
    code, out = run_command(["check-certificate", str(path)])
    assert code == 3 and "is not in EZ normal form" in out


def test_cli_certificate_attach_must_name_only_cells_of_the_source(tmp_path):
    attach = {"0": ["0", [0]], "1": ["1", [0]], "01": ["01", [0, 1]], "junk": ["1", [0]]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_certificate(attach=attach)))
    code, out = run_command(["check-certificate", str(path)])
    assert (code, out) == (3, "error: image given for unknown cell 'junk'\n")


def test_document_rejects_malformed_face_words():
    doc = complex_to_doc(MarkedScaled(standard_simplex(2)))
    for bad in (["0", [[0], 0]], ["0", 5], [0, [0]], ["01", [0, True]]):
        doc["faces"]["012"][0] = bad
        with pytest.raises(SSetError, match="face entry of '012' must be"):
            doc_to_complex(doc)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"cells": {"0": 5}}, "cells must map levels to lists of cell ids"),
        ({"cells": [["0"]]}, "cells must map levels to lists of cell ids"),
        ({"faces": {"e": 5}}, "faces must map cells to lists of faces"),
        ({"faces": [["e"]]}, "faces must map cells to lists of faces"),
        ({"marked": 5}, "marked must be a list of cell ids"),
        ({"thin": [["x"]]}, "thin must be a list of cell ids"),
        ({"dim_cap": "x"}, "dim_cap must be an integer"),
    ],
)
def test_cli_build_rejects_wrong_typed_documents(tmp_path, changes, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **changes}))
    assert run_command(["build", f"@{path}"]) == (3, f"error: {message}\n")


def test_cli_build_rejects_faces_of_unknown_cells(tmp_path):
    path = tmp_path / "f.json"
    doc = {"schema_version": SCHEMA_VERSION, "cells": {"0": ["a"]}, "faces": {"e": [["a", [0]]] * 2}}
    path.write_text(json.dumps(doc))
    for fmt in ("table", "json"):
        assert run_command(["build", f"@{path}", "--format", fmt]) == (
            3, "error: faces given for unknown cell 'e'\n"
        )


def test_cli_object_path_is_a_directory(tmp_path):
    code, out = run_command(["build", f"@{tmp_path}"])
    assert code == 3
    assert out.startswith("error:")


UNREADABLE_DOCUMENTS = [
    (b"\xff\xfe", "error: cannot read document: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 200000, "error: cannot read document: maximum recursion depth exceeded"),
    (
        rb'{"schema_version": 1, "cells": {"0": ["\ud800"]}}',
        "error: document holds a string that is not UTF-8: surrogates not allowed",
    ),
    (b'{"dim_cap": ' + b"1" * 5000 + b"}", "error: document is not valid JSON: Exceeds the limit (4300 digits)"),
]


@pytest.mark.parametrize(
    "content, message", UNREADABLE_DOCUMENTS, ids=["not-utf8", "too-deep", "lone-surrogate", "long-integer"]
)
def test_cli_unreadable_documents_exit_3(tmp_path, content, message):
    """A file that is not UTF-8, JSON nested past the recursion limit, an
    escaped lone surrogate (a string that decodes but is not UTF-8 text) or an
    integer too long for Python to convert is an error line and exit 3 from
    both commands that read documents, called in process and through the
    ``ssw`` script in a fresh one."""
    path = tmp_path / "f.json"
    path.write_bytes(content)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = "import sys\nfrom ssw.cli import main\nsys.exit(main())\n"
    for argv in (["build", f"@{path}"], ["check-certificate", str(path)]):
        code, out = run_command(argv)
        assert code == 3 and out.startswith(message) and out.count("\n") == 1, out
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, out, "")


# ---------------------------------------------------------------- trust boundary


def _d2_document(**changes) -> dict:
    return {**complex_to_doc(MarkedScaled(standard_simplex(2))), **changes}


def test_cli_object_whose_faces_break_a_simplicial_identity_exits_3(tmp_path):
    doc = _d2_document()
    top = doc["faces"]["012"]
    doc["faces"]["012"] = [top[1], top[0], top[2]]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert run_command(["gray", f"@{path}", "d1"]) == (3, "error: simplicial identity fails at '012': d0 d2\n")


def test_cli_object_above_its_dim_cap_exits_3(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(_d2_document(dim_cap=1)))
    assert run_command(["build", f"@{path}"]) == (3, "error: nondegenerate cells in dimension 2 > cap 1\n")


def test_cli_valid_object_flows_through_the_trusted_constructors(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(serialize(complex_to_doc(catalog()["d1"])))
    for argv in (["gray", "--flat", "{}", "d1"], ["join", "{}", "d1"], ["thick-join", "out", "{}", "d1"],
                 ["cone", "inn", "right", "{}"]):
        assert run_command([a.format(f"@{path}") for a in argv]) == run_command([a.format("d1") for a in argv])


def test_thick_join_document_is_the_same_warm_and_fresh():
    """ssw thick-join out d2 d2 --format json prints the same bytes from a
    built thick join, from an empty registry and in a fresh process."""
    from ssw.ops import clear_memos

    argv = ["thick-join", "out", "d2", "d2", "--format", "json"]
    run_command(argv)
    warm = run_command(argv)
    clear_memos()
    assert run_command(argv) == warm and warm[0] == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "ssw.cli", *argv], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == warm


def test_cli_checks_bicategories_past_dimension_eleven():
    """Cell names of the 12-simplex are distinct (its vertex 12 is "12."), so
    the bound-12 check runs; run in a fresh process, as a user runs it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "ssw.cli", "check-bicat", "d0", "--bound", "12"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "VERIFIED up to dimension 12\n")
