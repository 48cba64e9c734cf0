import json

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
        (["d2_sharp", "9"], (3, "error: no vertex '9'\n")),
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
        code, out = run_command(argv)
        assert code == 3
        assert out.startswith("error:") and "'9'" in out


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
