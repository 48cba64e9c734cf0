"""Line-oriented JSON documents for complexes and maps.

Canonical serialization sorts keys and id lists, so documents round-trip
byte-identically and diffs stay readable.
"""
from __future__ import annotations

import json

from .core import EZ, SMap, SSet, SSetError
from .decor import MarkedScaled

SCHEMA_VERSION = 1


def complex_to_doc(X: MarkedScaled, name: str | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim_cap": X.base.dim_cap,
        "cells": {str(n): sorted(X.base.level(n)) for n in range(X.base.dim + 1)},
        "faces": {
            x: [[pair.core, list(pair.op)] for pair in X.base.faces[x]]
            for x in sorted(X.base.faces)
            if X.base.dim_of[x] >= 1
        },
        "marked": sorted(X.marked),
        "thin": sorted(X.thin),
    }
    if name is not None:
        doc["name"] = name
    return doc


def serialize(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse(text: str) -> dict:
    try:
        doc = json.loads(text)
        json.dumps(doc, ensure_ascii=False).encode("utf-8")  # an escaped lone surrogate decodes, but is not UTF-8
    except UnicodeEncodeError as exc:
        raise SSetError(f"document holds a string that is not UTF-8: {exc.reason}") from exc
    except ValueError as exc:  # malformed JSON, or an integer longer than Python converts
        raise SSetError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SSetError("document must be an object")
    return doc


def read(path: str) -> dict:
    """The document in a UTF-8 file; JSON nested past the recursion limit is an error too."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (UnicodeDecodeError, RecursionError) as exc:
        raise SSetError(f"cannot read document: {exc}") from exc


def ez_from_doc(entry, what: str) -> EZ:
    """A simplex written [core, word] in a document, the word a list of integers."""
    ok = isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
    if not (ok and isinstance(entry[1], list) and all(type(v) is int for v in entry[1])):
        raise SSetError(f"{what} must be [core, word]")
    return EZ(entry[0], tuple(entry[1]))


def _typed(value, kind: type, item: type | None, message: str):
    """value if it is of the given kind (a bool is not an int) and its items
    (values, for a dict) are of the item kind; otherwise an SSetError."""
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or isinstance(value, bool) or (
        item is not None and not all(isinstance(v, item) for v in items)
    ):
        raise SSetError(message)
    return value


def doc_to_complex(doc: dict) -> MarkedScaled:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SSetError(f"unsupported schema_version {doc.get('schema_version')!r}")
    raw_cells = _typed(doc.get("cells", {}), dict, list, "cells must map levels to lists of cell ids")
    try:
        levels = {int(k): v for k, v in raw_cells.items()}
    except ValueError as exc:
        raise SSetError("cell levels must be integers") from exc
    if sorted(levels) != list(range(len(raw_cells))):
        raise SSetError("cell levels must be contiguous from 0")
    ids = "must be a list of cell ids"
    cells = [sorted(_typed(levels[n], list, str, f"cells of level {n} {ids}")) for n in range(len(levels))]
    faces = {}
    raw_faces = _typed(doc.get("faces", {}), dict, list, "faces must map cells to lists of faces")
    for x, fs in raw_faces.items():
        faces[x] = tuple(ez_from_doc(entry, f"face entry of {x!r}") for entry in fs)
    base = SSet(cells, faces, dim_cap=_typed(doc.get("dim_cap", 6), int, None, "dim_cap must be an integer"))
    base._validate()
    marked = _typed(doc.get("marked", []), list, str, f"marked {ids}")
    thin = _typed(doc.get("thin", []), list, str, f"thin {ids}")
    return MarkedScaled(base, frozenset(marked), frozenset(thin))


def map_to_doc(f: SMap, source_name: str | None = None, target_name: str | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source": source_name or complex_to_doc(MarkedScaled(f.source)),
        "target": target_name or complex_to_doc(MarkedScaled(f.target)),
        "images": {x: [p.core, list(p.op)] for x, p in sorted(f.images.items())},
    }
    return doc


def doc_to_map(doc: dict, resolve) -> SMap:
    """Load a map document; resolve turns a name or inline document into a
    MarkedScaled complex."""
    src = resolve(doc["source"])
    tgt = resolve(doc["target"])
    images = {x: ez_from_doc(entry, f"image of {x!r}") for x, entry in doc["images"].items()}
    f = SMap(src.base, tgt.base, images)
    f._validate()
    return f
