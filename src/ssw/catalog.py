"""The catalog of named objects used by the suite and the CLI.

Every entry is built by a pure constructor and cross-checked against a golden
document shipped with the package.
"""
from __future__ import annotations

import os

from .core import EZ, SSet, SSetError, standard_simplex, boundary, horn, q_complex, q_marked_cells
from .decor import FLAT, SHARP, MarkedScaled, decorate
from .tensor import flat_ms, gray_scaled

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def j_truncated(cap: int) -> SSet:
    """The walking isomorphism (nerve of the contractible groupoid on {0,1}),
    truncated: nondegenerate cells are the alternating words."""

    def word(start: int, length: int) -> str:
        return "".join(str((start + i) % 2) for i in range(length))

    cells = [[word(0, n + 1), word(1, n + 1)] for n in range(cap + 1)]
    faces = {}
    for n in range(1, cap + 1):
        for start in (0, 1):
            w = word(start, n + 1)
            fs = []
            for i in range(n + 1):
                sub = w[:i] + w[i + 1 :]
                repeat = next(
                    (j for j in range(len(sub) - 1) if sub[j] == sub[j + 1]), None
                )
                if repeat is None:
                    fs.append(EZ(sub, tuple(range(n))))
                else:
                    core = sub[:repeat] + sub[repeat + 1 :]
                    op = tuple(t if t <= repeat else t - 1 for t in range(n))
                    fs.append(EZ(core, op))
            faces[w] = tuple(fs)
    J = SSet(cells, faces, dim_cap=cap)
    J._validate()
    return J


def _entries() -> dict:
    out = {}
    for n in range(4):
        out[f"d{n}"] = MarkedScaled(standard_simplex(n))
    out["d1_sharp"] = decorate(standard_simplex(1), SHARP, FLAT)
    out["d2_flat"] = MarkedScaled(standard_simplex(2))
    out["d2_sharp"] = MarkedScaled(
        standard_simplex(2), frozenset(), frozenset({"012"})
    )
    out["d2_full"] = decorate(standard_simplex(2), SHARP, SHARP)
    out["d3_sharp"] = decorate(standard_simplex(3), FLAT, SHARP)
    out["boundary2"] = MarkedScaled(boundary(2))
    out["horn21"] = MarkedScaled(horn(2, 1))
    out["horn30"] = MarkedScaled(horn(3, 0))
    Q = q_complex()
    out["q"] = MarkedScaled(Q)
    out["q_sharp"] = MarkedScaled(Q, frozenset(), frozenset(Q.level(2)))
    out["q_marked"] = MarkedScaled(Q, q_marked_cells(Q), frozenset(Q.level(2)))
    J3 = j_truncated(3)
    out["j_trunc3"] = MarkedScaled(
        J3, frozenset(J3.level(1)), frozenset(J3.level(2))
    )
    g = gray_scaled(flat_ms(1).scaled(), flat_ms(1).scaled())
    out["d1_gray_d1"] = g.scaled.flat_marked()
    return out


def catalog(check_goldens: bool = True) -> dict:
    """The named library; entries are checked against their goldens."""
    entries = _entries()
    if check_goldens:
        from .doc import complex_to_doc, doc_to_complex, parse, serialize

        for name, ms in entries.items():
            path = os.path.join(GOLDEN_DIR, f"{name}.json")
            if not os.path.exists(path):
                raise SSetError(f"golden document for {name!r} is missing")
            with open(path, "r", encoding="utf-8") as fh:
                golden = fh.read()
            if serialize(complex_to_doc(ms, name)) != golden:
                raise SSetError(f"catalog entry {name!r} does not match its golden")
            round_trip = doc_to_complex(parse(golden))
            if serialize(complex_to_doc(round_trip, name)) != golden:
                raise SSetError(f"golden for {name!r} does not round-trip")
            if (
                round_trip.base.counts() != ms.base.counts()
                or round_trip.marked != ms.marked
                or round_trip.thin != ms.thin
            ):
                raise SSetError(f"golden for {name!r} disagrees with the construction")
    return entries
