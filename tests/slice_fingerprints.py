"""Content fingerprints of representable constructions whose shapes share
levels, for comparing builds across processes.

    python tests/slice_fingerprints.py [forward|reversed]

prints one line per construction, its name and the sha256 of its content, with
the constructions built in the given order in this process.
"""
import hashlib
import sys

from ssw.core import EZ, SMap, standard_simplex
from ssw.decor import SHARP, scale
from ssw.ops import idop
from ssw.slices import (
    fun_space,
    hom_category,
    slice_construction,
    slice_over_vertex,
    thick_slice,
    thick_slice_over_vertex,
)
from ssw.tensor import interval_sharp


def constructions():
    """(name, build) pairs; several share a shape key with different diagrams."""
    d2 = scale(standard_simplex(2), SHARP)
    d3 = scale(standard_simplex(3), SHARP)
    arrow = interval_sharp()

    def edge(S, a, b):
        images = {"0": EZ(a, (0,)), "1": EZ(b, (0,)), "01": EZ(a + b, idop(1))}
        return SMap(arrow.base, S.base, images)

    return [
        ("slice d2/2", lambda: slice_over_vertex(d2, "2", 3)),
        ("slice d3/3", lambda: slice_over_vertex(d3, "3", 3)),
        ("slice d3/1", lambda: slice_over_vertex(d3, "1", 3)),
        ("coslice d2 0/", lambda: slice_over_vertex(d2, "0", 3, side="under")),
        ("slice d2/12", lambda: slice_construction(d2, arrow, edge(d2, "1", "2"), "over", 2)),
        ("slice d3/02", lambda: slice_construction(d3, arrow, edge(d3, "0", "2"), "over", 2)),
        ("thick inn d2/2", lambda: thick_slice_over_vertex(d2, "2", "inn", 2)),
        ("thick inn d3/1", lambda: thick_slice_over_vertex(d3, "1", "inn", 2)),
        ("thick out d2 01/", lambda: thick_slice(d2, arrow, edge(d2, "0", "1"), "out", "under", 2)),
        ("hom d2 0 2", lambda: hom_category(d2, "0", "2", 2)),
        ("hom d3 0 2", lambda: hom_category(d3, "0", "2", 2)),
        ("fun gray_left", lambda: fun_space(arrow, d2, "gray_left", 2)),
        ("fun gray_right", lambda: fun_space(arrow, d2, "gray_right", 2)),
        ("fun cartesian", lambda: fun_space(arrow, d2, "cartesian", 2)),
    ]


def fingerprint(res) -> str:
    """sha256 of the cells, faces, decorations, levels, cell maps, projection,
    saturation flag and provenance of a SliceResult."""
    base = res.total.base
    content = (
        base.cells,
        sorted(base.faces.items()),
        sorted(res.total.marked),
        sorted(res.total.thin),
        res.levels,
        [(c, m.source.cells, m.key()) for c, m in res.cell_maps.items()],
        None if res.projection is None else sorted(res.projection.images.items()),
        res.saturated,
        res.provenance,
    )
    return hashlib.sha256(repr(content).encode()).hexdigest()


def fingerprints(order: str = "forward") -> dict[str, str]:
    pairs = constructions()
    if order == "reversed":
        pairs.reverse()
    return {name: fingerprint(build()) for name, build in pairs}


if __name__ == "__main__":
    for name, digest in fingerprints(*sys.argv[1:]).items():
        print(f"{name}\t{digest}")
