"""Content fingerprints of representable constructions whose shapes share
levels, for comparing builds across processes.

    python tests/slice_fingerprints.py [forward|reversed]

prints one line per construction, its name and the sha256 of its content, with
the constructions built in the given order in this process.
"""
import hashlib
import sys

from ssw.core import EZ, SMap, identity_map, product, simplex_map, standard_simplex, subcomplex
from ssw.decor import FLAT, SHARP, MarkedScaled, decorate, scale
from ssw.fibration import VERIFIED, empty_cone, is_var_cartesian_fibration
from ssw.ops import idop
from ssw.slices import (
    fun_coc_subcat,
    fun_space,
    hom_category,
    reindex_map,
    slice_construction,
    slice_over_vertex,
    thick_slice,
    thick_slice_over_vertex,
)
from ssw.tensor import cone, flat_ms, interval_sharp


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


def map_fingerprint(r: SMap) -> str:
    """sha256 of the images of a map."""
    return hashlib.sha256(repr(sorted(r.images.items())).encode()).hexdigest()


def cone_restrictions(cap: int = 4):
    """(name, A, B, i) for criterion 10's empty cones on the sharp interval
    (at 1 and at 0) and the sharp triangle (at 2), at every vertex x: the
    sections A over the cone and B over K in the inner coslice under x, and
    the inclusion i: K -> cone that restricts A to B."""
    for n, v in ((1, "1"), (2, "2"), (1, "0")):
        C = scale(standard_simplex(n), SHARP)
        K, g = empty_cone(C, v, "inn")
        cn = cone("inn", "left", K)
        f = cn.tj.incl_right.then(g)
        for x in sorted(C.base.level(0)):
            sl = thick_slice_over_vertex(C, x, "inn", cap, side="under")
            q, good = sl.projection, frozenset(sl.total.marked)
            A = fun_coc_subcat(cn.ms, q, sl.scaled, g, good, cap)
            B = fun_coc_subcat(K, q, sl.scaled, f, good, cap)
            yield f"cone d{n}_sharp at {v}, vertex {x}", A, B, cn.tj.incl_right


def criterion_9_right_sides(cap: int = 2):
    """(x, sections) for criterion 9's right side over each vertex x of the
    sharp triangle: the diagram is its edge 12, the fibration the inner
    coslice under x with its cocartesian edges."""
    C = scale(standard_simplex(2), SHARP)
    f = simplex_map(C.base, EZ("12", (0, 1)))
    for x in sorted(C.base.level(0)):
        under = thick_slice_over_vertex(C, x, "inn", cap=cap + 1, side="under")
        verdict, good = is_var_cartesian_fibration(under.projection, under.scaled, C, "inn", co=True, bound=3)
        assert verdict.status == VERIFIED
        yield x, fun_coc_subcat(flat_ms(1), under.projection, under.scaled, f, good, cap=cap)


def product_sections():
    """(A, B, i) for the projection Delta^1 x Delta^1 -> Delta^1 with the
    interval marked: A the sections sending its edge into the good edges (the
    horizontal ones and the vertical one over 0), B the sections over the
    vertex 1, and i the inclusion of that vertex."""
    d1 = standard_simplex(1)
    P, pr1, pr2 = product(d1, d1)
    good = frozenset(
        e for e in P.level(1) if not pr2(EZ(e, (0, 1))).is_nondeg() or pr1(EZ(e, (0, 1))) == EZ("0", (0, 0))
    )
    sub, incl = subcomplex(d1, ["1"])
    A = fun_coc_subcat(decorate(d1, SHARP, FLAT), pr1, scale(P, SHARP), identity_map(d1), good, 2)
    B = fun_coc_subcat(MarkedScaled(sub), pr1, scale(P, SHARP), incl, good, 2)
    return A, B, incl


def cone_fingerprints() -> dict[str, str]:
    """Fingerprints of the cone sections and their restriction maps, of
    criterion 9's right sides and of the product sections."""
    out = {}
    for name, A, B, incl in [*cone_restrictions(), ("product sections", *product_sections())]:
        out[f"{name}: A"], out[f"{name}: B"] = fingerprint(A), fingerprint(B)
        out[f"{name}: r"] = map_fingerprint(reindex_map(A, B, g=incl))
    for x, res in criterion_9_right_sides():
        out[f"criterion 9 right side at {x}"] = fingerprint(res)
    return out


def fingerprints(order: str = "forward") -> dict[str, str]:
    pairs = constructions()
    if order == "reversed":
        pairs.reverse()
    return {name: fingerprint(build()) for name, build in pairs}


if __name__ == "__main__":
    for name, digest in fingerprints(*sys.argv[1:]).items():
        print(f"{name}\t{digest}")
