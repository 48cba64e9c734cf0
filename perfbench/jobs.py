"""The jobs of the three in-process workloads, written against ssw's public API.

Each workload is a function that returns its jobs as ``(key, fn)`` pairs in
a canonical order; every ``fn`` takes no argument and returns a JSON value
that the harness compares with the pinned expectation of its key.  Inputs
shared by several jobs are built once per pass, inside the timed pass,
because memoisation within a pass is something a user of the library gets
too.
"""
from __future__ import annotations

from ssw.core import EZ, SMap, empty_sset, isomorphisms, product, standard_simplex
from ssw.decor import SHARP, MarkedScaled, Scaled, scale
from ssw.fibration import (
    check_limit_cone,
    classify_edge,
    is_inner_fibration,
    is_infty_bicategory,
    is_var_cartesian_fibration,
    q_complex,
)
from ssw.slices import fun_space, hom_category, slice_over_vertex, thick_slice_over_vertex
from ssw.tensor import (
    compare_r,
    cone,
    flat_ms,
    gray_marked_n,
    gray_scaled,
    interval_sharp,
    join_eq_homotopies,
    thick_join,
)


def shape(X) -> dict:
    """Simplex counts and decoration sizes of an SSet, Scaled or MarkedScaled."""
    base = getattr(X, "base", X)
    out = {"counts": list(base.counts())}
    if hasattr(X, "marked"):
        out["marked"] = len(X.marked)
    if hasattr(X, "thin"):
        out["thin"] = len(X.thin)
    return out


def verdict(v) -> dict:
    return {"status": v.status, "bound": v.bound}


def sharp(n: int) -> Scaled:
    return scale(standard_simplex(n), SHARP)


# -- suite ---------------------------------------------------------------------


def suite_jobs() -> list:
    """One job per acceptance criterion, each run through ``run_suite``."""
    from ssw.suite import CRITERIA, run_suite

    def criterion(number):
        def run():
            (result,) = run_suite([number])
            return {"ok": result.ok, "detail": result.detail}

        return run

    return [(f"criterion{number}", criterion(number)) for number, _, _ in CRITERIA]


# -- lifting -------------------------------------------------------------------


def _full_scaling(base) -> Scaled:
    return Scaled(base, frozenset(base.level(2)))


def _j_trunc3() -> Scaled:
    from ssw.catalog import j_truncated

    return _full_scaling(j_truncated(3))


def _outer_cartesian_slice():
    C = sharp(3)
    sl = slice_over_vertex(C, "3", cap=4)
    v, table = is_var_cartesian_fibration(sl.projection, sl.scaled, C, "out", bound=4)
    return {**verdict(v), "cartesian_edges": len(table)}


def _limit_cone():
    C = sharp(2)
    K = MarkedScaled(empty_sset())
    cn = cone("inn", "left", K)
    g = SMap(cn.ms.base, C.base, {cn.star: EZ("2", (0,))})
    return verdict(check_limit_cone(C, K, g, "inn", cap=3, bound=3))


def lifting_jobs() -> list:
    """Lifting verdicts that run to the end (VERIFIED) and that stop at the
    first missing filler (REFUTED), plus one INCONCLUSIVE limit cone."""
    shared = {}

    def d2_slice():
        if "d2" not in shared:
            C = sharp(2)
            shared["d2"] = (C, slice_over_vertex(C, "2", cap=4))
        return shared["d2"]

    def bicat(key, build, bound):
        return (f"bicat.{key}.b{bound}", lambda: verdict(is_infty_bicategory(build(), bound)))

    def classify(edge, flavor):
        def run():
            C, sl = d2_slice()
            return verdict(classify_edge(sl.projection, sl.scaled, C, edge, flavor, bound=4))

        return run

    def inner():
        C, sl = d2_slice()
        return verdict(is_inner_fibration(sl.projection, sl.scaled, C, bound=4))

    jobs = [
        bicat("d3_sharp", lambda: sharp(3), 5),
        bicat("j_trunc3", _j_trunc3, 3),
        bicat("q_sharp", lambda: _full_scaling(q_complex()), 4),
        bicat("d2_flat", lambda: scale(standard_simplex(2)), 2),
        ("outer_cartesian.slice_d3_sharp_3.c4.b4", _outer_cartesian_slice),
    ]
    # Listing the edges needs the slice, which the jobs below then reuse.
    _, sl = d2_slice()
    for flavor in ("cartesian", "weak", "strong"):
        for e in sl.total.base.level(1):
            jobs.append((f"classify.{flavor}.{e}", classify(EZ(e, (0, 1)), flavor)))
    jobs.append(("inner_fibration.slice_d2_sharp_2.c4.b4", inner))
    jobs.append(("limit_cone.d2_sharp_2.c3.b3", _limit_cone))
    return jobs


# -- construct -----------------------------------------------------------------


def construct_jobs() -> list:
    """Constructions only: no job reaches the lifting engine."""

    def compare():
        r = compare_r(flat_ms(2), flat_ms(2))
        return {"thick": shape(r.tj.total), "join": shape(r.join.scaled)}

    def homotopies():
        rep = join_eq_homotopies(2, 2)
        return {"ok": rep.ok, "total": shape(rep.data.cmp.tj.total), "tprime": len(rep.data.Tprime)}

    def sliced(sl):
        return {**shape(sl.total), "saturated": sl.saturated}

    def automorphisms():
        P = product(standard_simplex(2), standard_simplex(2)).sset
        return {**shape(P), "automorphisms": len(isomorphisms(P, P, first_only=False))}

    def d2():
        return scale(standard_simplex(2))

    return [
        ("gray_scaled.d2.d2", lambda: shape(gray_scaled(d2(), d2()).scaled)),
        (
            "gray_marked_n.d1_flat.d1_sharp.d1_flat",
            lambda: shape(gray_marked_n([flat_ms(1), interval_sharp(), flat_ms(1)]).scaled),
        ),
        ("thick_join.inn.d2.d2", lambda: shape(thick_join("inn", flat_ms(2), flat_ms(2)).total)),
        ("thick_join.out.d2.d2", lambda: shape(thick_join("out", flat_ms(2), flat_ms(2)).total)),
        ("compare_r.d2.d2", compare),
        ("join_eq_homotopies.2.2", homotopies),
        ("slice_over_vertex.d3_sharp.3.c5", lambda: sliced(slice_over_vertex(sharp(3), "3", cap=5))),
        (
            "coslice_inn.d3_sharp.0.c4",
            lambda: sliced(thick_slice_over_vertex(sharp(3), "0", "inn", cap=4, side="under")),
        ),
        ("hom_category.d3_sharp.0.3.c4", lambda: sliced(hom_category(sharp(3), "0", "3", cap=4))),
        (
            "fun_space.d1.d2_sharp.gray_left.c3",
            lambda: sliced(fun_space(flat_ms(1), sharp(2), "gray_left", cap=3)),
        ),
        ("automorphisms.d2xd2", automorphisms),
    ]


WORKLOADS = {"suite": suite_jobs, "lifting": lifting_jobs, "construct": construct_jobs}
