import pytest
from hypothesis import given, settings

from helpers import is_isomorphic, sharp_ms, triangle_thin
from posets import nerve, poset_nerves
from ssw.core import (
    EZ,
    SMap,
    SSet,
    SSetError,
    boundary,
    collapse,
    empty_sset,
    enumerate_maps,
    identity_map,
    simplex_map,
    standard_simplex,
)
from ssw.decor import FLAT, SHARP, MarkedScaled, Scaled, decorate, scale
from ssw.ops import clear_memos, idop
from ssw.slices import (
    SliceResult,
    fiber_ms,
    fun_coc_subcat,
    fun_space,
    hom_category,
    reindex_map,
    slice_construction,
    slice_over_marked_arrow,
    slice_over_vertex,
    thick_slice,
    thick_slice_over_vertex,
)
from ssw.tensor import flat_ms, interval_sharp, point_ms


def d1_sharp():
    return scale(standard_simplex(1), SHARP)


def d2_sharp():
    return scale(standard_simplex(2), SHARP)


# ---------------------------------------------------------------- ordinary slices


def count_simplices_ending_at(S, v, n):
    """Oracle: (n+1)-simplices of S whose last vertex is v."""
    out = []
    for pair in S.simplices(n + 1):
        if S.act(pair, (n + 1,)).core == v:
            out.append(pair)
    return len(out)


def test_slice_of_interval_over_endpoint():
    S = d1_sharp()
    sl = slice_over_vertex(S, "1", cap=3)
    # oracle: n-simplices = (n+1)-simplices of Delta^1 ending at 1
    for n in range(3):
        total_level = len(
            [c for c in sl.total.base.dim_of if sl.total.base.dim_of[c] == n]
        ) + sum(
            1
            for pair in sl.total.base.simplices(n)
            if not pair.is_nondeg()
        )
        assert total_level == count_simplices_ending_at(S.base, "1", n)
    assert is_isomorphic(sl.total.base, standard_simplex(1))
    assert sl.projection is not None


def test_slice_of_triangle_over_vertex2():
    S = d2_sharp()
    sl = slice_over_vertex(S, "2", cap=3)
    # oracle: vertices = edges of Delta^2 into 2, including the degenerate one
    assert len(sl.total.base.level(0)) == count_simplices_ending_at(S.base, "2", 0)
    assert len(sl.total.base.level(0)) == 3


def test_slice_over_empty_is_sharp():
    S = d2_sharp()
    K = MarkedScaled(empty_sset())
    f = SMap(K.base, S.base, {})
    sl = slice_construction(S, K, f, "over", cap=4)
    assert is_isomorphic(sl.total.base, S.base)
    # all edges marked: S_{/empty} = S^sharp
    assert len(sl.total.marked) == len(S.base.level(1))
    assert sl.saturated  # levels 3 and 4 are purely degenerate


def test_slice_marked_edges_cor_slice_criterion():
    """e is marked iff e|Delta^1 * {x} is thin for every vertex x of K."""
    S = d2_sharp()
    for v in ("0", "1", "2"):
        sl = slice_over_vertex(S, v, cap=2)
        mixed = sl.shape.object(1).data.mixed
        test_tri = mixed[("01", "0")]
        for e in sl.total.base.level(1):
            m = sl.cell_maps[e]
            criterion = S.is_thin(m(EZ(test_tri, idop(2))))
            assert (e in sl.total.marked) == criterion


def test_slice_under_vs_over_opposite():
    # (S_{/v})^op corresponds to (S^op)_{v/}
    S = d2_sharp()
    over = slice_over_vertex(S, "2", cap=2)
    under = slice_over_vertex(S.op(), "2", cap=2, side="under")
    assert over.total.base.counts() == under.total.base.counts()


def test_slice_adjunction_bijection():
    """|Hom(X, S_/f)| = |Hom_{K/}(X*K, S)| for small probes X."""
    from ssw.core import enumerate_maps
    from ssw.tensor import join_ms

    S = d2_sharp()
    K = point_ms()
    f = SMap(K.base, S.base, {"0": EZ("2", (0,))})
    sl = slice_construction(S, K, f, "over", cap=3)
    probes = [flat_ms(0), flat_ms(1), flat_ms(2)]
    for X in probes:
        n = X.base.dim
        # maps X -> slice: count simplices of each shape
        lhs = len(sl.total.base.simplices(n))
        jm = join_ms(X, K)
        k_incl = jm.incl2
        pins = {k_incl.images["0"].core: f.images["0"]}

        def ok(x, cand, jm=jm):
            return not (x in jm.scaled.thin and not S.is_thin(cand))

        rhs = len(enumerate_maps(jm.scaled.base, S.base, partial=pins, image_ok=ok))
        assert lhs == rhs


def test_slice_faces_commute_with_projection():
    S = d2_sharp()
    sl = slice_over_vertex(S, "2", cap=3)
    p = sl.projection
    base = sl.total.base
    for c, n in base.dim_of.items():
        if n >= 1:
            for i in range(n + 1):
                lhs = p(base.faces[c][i])
                rhs = S.base.face(p.images[c], i)
                assert lhs == rhs


# ---------------------------------------------------------------- marked-arrow slice


def test_slice_over_marked_arrow_of_interval():
    S = d1_sharp()
    sl = slice_over_marked_arrow(S, EZ("01", (0, 1)), cap=2)
    # oracle: vertices = thin triangles over e with free apex = 2-simplices of
    # Delta^1 restricting to 01 on {1,2} (all thin since S is sharp-scaled)
    d1 = S.base
    count = sum(1 for pair in d1.simplices(2) if d1.act(pair, (1, 2)) == EZ("01", (0, 1)))
    assert len(sl.total.base.level(0)) == count


def test_slice_over_degenerate_arrow():
    S = d2_sharp()
    K = interval_sharp()
    f = SMap(K.base, S.base, {"0": EZ("0", (0,)), "1": EZ("0", (0,)), "01": EZ("0", (0, 0))})
    sl = slice_construction(S, K, f, "over", cap=2)
    plain = slice_over_vertex(S, "0", cap=2)
    # same underlying simplicial data as slicing over the vertex (S is sharp)
    assert sl.total.base.counts() == plain.total.base.counts()


def test_slice_of_empty_base():
    S = Scaled(empty_sset())
    K = interval_sharp()
    with pytest.raises(Exception):
        # no map K -> empty exists; validating f fails
        SMap(K.base, S.base, {})._validate()


# ---------------------------------------------------------------- thick slices


def test_thick_slice_vertex_count_matches_slice():
    S = d1_sharp()
    thick = thick_slice_over_vertex(S, "1", "out", cap=2)
    plain = slice_over_vertex(S, "1", cap=2)
    assert len(thick.total.base.level(0)) == len(plain.total.base.level(0))


def test_thick_slice_fiber_is_hom():
    """The fiber of C^{x/}_inn at y is Hom_C(x, y), simplexwise."""
    C = d2_sharp()
    for x, y in [("0", "2"), ("0", "1")]:
        under = thick_slice_over_vertex(C, x, "inn", cap=2, side="under")
        fib, _ = fiber_ms(under.total, under.projection, y)
        hom = hom_category(C, x, y, cap=2)
        assert fib.base.counts() == hom.total.base.counts()
        assert len(fib.marked) == len(hom.total.marked)


def test_slices_reject_an_unknown_side():
    C = d2_sharp()
    for side in ("left", "Under", ""):
        with pytest.raises(SSetError, match="side must be 'over' or 'under'"):
            slice_over_vertex(C, "0", 2, side)
        for variance in ("inn", "out"):
            with pytest.raises(SSetError, match="side must be 'over' or 'under'"):
                thick_slice_over_vertex(C, "0", variance, 2, side)


def test_slices_reject_a_diagram_that_is_not_scaled():
    """K = Delta^2 with 012 thin, S = flat Delta^2, f = id: f does not send the
    thin triangle to a thin one, so neither slice of S over f exists."""
    d2 = standard_simplex(2)
    K, S, f = MarkedScaled(d2, frozenset(), frozenset({"012"})), Scaled(d2), identity_map(d2)
    with pytest.raises(SSetError, match="slice diagram is not a scaled map"):
        slice_construction(S, K, f, "over", 2)
    for variance in ("inn", "out"):
        for side in ("over", "under"):
            with pytest.raises(SSetError, match="slice diagram is not a scaled map"):
                thick_slice(S, K, f, variance, side, 2)


def test_thick_slice_over_empty():
    S = d2_sharp()
    K = MarkedScaled(empty_sset())
    f = SMap(K.base, S.base, {})
    sl = thick_slice(S, K, f, "out", "over", cap=2)
    assert is_isomorphic(sl.total.base, S.base)
    assert len(sl.total.marked) == len(S.base.level(1))


# ---------------------------------------------------------------- dimension bounds


def boundary_quotient(n):
    """Delta^n with its boundary collapsed to a point, every triangle thin."""
    d = standard_simplex(n)
    return scale(collapse(d, [c for c, k in d.dim_of.items() if k < n]).sset, SHARP)


def bound_objects():
    """Each base of the catalog (q_sharp and q_marked share q's, j_trunc3 is
    its own) and Delta^n/boundary for n = 2, 3, 4, every triangle thin: the
    maps that meet a level's thin filter under any scaling of a base are among
    those that meet it under this one."""
    from ssw.catalog import catalog

    objects = {}
    for name, X in catalog(check_goldens=False).items():
        if all(X.base != S.base for S in objects.values()):
            objects[name] = scale(X.base, SHARP)
    for n in (2, 3, 4):
        objects[f"d{n}/boundary"] = boundary_quotient(n)
    return objects


BOUND_OBJECTS = bound_objects()


def bounded_shapes(S):
    """The slices of S over nothing, its last vertex, its last edge and the
    two ends of that edge, on both sides, and the thick slices over the last
    vertex in both variances and on both sides: those with a bound."""
    from ssw.slices import JoinShape, ThickShape

    empty = MarkedScaled(empty_sset())
    diagrams = [(empty, SMap(empty.base, S.base, {}))]
    thick = []
    if S.base.level(0):
        vertex = simplex_map(S.base, EZ(S.base.level(0)[-1], (0,)))
        diagrams.append((point_ms(), vertex))
        thick.append(vertex)
        edge = simplex_map(S.base, S.base.simplices(1)[-1])
        ends = MarkedScaled(boundary(1))
        diagrams += [(interval_sharp(), edge), (ends, SMap(ends.base, S.base, {v: edge.images[v] for v in "01"}))]
    shapes = []
    for side in ("over", "under"):
        shapes += [JoinShape(K, f, side) for K, f in diagrams]
        shapes += [ThickShape(point_ms(), f, v, side) for f in thick for v in ("inn", "out")]
    return [shape for shape in shapes if shape.dim_bound(S) is not None]


def degenerate_maps_above_the_bound(shape, S):
    """Every map F(dim S + 1) -> S that meets the level's pins and thin filter,
    listed by enumerate_maps, after checking that each equals its pullback
    along F(delta_j sigma_j) for some j, and so is s_j of its face d_j."""
    from ssw.ops import compose, degeneracy_op, face_op

    n = shape.dim_bound(S) + 1
    F, pins, _ = shape.object(n)
    maps = enumerate_maps(F.base, S.base, partial=pins, image_ok=lambda x, c: x not in F.thin or S.is_thin(c))
    folds = [shape.induced(compose(face_op(n, j), degeneracy_op(n - 1, j)), n, n) for j in range(n)]
    for m in maps:
        assert any(all(m(p) == m.images[x] for x, p in fold.images.items()) for fold in folds), m.images
    return maps


@pytest.mark.parametrize("name", sorted(BOUND_OBJECTS))
def test_every_map_above_the_bound_is_degenerate(name):
    S = BOUND_OBJECTS[name]
    shapes = bounded_shapes(S)
    assert len(shapes) >= 4  # over nothing and the vertex, on both sides, at least
    assert sum(len(degenerate_maps_above_the_bound(shape, S)) for shape in shapes) > 0


@given(poset_nerves())
@settings(max_examples=10, deadline=None)
def test_every_map_above_the_bound_is_degenerate_on_poset_nerves(N):
    """Nerves have nondegenerate faces: every shape above has a bound."""
    S = scale(N, SHARP)
    shapes = bounded_shapes(S)
    assert len(shapes) == (12 if N.level(0) else 2)
    for shape in shapes:
        degenerate_maps_above_the_bound(shape, S)


def test_thick_slices_of_quotients_keep_their_cells_above_dim_S():
    """Without nondegenerate faces a thick slice over a point has no bound:
    over a vertex, Q with every triangle thin has 4-simplices and the sharp
    Delta^2/boundary 3-simplices."""
    from ssw.catalog import catalog

    Q = catalog(check_goldens=False)["q_sharp"].scaled()
    sl = thick_slice_over_vertex(Q, "0", "inn", cap=4)
    assert (sl.shape.dim_bound(Q), sl.total.base.counts()) == (None, (4, 10, 13, 8, 2))
    for variance, side in (("inn", "over"), ("out", "under")):
        sl = thick_slice_over_vertex(boundary_quotient(2), "0", variance, cap=3, side=side)
        assert sl.total.base.counts() == (1, 3, 5, 2)
    # and no 4-simplex: level 4 searches maps from a thick join with 161 cells,
    # most with two candidates, which ends quickly only if dead branches are cut at once
    assert thick_slice_over_vertex(boundary_quotient(2), "0", "inn", cap=4).total.base.counts() == (1, 3, 5, 2)


def test_the_slice_of_the_sharp_4_sphere_reaches_its_bound():
    """Delta^4/boundary over its vertex has a 4-simplex: at caps 4, 5 and 6
    the counts are (1, 0, 0, 1, 1), and the levels end at 4."""
    S = boundary_quotient(4)
    for cap in (4, 5, 6):
        sl = slice_over_vertex(S, "0", cap)
        assert (sl.total.base.counts(), len(sl.levels)) == ((1, 0, 0, 1, 1), 5)


def test_a_cap_past_the_bound_costs_no_level(monkeypatch):
    """ssw slice d2_sharp 2 prints at cap 11 what it prints at cap 4, apart from
    the provenance line, and builds the levels F(0), F(1), F(2) only."""
    import ssw.slices
    from ssw.cli import run_command

    built = []
    build = ssw.slices.Shape.build
    clear_memos()  # no level memo, so every level is built here
    monkeypatch.setattr(ssw.slices.Shape, "build", lambda self, n: built.append(n) or build(self, n))
    status, out = run_command(["slice", "d2_sharp", "2", "--cap", "11"])
    assert (status, out.replace("cap 11", "cap 4")) == run_command(["slice", "d2_sharp", "2", "--cap", "4"])
    assert out.splitlines()[0] == "provenance: slice /f (ordinary join), cap 11"
    assert built == [0, 1, 2]


def test_a_huge_cap_past_the_bound_holds_no_level_past_it():
    """A cap far past the proven bound allocates and trims no level past it:
    at cap 10**6 the slice of d2_sharp over 2 has the cells of the cap-3
    slice, and is saturated."""
    huge, small = slice_over_vertex(d2_sharp(), "2", cap=10**6), slice_over_vertex(d2_sharp(), "2", cap=3)
    assert huge.total == small.total and huge.total.base.counts() == (3, 3, 1)
    assert (huge.saturated, small.saturated) == (True, False)


@pytest.mark.parametrize("name", ["d2_sharp", "d3_sharp"])
def test_the_bound_changes_nothing_but_the_levels(name, monkeypatch):
    """Slices and thick slices built with their bound equal those built
    without it up to dim S + 1, apart from the levels past the bound."""
    from ssw.catalog import catalog
    from ssw.slices import JoinShape, ThickShape

    S = catalog(check_goldens=False)[name].scaled()
    v = S.base.level(0)[-1]
    cap = S.base.dim + 1
    builds = [lambda: slice_over_vertex(S, v, cap), lambda: slice_over_vertex(S, v, cap, "under")]
    builds += [lambda: thick_slice_over_vertex(S, v, "out", cap), lambda: thick_slice_over_vertex(S, v, "inn", cap)]
    bounded = [build() for build in builds]
    for shape in (JoinShape, ThickShape):
        monkeypatch.setattr(shape, "dim_bound", lambda self, S: None)
    for sl, build in zip(bounded, builds):
        free = build()
        assert (len(sl.levels), len(free.levels)) == (S.base.dim + 1, cap + 1)
        assert sl._replace(levels=None, shape=None) == free._replace(levels=None, shape=None)
        assert sl.levels == free.levels[: len(sl.levels)]


def representable_builds(S, cap):
    """Results of the level engine on S at this cap: the slices over the last
    vertex and the last edge on both sides, the thick slices over the last
    vertex in both variances on both sides and the hom from the first vertex
    to the last (when S has a vertex), and the Gray and cartesian functor
    spaces from the flat interval."""
    builds = [fun_space(flat_ms(1), S, kind, cap) for kind in ("gray_left", "gray_right", "cartesian")]
    if not S.base.level(0):
        return builds
    first, last = S.base.level(0)[0], S.base.level(0)[-1]
    edge = simplex_map(S.base, S.base.simplices(1)[-1])
    for side in ("over", "under"):
        builds.append(slice_over_vertex(S, last, cap, side))
        builds.append(slice_construction(S, interval_sharp(), edge, side, cap))
        builds += [thick_slice_over_vertex(S, last, variance, cap, side) for variance in ("inn", "out")]
    return builds + [hom_category(S, first, last, cap)]


def assert_degeneracies_come_from_below(sl, S):
    """The derivation of the degenerate level maps from the level below, as
    an oracle for the levels read by level_simplex: for every map m of a
    level n - 1 below the top computed level, s_i m = m.F(sigma_i) is a key of
    level n, and its normal form is s_i of the normal form of m."""
    from ssw.ops import degeneracy_op

    for n in range(1, len(sl.levels)):
        source = sl.shape.object(n - 1).scaled.base
        for key, ez in sl.levels[n - 1].items():
            m = SMap(source, S.base, dict(key))
            for i in range(n):
                sigma = degeneracy_op(n - 1, i)
                deg = sl.shape.induced(sigma, n, n - 1).then(m).key()
                assert deg in sl.levels[n], (sl.provenance, n, i, key)
                assert sl.levels[n][deg] == sl.total.base.act(ez, sigma), (sl.provenance, n, i, key)


@pytest.mark.parametrize("name", sorted(BOUND_OBJECTS))
def test_degenerate_level_maps_come_from_below(name):
    S = BOUND_OBJECTS[name]
    for sl in representable_builds(S, 2):
        assert_degeneracies_come_from_below(sl, S)


@given(poset_nerves())
@settings(max_examples=10, deadline=None)
def test_degenerate_level_maps_come_from_below_on_poset_nerves(N):
    S = scale(N, SHARP)
    for sl in representable_builds(S, 2):
        assert_degeneracies_come_from_below(sl, S)


def test_degenerate_level_maps_of_sections_come_from_below():
    """The sections of the product fibration Delta^1 x Delta^2 -> Delta^1, up
    to level 3: the nerve of the arrows a <= b of [2], ordered pointwise."""
    from ssw.core import product

    d1 = standard_simplex(1)
    P, pr1, _ = product(d1, standard_simplex(2))
    S = scale(P, SHARP)
    sl = fun_coc_subcat(MarkedScaled(d1), pr1, S, identity_map(d1), frozenset(P.level(1)), 3)
    arrows = [(a, b) for a in range(3) for b in range(a, 3)]
    less = {(i, j) for i, x in enumerate(arrows) for j, y in enumerate(arrows) if x != y and x[0] <= y[0] and x[1] <= y[1]}
    assert sl.total.base.counts() == nerve(len(arrows), less).counts()[:4] == (6, 14, 16, 9)
    assert_degeneracies_come_from_below(sl, S)


@pytest.mark.parametrize("degenerate", [False, True], ids=["nondegenerate", "degenerate"])
@pytest.mark.parametrize("build", [
    lambda: slice_over_vertex(d2_sharp(), "2", 2),
    lambda: fun_space(flat_ms(1), d2_sharp(), "cartesian", 2),
], ids=["slice", "cartesian"])
def test_a_map_missing_below_the_top_level_leaves_a_face_missing(build, degenerate, monkeypatch):
    """Levels need no degenerate maps listed ahead of time: a map m dropped
    from the enumeration of the level below the top, degenerate or not,
    leaves s_0 m with its face d_0 m missing."""
    import ssw.slices

    below = build().levels[-2]
    dropped = next(key for key, ez in below.items() if ez.is_nondeg() != degenerate)
    listed = ssw.slices.enumerate_maps
    monkeypatch.setattr(ssw.slices, "enumerate_maps", lambda *a, **k: [m for m in listed(*a, **k) if m.key() != dropped])
    with pytest.raises(SSetError, match="face of a representable simplex is missing"):
        build()


MISSING_VERTEX_BUILDS = {
    "slice_over_vertex": lambda S, v: slice_over_vertex(S, v, 2),
    "thick_slice_over_vertex": lambda S, v: thick_slice_over_vertex(S, v, "inn", 2),
    "hom_category from": lambda S, v: hom_category(S, v, "0", 2),
    "hom_category to": lambda S, v: hom_category(S, "0", v, 2),
}


@pytest.mark.parametrize("name", sorted(MISSING_VERTEX_BUILDS))
def test_constructions_over_a_vertex_name_a_missing_vertex(name):
    """A name that is no cell, and the name of an edge, are no vertex."""
    for v in ("9", "01"):
        with pytest.raises(SSetError, match=f"^no vertex '{v}'$"):
            MISSING_VERTEX_BUILDS[name](d2_sharp(), v)


# ---------------------------------------------------------------- hom categories


def test_hom_of_interval():
    S = d1_sharp()
    hom = hom_category(S, "0", "1", cap=3)
    assert hom.total.base.counts() == (1,)
    assert hom.saturated


def hom_vertices_oracle(C, x, y):
    """Oracle: vertices of Hom_C(x,y) are the edges of C from x to y."""
    return [
        pair
        for pair in C.base.simplices(1)
        if C.base.act(pair, (0,)).core == x and C.base.act(pair, (1,)).core == y
    ]


def hom_edges_oracle(C, x, y):
    """Oracle: edges of Hom_C(x,y) are maps Delta^1 x Delta^1 -> C, constant
    on the ends, with the staircase triangles thin."""
    from ssw.core import pair_cell, product
    from ssw.tensor import simplex_from_word

    P, pr1, pr2 = product(standard_simplex(1), standard_simplex(1))
    # the only staircase triangle with distinct vertices: ((0,0),(0,1),(1,1))

    stair = pair_cell(P, simplex_from_word([0, 0, 1]), simplex_from_word([0, 1, 1]))
    out = []
    for m in enumerate_maps(P, C.base):
        const_ok = True
        for c, nd in P.dim_of.items():
            second = pr2.images[c]
            if second.core == "0" and C.base.dim_of[m.images[c].core] != 0:
                const_ok = False
            if second.core == "1" and C.base.dim_of[m.images[c].core] != 0:
                const_ok = False
        ends_ok = (
            m(pair_cell(P, EZ("01", (0, 1)), EZ("0", (0, 0)))) == EZ(x, (0, 0))
            and m(pair_cell(P, EZ("01", (0, 1)), EZ("1", (0, 0)))) == EZ(y, (0, 0))
        )
        if not ends_ok:
            continue
        if not C.is_thin(m(stair)):
            continue
        out.append(m)
    return out


def test_hom_of_sharp_triangle_counts():
    C = d2_sharp()
    hom = hom_category(C, "0", "2", cap=2)
    assert len(hom.total.base.level(0)) == len(hom_vertices_oracle(C, "0", "2"))
    assert len(hom.total.base.level(0)) == 1
    # edges: all square maps, minus degeneracies of the single vertex
    edges = hom_edges_oracle(C, "0", "2")
    nondeg_edges = len(edges) - 1
    assert len(hom.total.base.level(1)) == nondeg_edges


def test_hom_identity_vertex():
    for C in (d1_sharp(), d2_sharp()):
        for x in C.base.level(0):
            hom = hom_category(C, x, x, cap=1)
            assert len(hom.total.base.level(0)) >= 1


def test_hom_empty_when_no_arrows():
    C = d1_sharp()
    hom = hom_category(C, "1", "0", cap=2)
    assert hom.total.base.counts() == ()


# ---------------------------------------------------------------- fibers


def test_fiber_of_product_projection():
    from ssw.core import product

    d1, d2 = standard_simplex(1), standard_simplex(2)
    P, pr1, pr2 = product(d2, d1)
    X = MarkedScaled(P)
    fib, _ = fiber_ms(X, pr2, "0")
    assert is_isomorphic(fib.base, d2)


# ---------------------------------------------------------------- functor spaces


def test_fun_space_point_is_identity():
    X = d2_sharp()
    for kind in ("cartesian", "gray_left", "gray_right"):
        fs = fun_space(decorate(standard_simplex(0), SHARP, SHARP), X, kind, cap=2)
        assert fs.total.base.counts() == X.base.counts()
        assert len(fs.total.thin) == len(X.thin)


def test_fun_space_rejects_an_unknown_product_kind():
    with pytest.raises(SSetError, match="product_kind must be 'cartesian', 'gray_left' or 'gray_right'"):
        fun_space(flat_ms(1), d1_sharp(), "gray", cap=1)


def test_shape_upgrade_rejects_an_unknown_decoration():
    shape = fun_space(flat_ms(1), d1_sharp(), "cartesian", cap=1).shape
    with pytest.raises(SSetError, match="which must be 'marked' or 'thin'"):
        shape.upgrade("scaled")


def test_fun_space_interval_into_interval():
    """Fun(flat Delta^1, sharp Delta^1): nerve of monotone maps square."""
    fs = fun_space(flat_ms(1), d1_sharp(), "cartesian", cap=2)
    # oracle: vertices = monotone maps [1] -> [1] (3 of them)
    assert len(fs.total.base.level(0)) == 3


def test_fun_space_gray_left_vs_right_marked_K():
    """With every K-edge marked both Gray functor spaces agree levelwise."""
    K = decorate(standard_simplex(1), SHARP, FLAT)
    X = d2_sharp()
    left = fun_space(K, X, "gray_left", cap=2)
    right = fun_space(K, X, "gray_right", cap=2)
    assert left.total.base.counts() == right.total.base.counts()
    assert len(left.total.thin) == len(right.total.thin)


# ---------------------------------------------------------------- fun_coc_subcat


def test_fun_coc_point_recovers_fiber():
    C = d2_sharp()
    under = thick_slice_over_vertex(C, "0", "inn", cap=2, side="under")
    q = under.projection
    K = point_ms()
    f = SMap(K.base, C.base, {"0": EZ("2", (0,))})
    res = fun_coc_subcat(K, q, under.scaled, f, frozenset(under.total.marked), cap=2)
    fib, _ = fiber_ms(under.total, q, "2")
    assert res.total.base.counts() == fib.base.counts()
    # the pointwise marking convention restricts to the slice marking on fibers
    assert len(res.total.marked) == len(fib.marked)


def test_fun_coc_identity_everything_qualifies():
    C = d1_sharp()
    from ssw.core import identity_map

    p = identity_map(C.base)
    K = decorate(standard_simplex(1), SHARP, FLAT)
    f = identity_map(C.base)
    # for the identity fibration every edge is cocartesian
    res = fun_coc_subcat(K, p, C, f, frozenset(C.base.level(1)), cap=2)
    res_all = fun_coc_subcat(K, p, C, f, frozenset(C.base.level(1)), cap=2)
    assert res.total.base.counts() == res_all.total.base.counts()
    assert len(res.total.base.level(0)) == 1  # only the identity section


def test_restriction_map_between_fun_objects():
    """Restriction along K -> K^cone via precomposition lands in the levels."""
    from ssw.core import product as core_product, pair_cell

    C = d1_sharp()
    under = thick_slice_over_vertex(C, "0", "inn", cap=2, side="under")
    q = under.projection
    K = MarkedScaled(empty_sset())
    from ssw.tensor import cone

    cn = cone("inn", "left", K)
    # K-cone on empty = point mapped to 1 in C
    f_cone = SMap(cn.ms.base, C.base, {cn.star: EZ("1", (0,))})
    f_empty = SMap(K.base, C.base, {})
    A = fun_coc_subcat(cn.ms, q, under.scaled, f_cone, frozenset(under.total.marked), cap=2)
    B = fun_coc_subcat(K, q, under.scaled, f_empty, frozenset(under.total.marked), cap=2)
    # B is built on the empty K: its levels are single points
    assert len(B.total.base.level(0)) == 1
    assert len(A.total.base.level(0)) == len(
        [c for c in fiber_ms(under.total, q, "1")[0].base.level(0)]
    )


def test_slice_adjunction_with_marked_probe():
    """|Hom(sharp interval, S_/f)| counts marked edges plus degenerate ones."""
    from ssw.core import enumerate_maps
    from ssw.tensor import interval_sharp, join_ms

    S = d2_sharp()
    f = SMap(standard_simplex(0), S.base, {"0": EZ("2", (0,))})
    sl = slice_over_vertex(S, "2", cap=3)
    # maps from the sharp interval into the slice = marked edges + degenerate
    lhs = len(sl.total.marked) + len(
        [p for p in sl.total.base.simplices(1) if not p.is_nondeg()]
    )
    jm = join_ms(interval_sharp(), point_ms())
    k_cell = jm.incl2.images["0"].core
    pins = {k_cell: f.images["0"]}

    def ok(x, cand, jm=jm):
        return not (x in jm.scaled.thin and not S.is_thin(cand))

    rhs = len(enumerate_maps(jm.scaled.base, S.base, partial=pins, image_ok=ok))
    assert lhs == rhs


def test_slice_adjunction_with_thin_probe():
    """|Hom(sharp-scaled triangle, S_/f)| counts thin 2-simplices plus the
    degenerate ones."""
    from ssw.core import enumerate_maps
    from ssw.tensor import join_ms

    S = d2_sharp()
    f = SMap(standard_simplex(0), S.base, {"0": EZ("2", (0,))})
    sl = slice_over_vertex(S, "2", cap=3)
    lhs = len(sl.total.thin) + len(
        [p for p in sl.total.base.simplices(2) if not p.is_nondeg()]
    )
    jm = join_ms(triangle_thin(), point_ms())
    k_cell = jm.incl2.images["0"].core
    pins = {k_cell: f.images["0"]}

    def ok(x, cand, jm=jm):
        return not (x in jm.scaled.thin and not S.is_thin(cand))

    rhs = len(enumerate_maps(jm.scaled.base, S.base, partial=pins, image_ok=ok))
    assert lhs == rhs


# ---------------------------------------------------------------- functoriality of the shapes


def shapes_on_two_small_K():
    """Every representable shape, each on two small K (hom: two vertex pairs)."""
    S = d2_sharp()
    pt, arrow = point_ms(), interval_sharp()
    edge = {"0": EZ("0", (0,)), "1": EZ("2", (0,)), "01": EZ("02", (0, 1))}
    diagrams = [
        (pt, SMap(pt.base, S.base, {"0": EZ("1", (0,))})),
        (arrow, SMap(arrow.base, S.base, edge)),
    ]
    shapes = []
    for K, f in diagrams:
        for side in ("over", "under"):
            shapes.append((f"join {side} K{K.base.dim}", slice_construction(S, K, f, side, 0).shape))
            for variance in ("inn", "out"):
                sl = thick_slice(S, K, f, variance, side, 0)
                shapes.append((f"thick {variance} {side} K{K.base.dim}", sl.shape))
        for kind in ("gray_left", "gray_right", "cartesian"):
            shapes.append((f"{kind} K{K.base.dim}", fun_space(K, S, kind, 0).shape))
    for x, y in (("0", "2"), ("1", "1")):
        shapes.append((f"hom {x} {y}", hom_category(S, x, y, 0).shape))
    return shapes


SHAPES = shapes_on_two_small_K()


@pytest.mark.parametrize("name,shape", SHAPES, ids=[name for name, _ in SHAPES])
def test_shape_reindexing_is_functorial(name, shape):
    """F(id) = id and F(a o b) = F(b) then F(a), over faces and degeneracies, m, n <= 3."""
    from ssw.core import identity_map
    from ssw.ops import compose, degeneracy_op, face_op

    for n in range(4):
        ident = shape.induced(idop(n), n, n)
        assert ident == identity_map(ident.source), (name, n)
    gens = [(face_op(n, i), n - 1, n) for n in range(1, 4) for i in range(n + 1)]
    gens += [(degeneracy_op(n, i), n + 1, n) for n in range(3) for i in range(n + 1)]
    induced = {(alpha, m, n): shape.induced(alpha, m, n) for alpha, m, n in gens}
    for b, m, k in gens:
        for a, k2, n in gens:
            if k2 == k:
                expected = induced[(b, m, k)].then(induced[(a, k, n)])
                assert shape.induced(compose(a, b), m, n) == expected, (name, a, b)


def test_maps_of_identities_are_identities():
    from ssw.core import identity_map, join_map, join_sset, multi_product, product_map
    from ssw.tensor import join_ms, thick_join, thick_join_map

    d1, d2 = standard_simplex(1), standard_simplex(2)
    for factors in ([d1, d2], [d2, d1, d1]):
        mp = multi_product(factors)
        ids = tuple(identity_map(F) for F in factors)
        assert product_map(mp, mp, ids) == identity_map(mp.sset)
    J = join_sset(d1, d2)
    assert join_map(J, J, identity_map(d1), identity_map(d2)) == identity_map(J.sset)
    jm = join_ms(interval_sharp(), flat_ms(2))
    assert join_map(jm, jm, identity_map(d1), identity_map(d2)) == identity_map(jm.scaled.base)
    for variance in ("inn", "out"):
        tj = thick_join(variance, interval_sharp(), flat_ms(2))
        ident = thick_join_map(tj, tj, identity_map(d1), identity_map(d2))
        assert ident == identity_map(tj.total.base)


def test_hom_marks_the_edges_whose_lower_staircase_is_thin():
    """An edge of Hom_C(x, y) is marked iff its map Delta^1 x Delta^1 -> C sends
    the triangle (0,0)(1,0)(1,1) to a thin triangle; on Q with every scaling."""
    import itertools

    from ssw.core import pair_cell, q_complex
    from ssw.tensor import simplex_from_word

    Q = q_complex()
    lower = (simplex_from_word([0, 1, 1]), simplex_from_word([0, 0, 1]))
    seen = set()
    for r in range(len(Q.level(2)) + 1):
        for thin in itertools.combinations(Q.level(2), r):
            C = Scaled(Q, frozenset(thin))
            for x, y in itertools.product(Q.level(0), repeat=2):
                hom = hom_category(C, x, y, cap=2)
                for e in hom.total.base.level(1):
                    m = hom.cell_maps[e]
                    marked = C.is_thin(m(pair_cell(m.source, *lower)))
                    assert (e in hom.total.marked) == marked, (thin, x, y, e)
                    seen.add(marked)
    assert seen == {True, False}


@pytest.mark.parametrize("kind", ["gray_left", "gray_right"])
def test_gray_functor_space_thin_triangles_follow_the_sharp_triangle(kind):
    """A triangle of Fun^gr(K, X) is thin iff its map is scaled on the Gray
    product of K with Delta^2 marked and scaled sharp."""
    from ssw.decor import is_scaled_map
    from ssw.tensor import gray_marked_n

    X = scale(standard_simplex(2))
    seen = set()
    for K in (flat_ms(1), interval_sharp()):
        fun = fun_space(K, X, kind, cap=2)
        factors = [sharp_ms(2), K] if kind == "gray_left" else [K, sharp_ms(2)]
        probe = gray_marked_n(factors).scaled
        for t in fun.total.base.level(2):
            m = fun.cell_maps[t]
            assert m.source == probe.base
            thin = is_scaled_map(m, probe, X)
            assert (t in fun.total.thin) == thin, (K, t)
            seen.add(thin)
    assert seen == {True, False}


# ---------------------------------------------------------------- the shared level memo


def marked_interval(prefix="m"):
    """A marked interval on cells prefix0, prefix1, prefix01, built anew on each call."""
    from ssw.core import SSet

    v0, v1, e = prefix + "0", prefix + "1", prefix + "01"
    base = SSet([[v0, v1], [e]], {e: (EZ(v1, (0,)), EZ(v0, (0,)))})
    return MarkedScaled(base, frozenset({e}))


def interval_diagram(K, S, a, b):
    """The diagram K -> S of the edge ab, for K a marked_interval."""
    (v0, v1), (e,) = K.base.cells
    images = {v0: EZ(a, (0,)), v1: EZ(b, (0,)), e: EZ(a + b, idop(1))}
    return SMap(K.base, S.base, images)


def memo_shapes(K):
    """One shape of each class and parameter value on K (hom: its own K)."""
    from ssw.slices import CartesianShape, GrayShape, HomShape, JoinShape, ThickShape

    f = interval_diagram(K, d2_sharp(), "0", "2")
    shapes = {}
    for side in ("over", "under"):
        shapes[f"join {side}"] = JoinShape(K, f, side)
        for variance in ("inn", "out"):
            shapes[f"thick {variance} {side}"] = ThickShape(K, f, variance, side)
    for side in ("left", "right"):
        shapes[f"gray {side}"] = GrayShape(K, side)
    for scaling in (FLAT, SHARP):
        shapes[f"cartesian {scaling}"] = CartesianShape(K, scaling)
    for x, y in (("0", "2"), ("0", "1"), ("1", "2")):
        shapes[f"hom {x} {y}"] = HomShape(x, y)
    return shapes


def memo_generators():
    from ssw.ops import degeneracy_op, face_op

    gens = [(face_op(n, i), n - 1, n) for n in (1, 2) for i in range(n + 1)]
    return gens + [(degeneracy_op(n, i), n + 1, n) for n in (0, 1) for i in range(n + 1)]


def test_equal_K_share_levels_maps_and_upgrades(monkeypatch):
    """Two content-equal but distinct K give the same F(n), F(alpha) and
    upgrades, and the second shape builds no construction."""
    import ssw.slices

    # cell names no other test uses, so the first shapes build everything
    first, second = marked_interval("fresh"), marked_interval("fresh")
    assert first == second and first is not second
    built = []

    def counting(name, original):
        def build(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)

        return build

    constructions = ("join_ms", "thick_join", "multi_product", "gray_marked_n")
    for name in constructions:
        monkeypatch.setattr(ssw.slices, name, counting(name, getattr(ssw.slices, name)))
    old, new = memo_shapes(first), memo_shapes(second)
    for shape in old.values():
        for n in range(3):
            shape.object(n)
        for alpha, m, n in memo_generators():
            shape.induced(alpha, m, n)
        for which in ("marked", "thin"):
            shape.upgrade(which)
    assert set(built) == set(constructions)
    built.clear()
    for name, shape in new.items():
        was = old[name]
        for n in range(3):
            assert shape.object(n).scaled is was.object(n).scaled, (name, n)
            assert shape.object(n).data is was.object(n).data, (name, n)
        for alpha, m, n in memo_generators():
            assert shape.induced(alpha, m, n) is was.induced(alpha, m, n), (name, alpha)
        for which in ("marked", "thin"):
            assert shape.upgrade(which) is was.upgrade(which), (name, which)
    assert built == []


def level_content(shape, n):
    level = shape.object(n)
    base = level.scaled.base
    return (base.cells, base.faces, level.scaled.thin, level.pins, shape.project_cell(n))


@pytest.mark.parametrize(
    "a,b",
    [
        ("join over", "join under"),
        ("thick inn over", "thick out over"),
        ("thick out over", "thick out under"),
        ("gray left", "gray right"),
        ("cartesian flat", "cartesian sharp"),
        ("hom 0 2", "hom 0 1"),
        ("hom 0 2", "hom 1 2"),
    ],
)
def test_each_key_parameter_gives_its_own_levels(a, b):
    """Shapes that differ in one parameter (side, variance, delta scaling,
    Gray side, x or y) keep separate levels, and the levels differ.  Their
    constructions may be one object where their content is one (the product
    of the cartesian and hom shapes), so the levels are told apart by their
    scaled objects."""
    shapes = memo_shapes(marked_interval())
    one, other = shapes[a], shapes[b]
    for n in range(3):
        assert one.object(n).scaled is not other.object(n).scaled, n
    assert any(level_content(one, n) != level_content(other, n) for n in range(3))


def test_a_K_with_another_dim_cap_keeps_its_own_levels():
    """SSet equality ignores dim_cap, but a thick join shows its factors' caps:
    the levels over a point with dim_cap 9 are not handed to a shape over the
    point with dim_cap 6, whose levels read as if built from an empty registry."""
    d0 = standard_simplex(0)
    S = d2_sharp()
    f = simplex_map(S.base, EZ("2", (0,)))
    wide = thick_slice(S, MarkedScaled(SSet(d0.cells, d0.faces, dim_cap=9)), f, "out", "over", 2)
    plain = thick_slice(S, MarkedScaled(d0), f, "out", "over", 2)
    assert [sl.shape.object(1).scaled.base.dim_cap for sl in (wide, plain)] == [9, 6]
    clear_memos()
    assert thick_slice(S, MarkedScaled(d0), f, "out", "over", 2).shape.object(1) == plain.shape.object(1)


def test_diagrams_on_one_K_keep_their_own_pins():
    """Two diagrams f on one K share F(n) but not its pins, and their slices
    have the cells over their own diagrams."""
    from ssw.slices import JoinShape, ThickShape

    S = d2_sharp()
    K = marked_interval()
    f, g = interval_diagram(K, S, "0", "1"), interval_diagram(K, S, "1", "2")
    for make in (lambda d: JoinShape(K, d, "over"), lambda d: ThickShape(K, d, "out", "under")):
        for n in range(3):
            level_f, level_g = make(f).object(n), make(g).object(n)
            assert level_f.data is level_g.data
            assert level_f.pins.keys() == level_g.pins.keys()
            assert sorted(level_f.pins.values()) == sorted(f.images.values())
            assert sorted(level_g.pins.values()) == sorted(g.images.values())
    # oracle: the vertices of the slice over the edge ab are the triangles vab
    for d, below in ((f, ["0"]), (g, ["0", "1"])):
        sl = slice_construction(S, K, d, "over", 2)
        assert sorted(sl.projection(EZ(v, (0,))).core for v in sl.total.base.level(0)) == below
        for c, m in sl.cell_maps.items():
            pins = sl.shape.object(sl.total.base.dim_of[c]).pins
            assert {x: m.images[x] for x in pins} == pins


def test_warm_builds_match_fresh_processes():
    """Slices, thick slices, homs and functor spaces built in this process
    after others have filled the memo, in two orders, equal the same builds
    in two fresh interpreters, one per order."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from slice_fingerprints import fingerprints

    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    fresh = {}
    for order in ("forward", "reversed"):
        out = subprocess.run(
            [sys.executable, str(tests / "slice_fingerprints.py"), order],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        fresh[order] = dict(line.split("\t") for line in out.splitlines())
    assert fresh["forward"] == fresh["reversed"]
    assert len(fresh["forward"]) == 14
    for order in ("forward", "reversed", "forward"):
        assert fingerprints(order) == fresh["forward"], order


# ---------------------------------------------------------------- pinned fingerprints and reindexing

# sha256 of the 14 constructions of tests/slice_fingerprints.py, of criterion
# 10's cone sections and restriction maps at cap 4, of the product sections
# (the only ones here whose good-edge filter and marking drop something) and
# of criterion 9's right sides, taken before shapes carried their own
# decorations and filters and before reindex_map took maps instead of closures.
# "slice d2/2" and "coslice d2 0/" were re-pinned when the engine stopped at
# the shape's dimension bound: their levels end at 2, below the cap 3.  Their
# digests equal those of the unbounded builds with ``levels`` cut to
# min(cap, dim S) + 1 entries; every other content is unchanged.
PINNED_FINGERPRINTS = {
    "slice d2/2": "4bab5ac7102471557e7314e7b099d349a58491a6bc735a015eb8b98d9b52eaba",
    "slice d3/3": "541b4b25707836b561128153128582e5b42132a820a00dceacd69f6d0355db54",
    "slice d3/1": "d5a3d0677ffcdc81c3e8a46e42f64fa87b5b98d5eb315ad52780414a716e1e71",
    "coslice d2 0/": "c187c2ad3490aae89cf75fc529baa70b75b6d5a94fb000defa1ec13b36cb2bad",
    "slice d2/12": "8fab2bf97682ac6cd74abe16208a73ae285c4f21790babe90522f54d05f375ff",
    "slice d3/02": "1046208556e1d7554b400b5852eb230f09eb2577c14ba0eef4743264dd810219",
    "thick inn d2/2": "03bc970010c82c82095ecb1278d214827e5812e9e165282b8b31eb31915ada28",
    "thick inn d3/1": "702c7d62870a02406168380ec30c8c8e99d5f966ae02a801c691e6fe23ab9aaa",
    "thick out d2 01/": "5626c89c6fb7e16a52acc8ebb38c2f64d6962433ea6e665b243985dd06675c3e",
    "hom d2 0 2": "3300ce54ac45b063e31d6c8dcdd9f3eb0ba4fdab2ea40f5a9664a79e019d67ea",
    "hom d3 0 2": "3300ce54ac45b063e31d6c8dcdd9f3eb0ba4fdab2ea40f5a9664a79e019d67ea",
    "fun gray_left": "1ee5996e079c81aad690bc5d88d4b01a6cb72fc344d1030425ee57f7beeb7136",
    "fun gray_right": "ebfe7b63c94197697670fd1badb5962ea469d93dc55134ba3648b98cd67a7823",
    "fun cartesian": "9805bc9807ac54fd65b24e26592f8ce5515ed92feb8f06277f5fab5eeca1c2a8",
    "cone d1_sharp at 1, vertex 0: A": "e878d1df6fedc23adf04b9935aa996b91377f4b87ef8956a77980564f30bed55",
    "cone d1_sharp at 1, vertex 0: B": "a87778927bb0838a33abf6f7554d5e13a5c2d328f37495038c90b06a643800d5",
    "cone d1_sharp at 1, vertex 0: r": "139c4511a0218f508dce2fb909e26b63ec4b5c7c6ce248f2a682df61f1a5e9dd",
    "cone d1_sharp at 1, vertex 1: A": "aa5851b7a076cdf7ea20de3cd8a5d7b896c29d1ebad3d6de872f0e88706225c2",
    "cone d1_sharp at 1, vertex 1: B": "a87778927bb0838a33abf6f7554d5e13a5c2d328f37495038c90b06a643800d5",
    "cone d1_sharp at 1, vertex 1: r": "139c4511a0218f508dce2fb909e26b63ec4b5c7c6ce248f2a682df61f1a5e9dd",
    "cone d2_sharp at 2, vertex 0: A": "67e57511b21f1f8b49e588351373571bb5556012311efd84880a63d04f04b27d",
    "cone d2_sharp at 2, vertex 0: B": "a87778927bb0838a33abf6f7554d5e13a5c2d328f37495038c90b06a643800d5",
    "cone d2_sharp at 2, vertex 0: r": "139c4511a0218f508dce2fb909e26b63ec4b5c7c6ce248f2a682df61f1a5e9dd",
    "cone d2_sharp at 2, vertex 1: A": "e878d1df6fedc23adf04b9935aa996b91377f4b87ef8956a77980564f30bed55",
    "cone d2_sharp at 2, vertex 1: B": "a87778927bb0838a33abf6f7554d5e13a5c2d328f37495038c90b06a643800d5",
    "cone d2_sharp at 2, vertex 1: r": "139c4511a0218f508dce2fb909e26b63ec4b5c7c6ce248f2a682df61f1a5e9dd",
    "cone d2_sharp at 2, vertex 2: A": "aa5851b7a076cdf7ea20de3cd8a5d7b896c29d1ebad3d6de872f0e88706225c2",
    "cone d2_sharp at 2, vertex 2: B": "a87778927bb0838a33abf6f7554d5e13a5c2d328f37495038c90b06a643800d5",
    "cone d2_sharp at 2, vertex 2: r": "139c4511a0218f508dce2fb909e26b63ec4b5c7c6ce248f2a682df61f1a5e9dd",
    "cone d1_sharp at 0, vertex 0: A": "aa5851b7a076cdf7ea20de3cd8a5d7b896c29d1ebad3d6de872f0e88706225c2",
    "cone d1_sharp at 0, vertex 0: B": "a87778927bb0838a33abf6f7554d5e13a5c2d328f37495038c90b06a643800d5",
    "cone d1_sharp at 0, vertex 0: r": "139c4511a0218f508dce2fb909e26b63ec4b5c7c6ce248f2a682df61f1a5e9dd",
    "cone d1_sharp at 0, vertex 1: A": "a5cbd7e9b29a87e42f0b78712f52c01c7ee1a499e7b9e3f9ad93a5767ac06f10",
    "cone d1_sharp at 0, vertex 1: B": "a87778927bb0838a33abf6f7554d5e13a5c2d328f37495038c90b06a643800d5",
    "cone d1_sharp at 0, vertex 1: r": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "criterion 9 right side at 0": "efdf2f52c358d2e1614c84a23b99d8689eab46906fae82a4439e1977d0f38054",
    "criterion 9 right side at 1": "eedc5f7103093d0788bf52337c18602e3effd7ea00b19df7d0e613888da84f15",
    "product sections: A": "9bd062e6ebac9d45d7c466c150f606668150c3dd22f824e380a01edd8c3f7eab",
    "product sections: B": "345f2df1682ca2b9c69be5726fe808ad6a9923cc158efe67a811cb3bf0ba9480",
    "product sections: r": "b013180e0c5b8b461552a425ee755c7927c8a60627be5091ad7a19832a159e40",
    "criterion 9 right side at 2": "82b038d7cc141c4c4035f6573738c036e27d17b570e51c02a321b51a79c7e72c",
}


def test_constructions_match_their_pinned_fingerprints():
    from slice_fingerprints import cone_fingerprints, fingerprints

    assert fingerprints() | cone_fingerprints() == PINNED_FINGERPRINTS


def reindex_by_closure(src, tgt, change):
    """reindex_map defined by a closure: the n-simplex m goes to the simplex
    (core, op) of tgt whose cell map, pulled back along F(op), has the key of
    change(n, m), a map built per cell.  It searches tgt's simplices, not its
    levels, which end at the shape's bound."""
    images = {}
    for c, m in src.cell_maps.items():
        n = src.total.base.dim_of[c]
        key = change(n, m).key()
        (images[c],) = [
            ez
            for ez in tgt.total.base.simplices(n)
            if tgt.shape.induced(ez.op, n, ez.op[-1]).then(tgt.cell_maps[ez.core]).key() == key
        ]
    return SMap(src.total.base, tgt.total.base, images)


def assert_same_reindexing(src, tgt, g=None, p=None):
    if g is not None:
        expected = reindex_by_closure(src, tgt, lambda n, m: tgt.shape.k_induced(src.shape, g, n).then(m))
    else:
        expected = reindex_by_closure(src, tgt, lambda n, m: m.then(p))
    assert reindex_map(src, tgt, g=g, p=p) == expected


def test_reindexing_reads_past_the_levels_and_not_outside_the_result():
    """The slices of Delta^2 and of a point have levels up to 2 and 0 only:
    reindexing the slice of Delta^3 along s_1 into the first, and a slice
    into the second, reads the simplices past them as degeneracies.  The
    slice of Delta^2 cut at cap 0 has no edge, so reindexing the cap-2 slice
    into it fails."""
    from ssw.core import constant_map

    S, pt = d2_sharp(), Scaled(standard_simplex(0))
    s1 = simplex_map(S.base, EZ("012", (0, 1, 1, 2)))
    src, tgt = slice_over_vertex(scale(standard_simplex(3), SHARP), "3", 3), slice_over_vertex(S, "2", 3)
    assert (src.total.base.dim, len(tgt.levels)) == (3, 3)
    assert_same_reindexing(src, tgt, p=s1)
    full = slice_over_vertex(S, "2", 2)
    to_point = reindex_map(full, slice_over_vertex(pt, "0", 2), p=constant_map(S.base, pt.base, "0"))
    assert {c: ez for c, ez in to_point.images.items()} == {
        c: EZ("s0.0", (0,) * (n + 1)) for c, n in full.total.base.dim_of.items()
    }
    with pytest.raises(SSetError, match="reindexing leaves the result"):
        reindex_map(full, slice_over_vertex(S, "2", 0), p=identity_map(S.base))


def test_reindex_map_agrees_with_closures_on_criterion_7():
    """The four maps of the slice criterion, for every edge of the sharp
    interval and triangle over a point and of their slices over the last
    vertex, as criterion 7 checks them."""
    from ssw.core import constant_map

    pt = standard_simplex(0)
    one = simplex_map(interval_sharp().base, EZ("1", (0,)))
    cases = []
    for n in (1, 2):
        C = scale(standard_simplex(n), SHARP)
        sl = slice_over_vertex(C, str(n), cap=3)
        cases += [(constant_map(C.base, pt, "0"), C, Scaled(pt)), (sl.projection, sl.scaled, C)]
    for p, X, Y in cases:
        for e in sorted(X.base.level(1)):
            e = EZ(e, (0, 1))
            y = X.base.act(e, (1,)).core
            sl_e, sl_y = slice_over_marked_arrow(X, e, 2), slice_over_vertex(X, y, 2)
            sl_fe, sl_fy = slice_over_marked_arrow(Y, p(e), 2), slice_over_vertex(Y, p.images[y].core, 2)
            assert_same_reindexing(sl_e, sl_y, g=one)
            assert_same_reindexing(sl_fe, sl_fy, g=one)
            assert_same_reindexing(sl_e, sl_fe, p=p)
            assert_same_reindexing(sl_y, sl_fy, p=p)


def test_reindex_map_agrees_with_closures_on_restrictions():
    """Criterion 10's restrictions, and evaluation at 1 from the sections of
    the product fibration Delta^1 x Delta^1 -> Delta^1 to those over the
    vertex 1, with the interval marked and without (then the sections are
    all functors Delta^1 -> Delta^1)."""
    from slice_fingerprints import cone_restrictions, product_sections

    from ssw.core import product, subcomplex

    for _, A, B, incl in [*cone_restrictions(), ("product sections", *product_sections())]:
        assert_same_reindexing(A, B, g=incl)
    d1 = standard_simplex(1)
    P, pr1, _ = product(d1, d1)
    sub, incl = subcomplex(d1, ["1"])
    good = frozenset(P.level(1))
    A = fun_coc_subcat(MarkedScaled(d1), pr1, scale(P, SHARP), identity_map(d1), good, 2)
    B = fun_coc_subcat(MarkedScaled(sub), pr1, scale(P, SHARP), incl, good, 2)
    assert (A.total.base.counts(), B.total.base.counts()) == ((3, 3, 1), (2, 1))
    assert_same_reindexing(A, B, g=incl)
