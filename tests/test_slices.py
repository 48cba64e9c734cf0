import pytest

from ssw.core import (
    EZ,
    SMap,
    SSetError,
    empty_sset,
    enumerate_maps,
    identity_map,
    is_isomorphic,
    standard_simplex,
)
from ssw.decor import FLAT, SHARP, MarkedScaled, Scaled, decorate, scale
from ssw.ops import idop
from ssw.slices import (
    SliceResult,
    fiber_ms,
    fun_coc_subcat,
    fun_space,
    hom_category,
    hom_triangle,
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
    from ssw.tensor import join_ms, triangle_thin

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
    sl = slice_over_marked_arrow(S, "01", cap=2)
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
        # no map K -> empty exists; constructing f fails
        SMap(K.base, S.base, {})


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


def test_hom_triangle_point():
    C = d1_sharp()
    fib, _ = hom_triangle(C, "0", "1", cap=2)
    assert fib.base.counts() == (1,)


def test_hom_triangle_matches_direct_enumeration():
    C = d2_sharp()
    fib, _ = hom_triangle(C, "0", "2", cap=2)
    # oracle: vertices of (C_/2)_0 are the edges of C from 0 to 2
    assert len(fib.base.level(0)) == len(hom_vertices_oracle(C, "0", "2"))


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


def test_fiber_of_slice_is_hom_triangle():
    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=2)
    fib, _ = fiber_ms(sl.total, sl.projection, "0")
    direct, _ = hom_triangle(C, "0", "2", cap=2)
    assert fib.base.counts() == direct.base.counts()
    assert fib.marked == direct.marked


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
    from ssw.tensor import join_ms, triangle_thin

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

    from ssw.core import pair_cell
    from ssw.fibration import q_complex
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
    from ssw.tensor import gray_marked_n, sharp_ms

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
    Gray side, x or y) keep separate levels, and the levels differ."""
    shapes = memo_shapes(marked_interval())
    one, other = shapes[a], shapes[b]
    for n in range(3):
        assert one.object(n).data is not other.object(n).data, n
    assert any(level_content(one, n) != level_content(other, n) for n in range(3))


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
