from itertools import product as iproduct

import pytest

from helpers import is_isomorphic, scaled_isomorphic, sharp_ms
from ssw.core import (
    DIM_CAP,
    EZ,
    SMap,
    SSet,
    SSetError,
    boundary_inclusion,
    constant_map,
    coproduct,
    first_missed_dim,
    multi_product,
    product,
    standard_simplex,
    subcomplex,
)
from ssw.decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    decorate,
    is_decorated_isomorphic,
    pushout_ms,
    scale,
)
from ssw.ops import clear_memos, idop, memo_sizes
from ssw.tensor import (
    compare_r,
    cone,
    degenerates_along,
    flat_ms,
    gray_marked_n,
    gray_scaled,
    gray_variant_scalings,
    interval_sharp,
    JoinMS,
    join_eq_data,
    join_eq_homotopies,
    join_eq_witness,
    join_eq_witnesses,
    join_ms,
    marked_variants_witness,
    point_ms,
    thick_join,
    weighted_cone,
)


def d1_flat():
    return scale(standard_simplex(1), FLAT)


def d2_sharp():
    return scale(standard_simplex(2), SHARP)


# ------------------------------------------------------------------ degenerates_along


def test_degenerates_along_convention():
    d2 = standard_simplex(2)
    s0_edge = EZ("01", (0, 0, 1))  # degenerate along {0,1}
    s1_edge = EZ("01", (0, 1, 1))  # degenerate along {1,2}
    point = EZ("0", (0, 0, 0))
    nondeg = EZ("012", (0, 1, 2))
    assert degenerates_along(d2, s0_edge, 0) and not degenerates_along(d2, s0_edge, 1)
    assert degenerates_along(d2, s1_edge, 1) and not degenerates_along(d2, s1_edge, 0)
    assert degenerates_along(d2, point, 0) and degenerates_along(d2, point, 1)
    assert not degenerates_along(d2, nondeg, 0)


# ------------------------------------------------------------------ binary Gray


def test_gray_square_one_thin_triangle():
    """The paper's oplax square: exactly the triangle through (1,0) is thin."""
    g = gray_scaled(d1_flat(), d1_flat())
    P = g.scaled.base
    tris = P.level(2)
    assert len(tris) == 2
    assert len(g.scaled.thin) == 1
    thin_cell = next(iter(g.scaled.thin))
    # the thin triangle has middle vertex (1,0): first edge in Delta^1 x {0}
    verts = P.vertices_of(EZ(thin_cell, idop(2)))
    assert verts[1] == "(1,0)"


def test_gray_unit():
    d0 = scale(standard_simplex(0))
    for X in (d1_flat(), d2_sharp()):
        g = gray_scaled(X, d0)
        assert scaled_isomorphic(g.scaled, X)
        g2 = gray_scaled(d0, X)
        assert scaled_isomorphic(g2.scaled, X)


def test_gray_op_duality():
    for X, Y in [(d1_flat(), d1_flat()), (d1_flat(), d2_sharp()), (d2_sharp(), d1_flat())]:
        lhs = gray_scaled(X, Y).scaled.op()
        rhs = gray_scaled(Y.op(), X.op()).scaled
        assert scaled_isomorphic(lhs, rhs)


def reference_gray_thin(X, Y, a, b):
    """The binary scaled Gray rule, stated on its own: a triangle (a, b) of
    X x Y is thin iff a and b are thin, and a degenerates along 1 or b along 0."""
    if not (X.is_thin(a) and Y.is_thin(b)):
        return False
    return degenerates_along(X.base, a, 1) or degenerates_along(Y.base, b, 0)


def test_gray_of_flat_markings_follows_the_binary_rule():
    from ssw.catalog import catalog

    entries = sorted(catalog().items())
    for (_, X), (_, Y) in iproduct(entries, entries):
        if X.base.dim + Y.base.dim > 5:
            continue
        Xs, Ys = X.scaled(), Y.scaled()
        g = gray_marked_n([Xs.flat_marked(), Ys.flat_marked()])
        pr1, pr2 = g.projections
        expected = {
            t
            for t in g.scaled.base.level(2)
            if reference_gray_thin(Xs, Ys, pr1(EZ(t, idop(2))), pr2(EZ(t, idop(2))))
        }
        assert g.scaled.thin == expected


# ------------------------------------------------------------------ n-ary marked Gray


def test_gray_marked_sharp_flat_square_both_thin():
    g = gray_marked_n([interval_sharp(), flat_ms(1)])
    assert len(g.scaled.thin) == 2
    g2 = gray_marked_n([flat_ms(1), interval_sharp()])
    assert len(g2.scaled.thin) == 2
    g3 = gray_marked_n([interval_sharp(), interval_sharp()])
    assert len(g3.scaled.thin) == 2


def test_gray_marked_flat_is_iterated_binary():
    triples = [
        (flat_ms(1), flat_ms(1), flat_ms(1)),
        (flat_ms(1), flat_ms(2), flat_ms(1)),
        (flat_ms(2), flat_ms(1), flat_ms(1)),
    ]
    for Xs in triples:
        nary = gray_marked_n(list(Xs))
        b1 = gray_scaled(Xs[0].scaled(), Xs[1].scaled())
        b2 = gray_scaled(b1.scaled, Xs[2].scaled())
        assert scaled_isomorphic(nary.scaled, b2.scaled)


def test_gray_almost_associative_inclusion():
    """(X1 (x) X2)^flat (x) Y has no more thin triangles than X1 (x) X2 (x) Y,
    with equality when X1, X2 are flat-marked."""
    X1, X2, Y = interval_sharp(), flat_ms(1), flat_ms(1)
    inner = gray_marked_n([X1, X2])
    lhs = gray_marked_n([inner.scaled.flat_marked(), Y])
    rhs = gray_marked_n([X1, X2, Y])
    # identify triangles through component vertex words
    iso = lhs.scaled.base.counts() == rhs.scaled.base.counts()
    assert iso

    def keyset(g, projs_expected):
        P = g.scaled.base
        out = set()
        for t in g.scaled.thin:
            words = []
            for pr in projs_expected:
                pair = pr(EZ(t, idop(2)))
                words.append(tuple(pr.target.vertices_of(pair)))
            out.add(tuple(words))
        return out

    lhs_keys = keyset(lhs, (lhs.projections[0].then(inner.projections[0]),
                            lhs.projections[0].then(inner.projections[1]),
                            lhs.projections[1]))
    rhs_keys = keyset(rhs, rhs.projections)
    assert lhs_keys <= rhs_keys
    assert lhs_keys != rhs_keys  # X1 is sharp-marked: strictly more thin on the right

    # flat-marked inputs: exact equality
    X1f = flat_ms(1)
    innerf = gray_marked_n([X1f, X2])
    lhsf = gray_marked_n([innerf.scaled.flat_marked(), Y])
    rhsf = gray_marked_n([X1f, X2, Y])
    lhs_keysf = keyset(lhsf, (lhsf.projections[0].then(innerf.projections[0]),
                              lhsf.projections[0].then(innerf.projections[1]),
                              lhsf.projections[1]))
    rhs_keysf = keyset(rhsf, rhsf.projections)
    assert lhs_keysf == rhs_keysf


def test_gray_marked_antitone_in_marking():
    """More marked edges give a superset of thin triangles."""
    d1 = standard_simplex(1)
    markings = [frozenset(), frozenset({"01"})]
    results = {}
    for m1 in markings:
        for m2 in markings:
            g = gray_marked_n([MarkedScaled(d1, m1), MarkedScaled(d1, m2)])
            results[(m1, m2)] = g.scaled.thin
    for m1 in markings:
        for m2 in markings:
            for n1 in markings:
                for n2 in markings:
                    if m1 <= n1 and m2 <= n2:
                        assert results[(m1, m2)] <= results[(n1, n2)]


# ------------------------------------------------------------------ variant scalings


def variant_oracle(X: MarkedScaled, Y: MarkedScaled):
    """Direct evaluation of the T_-, T_gr, T_+ predicates over all triangles."""
    from ssw.core import multi_product
    from ssw.tensor import gray_thin_predicate

    mp = multi_product([X.base, Y.base])
    P, (pr1, pr2) = mp.sset, mp.projections
    minus, gr, plus = set(), set(), set()
    for t in P.level(2):
        top = EZ(t, idop(2))
        a, b = pr1(top), pr2(top)
        if gray_thin_predicate([X, Y], (a, b)):
            gr.add(t)
            apt = X.base.dim_of[a.core] == 0
            bpt = Y.base.dim_of[b.core] == 0
            if (not a.is_nondeg() and not b.is_nondeg()) or apt or bpt:
                minus.add(t)
        if X.is_thin(a) and Y.is_thin(b):
            e12 = X.base.act(a, (1, 2))
            e01 = Y.base.act(b, (0, 1))
            if X.is_marked(e12) or Y.is_marked(e01):
                plus.add(t)
    return minus, gr, plus


def all_d1_decorations():
    d1 = standard_simplex(1)
    out = []
    for marking in (FLAT, SHARP):
        for scaling in (FLAT, SHARP):
            out.append(decorate(d1, marking, scaling))
    return out


def test_variant_chain_all_16_d1_combinations():
    for X in all_d1_decorations():
        for Y in all_d1_decorations():
            v = gray_variant_scalings(X, Y)
            m, g, p = variant_oracle(X, Y)
            assert v.minus.thin == m and v.gr.thin == g and v.plus.thin == p
            assert v.minus.thin <= v.gr.thin <= v.plus.thin


def test_variant_chain_d2_d1():
    d2 = standard_simplex(2)
    for marking in (FLAT, SHARP):
        for scaling in (FLAT, SHARP):
            X = decorate(d2, marking, scaling)
            Y = flat_ms(1)
            v = gray_variant_scalings(X, Y)
            m, g, p = variant_oracle(X, Y)
            assert v.minus.thin == m and v.gr.thin == g and v.plus.thin == p


def test_flat_inputs_minus_equals_gr():
    v = gray_variant_scalings(flat_ms(1), flat_ms(1))
    assert v.minus.thin == v.gr.thin


def assert_makes_thin(w, smaller: Scaled) -> None:
    """Read off faces_of: d_face rho is the triangle, and every other face of
    rho is degenerate or a thin triangle of the smaller scaling."""
    faces = smaller.base.faces_of(w.rho)
    assert faces[w.face] == EZ(w.triangle, idop(2))
    assert all(not f.is_nondeg() or f.core in smaller.thin for i, f in enumerate(faces) if i != w.face)


def test_sharp_marked_plus_strictly_contains_gr():
    # on Delta^1 factors every 2-simplex component is degenerate, so the three
    # scalings coincide; strictness needs a nondegenerate thin component
    X = interval_sharp()
    v = gray_variant_scalings(X, X)
    assert v.plus.thin == v.gr.thin == v.minus.thin
    v2 = gray_variant_scalings(sharp_ms(2), flat_ms(1))
    assert v2.plus.thin > v2.gr.thin
    witness = sorted(v2.plus.thin - v2.gr.thin)[0]
    w = marked_variants_witness(v2, sharp_ms(2), flat_ms(1), witness, "plus")
    assert_makes_thin(w, v2.gr)


def test_marked_variants_witnesses_exhaustive():
    cases = [
        (sharp_ms(2), flat_ms(1)),
        (decorate(standard_simplex(2), SHARP, SHARP), interval_sharp()),
        (flat_ms(1), sharp_ms(2)),
        (decorate(standard_simplex(2), FLAT, SHARP), interval_sharp()),
    ]
    seen_plus = seen_gr = 0
    for X, Y in cases:
        v = gray_variant_scalings(X, Y)
        for t in v.plus.thin - v.gr.thin:
            assert_makes_thin(marked_variants_witness(v, X, Y, t, "plus"), v.gr)
            seen_plus += 1
        for t in v.gr.thin - v.minus.thin:
            assert_makes_thin(marked_variants_witness(v, X, Y, t, "gr"), v.minus)
            seen_gr += 1
    assert seen_plus > 0 and seen_gr > 0


def test_marked_variants_witness_rejects_wrong_input():
    X = interval_sharp()
    v = gray_variant_scalings(X, X)
    inside = next(iter(v.gr.thin))
    with pytest.raises(SSetError):
        marked_variants_witness(v, X, X, inside, "plus")


@pytest.mark.parametrize("which", ["plus", "gr"])
def test_marked_variants_witness_checks_the_smaller_scaling(which):
    """A witness whose other face is thin only in the larger scaling is rejected:
    the face is dropped from T_gr (plus witnesses) or T_minus (gr witnesses)."""
    X, Y = sharp_ms(2), flat_ms(1)
    v = gray_variant_scalings(X, Y)
    field = "gr" if which == "plus" else "minus"
    smaller = getattr(v, field)
    larger = v.plus if which == "plus" else v.gr
    t = sorted(larger.thin - smaller.thin)[0]
    w = marked_variants_witness(v, X, Y, t, which)
    other = next(f for i, f in enumerate(smaller.base.faces_of(w.rho)) if i != w.face and f.is_nondeg())
    thinner = v._replace(**{field: Scaled(smaller.base, smaller.thin - {other.core})})
    with pytest.raises(SSetError, match="of the witness of .* is not thin"):
        marked_variants_witness(thinner, X, Y, t, which)


# ------------------------------------------------------------------ decorated join


def test_join_ms_marked_edge_gives_thin():
    j = join_ms(interval_sharp(), point_ms())
    assert is_isomorphic(j.scaled.base, standard_simplex(2))
    assert len(j.scaled.thin) == 1


def test_join_ms_flat_no_thin():
    j = join_ms(flat_ms(1), point_ms())
    assert j.scaled.thin == frozenset()


def test_join_ms_points():
    j = join_ms(point_ms(), point_ms())
    assert is_isomorphic(j.scaled.base, standard_simplex(1))
    assert j.scaled.thin == frozenset()


def test_join_ms_thin_partition_count():
    for X, Y in [
        (interval_sharp(), sharp_ms(1)),
        (sharp_ms(2), interval_sharp()),
        (flat_ms(2), sharp_ms(1)),
    ]:
        j = join_ms(X, Y)
        expected = (
            len(X.thin)
            + len(X.marked) * len(Y.base.level(0))
            + len(X.base.level(0)) * len(Y.marked)
            + len(Y.thin)
        )
        assert len(j.scaled.thin) == expected


# ------------------------------------------------------------------ thick joins


def test_thick_join_points_is_interval():
    tj = thick_join("out", point_ms(), point_ms())
    assert is_isomorphic(tj.total.base, standard_simplex(1))
    tj2 = thick_join("inn", point_ms(), point_ms())
    assert is_isomorphic(tj2.total.base, standard_simplex(1))


def collapsed_cylinder_oracle():
    """Quotient of Delta^1 x Delta^1 collapsing {1} x Delta^1, by direct
    enumeration of vertex-word pairs.  Only simplices lying inside the
    collapsed subcomplex are identified."""

    def cls(word):
        if all(a == 1 for a, _ in word):
            return ("c",) * len(word)
        return tuple(word)

    def monotone_words(n):
        verts = [(a, b) for a in range(2) for b in range(2)]
        out = []

        def extend(w):
            if len(w) == n + 1:
                out.append(tuple(w))
                return
            last = w[-1] if w else (0, 0)
            for v in verts:
                if not w or (v[0] >= last[0] and v[1] >= last[1]):
                    extend(w + [v])

        extend([])
        return out

    counts = []
    prev = set()
    for n in range(3):
        words = set(cls(w) for w in monotone_words(n))
        degen = set()
        for w in prev:
            for i in range(n):
                degen.add(w[: i + 1] + w[i:])
        counts.append(len(words - degen))
        prev = words
    return tuple(counts)


FROZEN_CYLINDER_COUNTS = (3, 4, 2)  # from collapsed_cylinder_oracle()


def test_thick_join_interval_point_counts():
    assert collapsed_cylinder_oracle() == FROZEN_CYLINDER_COUNTS
    tj = thick_join("out", flat_ms(1), point_ms())
    assert tj.total.base.counts() == FROZEN_CYLINDER_COUNTS


def test_thick_join_op_duality():
    pairs = [
        (flat_ms(1), point_ms()),
        (flat_ms(1), flat_ms(1)),
        (interval_sharp(), flat_ms(1)),
    ]
    for X, Y in pairs:
        lhs = thick_join("inn", X, Y).total.op()
        rhs = thick_join("inn", Y.op(), X.op()).total
        assert scaled_isomorphic(lhs, rhs)
        lhs_o = thick_join("out", X, Y).total.op()
        rhs_o = thick_join("out", Y.op(), X.op()).total
        assert scaled_isomorphic(lhs_o, rhs_o)


def two_pushout_thick_join(variance, X, Y):
    """The thick join as two literal pushouts: the Gray product glued to X along
    its end over interval vertex 0, then to Y along its end over vertex 1.
    Returns the total, both inclusions, the quotient and the provenance."""
    factors = [X, flat_ms(1), Y] if variance == "inn" else [Y, flat_ms(1), X]
    mid = gray_marked_n(factors)
    pX, pI, pY = mid.projections if variance == "inn" else mid.projections[::-1]
    G = mid.scaled.base

    def end(vertex):
        return subcomplex(G, [c for c in G.dim_of if pI.images[c].core == vertex])[1]

    incl0, incl1 = end("0"), end("1")
    X_sc = MarkedScaled(X.base, frozenset(), X.thin)
    P1, leg_X1, leg_G1 = pushout_ms(incl0, incl0.then(pX), mid.scaled.flat_marked(), X_sc)
    Y_sc = MarkedScaled(Y.base, frozenset(), Y.thin)
    P2, leg_Y2, leg_P2 = pushout_ms(incl1.then(leg_G1), incl1.then(pY), P1, Y_sc)
    incl_left, quotient = leg_X1.then(leg_P2), leg_G1.then(leg_P2)
    comp = {incl_left.images[x].core: ("L", x) for x in X.base.dim_of}
    comp.update({leg_Y2.images[y].core: ("R", y) for y in Y.base.dim_of})
    for m in G.dim_of:
        img = quotient.images[m]
        if img.is_nondeg() and img.core not in comp:
            comp[img.core] = ("M", m)
    return P2, incl_left, leg_Y2, quotient, comp


@pytest.mark.parametrize(
    "X, Y",
    [
        (point_ms(), point_ms()),
        (flat_ms(1), point_ms()),
        (interval_sharp(), flat_ms(2)),
        (flat_ms(2), flat_ms(2)),
        (sharp_ms(2), flat_ms(1)),
    ],
)
@pytest.mark.parametrize("variance", ["inn", "out"])
def test_thick_join_is_the_two_literal_pushouts(variance, X, Y):
    tj = thick_join(variance, X, Y)
    P2, incl_left, incl_right, quotient, comp = two_pushout_thick_join(variance, X, Y)
    assert tj.total.base.cells == P2.base.cells
    assert tj.total.base.faces == P2.base.faces
    assert tj.total.thin == P2.thin and not P2.marked
    assert tj.incl_left.images == incl_left.images
    assert tj.incl_right.images == incl_right.images
    assert tj.quotient.images == quotient.images
    assert list(tj.comp.items()) == list(comp.items())


def test_thick_join_end_inclusions():
    tj = thick_join("out", flat_ms(1), flat_ms(1))
    assert tj.incl_left.is_mono() and tj.incl_right.is_mono()
    end_vertices = {tj.incl_left.images[v].core for v in ("0", "1")} | {
        tj.incl_right.images[v].core for v in ("0", "1")
    }
    assert end_vertices == set(tj.total.base.level(0))


# ------------------------------------------------------------------ cones


def test_cone_on_empty_is_point():
    from ssw.core import empty_sset

    K = MarkedScaled(empty_sset())
    for var in ("inn", "out"):
        c = cone(var, "left", K)
        assert c.ms.base.counts() == (1,)


def test_cone_on_point_is_marked_interval():
    c = cone("inn", "left", point_ms())
    assert is_isomorphic(c.ms.base, standard_simplex(1))
    assert len(c.ms.marked) == 1


def test_cone_on_interval_marking():
    """All cone edges marked, the K-edge unmarked (edge-through-star filter)."""
    c = cone("out", "left", flat_ms(1))
    base = c.ms.base
    through_star = {
        e
        for e in base.level(1)
        if c.star in base.vertices_of(EZ(e, idop(1)))
    }
    assert c.ms.marked == through_star
    k_edge = c.tj.incl_right.images["01"].core
    assert k_edge not in c.ms.marked


# ------------------------------------------------------------------ weighted cones


def test_weighted_cone_identity_point():
    pt = point_ms()
    p = SMap(pt.base, pt.base, {"0": EZ("0", (0,))})
    w = weighted_cone("inn", p, pt, pt.scaled())
    plain = cone("inn", "left", pt)
    assert is_isomorphic(w.scaled.base, plain.ms.base)


def test_weighted_cone_identity_interval():
    from ssw.core import identity_map

    K = decorate(standard_simplex(1), SHARP, FLAT)
    p = identity_map(K.base)
    w = weighted_cone("inn", p, K, K.scaled())
    plain = cone("inn", "left", K)
    assert is_isomorphic(w.scaled.base, plain.ms.base)
    assert w.scaled.thin == plain.ms.thin


def test_weighted_cone_fold():
    """Fold of two disjoint points over a point: counts from a direct pushout."""
    from ssw.core import coproduct, constant_map

    two = coproduct(standard_simplex(0), standard_simplex(0)).sset
    pt = standard_simplex(0)
    p = constant_map(two, pt, "0")
    w = weighted_cone("inn", p, MarkedScaled(two), Scaled(pt))
    # oracle: cone on two points has 3 vertices and 2 edges; gluing the two
    # base points into one leaves (2, 2)
    assert w.scaled.base.counts() == (2, 2)


def test_weighted_cone_checks_its_arguments():
    pt = point_ms()
    p = SMap(pt.base, pt.base, {"0": EZ("0", (0,))})
    with pytest.raises(SSetError, match="side must be 'left' or 'right'"):
        weighted_cone("inn", p, pt, pt.scaled(), side="middle")
    with pytest.raises(SSetError, match="weight projection mismatch"):
        weighted_cone("inn", p, flat_ms(1), pt.scaled())
    from ssw.core import identity_map

    d2 = standard_simplex(2)
    thin = MarkedScaled(d2, frozenset(), frozenset({"012"}))
    with pytest.raises(SSetError, match="weight projection is not a scaled map"):
        weighted_cone("inn", identity_map(d2), thin, Scaled(d2))


# ------------------------------------------------------------------ compare_r


def compare_r_vertex_oracle(p, q):
    """Count the fibers of r on edges via the vertex formula on classes."""
    cmp = compare_r(flat_ms(p), flat_ms(q))
    total = cmp.tj.total.base
    J = cmp.join.scaled.base
    images = {}
    for e in total.level(1):
        images[e] = cmp.r(EZ(e, idop(1)))
    return images


def test_compare_r_interval_point():
    """4 nondegenerate edges of the thick join map onto the 3 edges of Delta^2."""
    cmp = compare_r(flat_ms(1), point_ms())
    total = cmp.tj.total.base
    assert len(total.level(1)) == 4
    images = {cmp.r(EZ(e, idop(1))) for e in total.level(1)}
    nondeg_images = {i for i in images if i.is_nondeg()}
    assert len(nondeg_images) == 3
    assert len(cmp.join.scaled.base.level(1)) == 3


def test_compare_r_checks_pass_up_to_2():
    for p in range(3):
        for q in range(3):
            cmp = compare_r(flat_ms(p), flat_ms(q))  # construction runs all checks
            assert cmp.r.source is cmp.tj.total.base


def test_compare_r_on_vertices_not_named_by_integers():
    """Only the interval component's word is read, so any vertex names do."""
    two = MarkedScaled(coproduct(standard_simplex(1), standard_simplex(0)).sset)  # vertices 0, 1, 0'
    cmp = compare_r(two, point_ms())
    assert cmp.tj.total.base.counts() == (4, 5, 2)
    assert cmp.join.scaled.base.counts() == (4, 4, 1)


def test_compare_r_compatible_with_end_inclusions():
    for p, q in [(1, 1), (2, 1)]:
        cmp = compare_r(flat_ms(p), flat_ms(q))
        left = cmp.tj.incl_left.then(cmp.r)
        assert left == cmp.join.incl1
        right = cmp.tj.incl_right.then(cmp.r)
        assert right == cmp.join.incl2


def all_simplices_missed_dim(f: SMap):
    """The least n such that some n-simplex of the target is not f of an
    n-simplex of the source, checked over every simplex; None if f is onto."""
    for n in range(f.target.dim + 1):
        if set(f.target.simplices(n)) - {f(x) for x in f.source.simplices(n)}:
            return n
    return None


def test_first_missed_dim_matches_the_all_simplices_check():
    maps = [compare_r(flat_ms(p), flat_ms(q)).r for p in range(3) for q in range(3)]
    assert all(first_missed_dim(r) is None for r in maps)
    missing_one = [
        (boundary_inclusion(2), 2),  # misses the triangle 012 only
        (boundary_inclusion(3), 3),
        (constant_map(standard_simplex(1), standard_simplex(1), "0"), 0),  # misses the vertex 1
    ]
    for f, n in missing_one:
        assert first_missed_dim(f) == n
    for f in maps + [f for f, _ in missing_one]:
        assert first_missed_dim(f) == all_simplices_missed_dim(f)


def test_compare_r_rejects_a_comparison_that_misses_a_cell(monkeypatch, fresh_memos):
    """A join padded with an isolated vertex, which r cannot reach."""
    import ssw.tensor

    def padded(X, Y, dim_cap=None):
        jn = join_ms(X, Y, dim_cap=dim_cap)
        plus = coproduct(jn.scaled.base, standard_simplex(0))
        return JoinMS(
            Scaled(plus.sset, jn.scaled.thin), jn.incl1.then(plus.incl1), jn.incl2.then(plus.incl1), jn.mixed
        )

    monkeypatch.setattr(ssw.tensor, "join_ms", padded)
    with pytest.raises(SSetError, match="comparison map not surjective on 0-simplices"):
        compare_r(flat_ms(1), point_ms())


# ------------------------------------------------------------------ join_eq


def test_join_eq_witnesses_exhaustive():
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        data, order = join_eq_witnesses(p, q)
        assert {w.triangle for w in order} == set(data.Tprime - data.T)
        assert all(w.face in (1, 2) for w in order)


def test_join_eq_witness_rejects_T_members():
    data = join_eq_data(1, 1)
    t = next(iter(data.T))
    with pytest.raises(SSetError):
        join_eq_witness(data, t)


def test_join_eq_witness_checks_T_and_the_triangles_added_before():
    """A witness whose other face is dropped from T is rejected, and accepted
    again once that face is back in T."""
    data, order = join_eq_witnesses(2, 2)
    w = order[0]
    f = next(f for i, f in enumerate(data.cmp.tj.total.base.faces_of(w.rho)) if i != w.face and f.is_nondeg())
    thinner = data._replace(T=data.T - {f.core})
    with pytest.raises(SSetError, match="of the witness of .* is not thin"):
        join_eq_witness(thinner, w.triangle)
    assert join_eq_witness(thinner._replace(T=thinner.T | {f.core}), w.triangle) == w


def test_join_eq_homotopies():
    for p, q in [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2)]:
        report = join_eq_homotopies(p, q)
        assert report.ok


@pytest.mark.parametrize("which", [0, 1])  # h, then k
def test_join_eq_homotopies_rejects_a_corrupted_image_of_h_or_k(monkeypatch, fresh_memos, which):
    """h and k are the maps it builds from the prism (total x Delta^1); moving
    one vertex image of either must fail the face check of its proof step."""
    import ssw.tensor

    prisms, maps = [], []

    def recording_product(X, Y, dim_cap=None):
        out = product(X, Y, dim_cap=dim_cap)
        prisms.append(out.sset)
        return out

    class Corrupting(SMap):
        def __init__(self, source, target, images):
            if prisms and source is prisms[0]:
                maps.append(images)
                if len(maps) == which + 1:
                    images = dict(images)
                    v = source.level(0)[0]
                    images[v] = EZ(next(w for w in target.level(0) if w != images[v].core), (0,))
            super().__init__(source, target, images)

    monkeypatch.setattr(ssw.tensor, "product", recording_product)
    monkeypatch.setattr(ssw.tensor, "SMap", Corrupting)
    with pytest.raises(SSetError, match="map does not commute"):
        join_eq_homotopies(1, 2)
    assert len(prisms) == 1 and len(maps) > which  # the corrupted map was built


def test_gray_commutes_with_pushout_surrogate():
    """Finite surrogate for colimit preservation: Gray with a fixed factor
    sends a pushout along a mono to the pushout of the Gray products."""
    from ssw.core import SMap, pair_cell, pushout_mono, subcomplex
    from ssw.decor import pushout_ms
    from ssw.ops import clear_memos, idop, memo_sizes

    d1 = standard_simplex(1)
    W = flat_ms(1)

    # span: collapse the vertex 1 of Delta^1 onto vertex 0 of another Delta^1
    A, incl = subcomplex(d1, ["1"])
    g = SMap(A, d1, {"1": EZ("0", (0,))})
    P = pushout_mono(incl, g)

    def gray_with_W(Z, thin=frozenset()):
        return gray_marked_n([W, MarkedScaled(Z, frozenset(), thin)])

    gw_B = gray_with_W(d1)
    gw_X = gray_with_W(d1)
    gw_A = gray_with_W(A)
    gw_P = gray_with_W(P.sset)

    def induced(src_gray, tgt_gray, vertex_map: SMap) -> SMap:
        images = {}
        src = src_gray.scaled.base
        for c, nd in src.dim_of.items():
            top = EZ(c, idop(nd))
            w, k = src_gray.projections[0](top), src_gray.projections[1](top)
            ik = vertex_map(k)
            from ssw.core import product_cell

            images[c] = product_cell(tgt_gray.mp, (w, ik))
        return SMap(src, tgt_gray.scaled.base, images)

    iA_B = induced(gw_A, gw_B, incl)
    iA_X = induced(gw_A, gw_X, g)
    lhs_ms, _, _ = pushout_ms(
        iA_B,
        iA_X,
        MarkedScaled(gw_B.scaled.base, frozenset(), gw_B.scaled.thin),
        MarkedScaled(gw_X.scaled.base, frozenset(), gw_X.scaled.thin),
    )
    rhs = gw_P.scaled
    assert scaled_isomorphic(Scaled(lhs_ms.base, lhs_ms.thin), rhs)


def test_cone_underlying_is_thick_join():
    """The underlying scaled object of the cone is the thick join with a point."""
    from ssw.tensor import thick_join

    for var in ("inn", "out"):
        K = flat_ms(1)
        c = cone(var, "left", K)
        tj = thick_join(var, point_ms(), K)
        assert c.ms.base == tj.total.base
        assert c.ms.thin == tj.total.thin


def test_weighted_cone_interval_fold():
    """Fold of two intervals over one interval: counts against a direct
    pushout oracle."""
    from ssw.core import SMap, coproduct
    from ssw.decor import Scaled, pushout_ms

    d1 = standard_simplex(1)
    two = coproduct(d1, d1)
    tilde = two.sset
    fold = SMap(
        tilde,
        d1,
        {
            **{x: two.incl1.images[x] for x in ()},
            "0": EZ("0", (0,)),
            "1": EZ("1", (0,)),
            "01": EZ("01", (0, 1)),
            "0'": EZ("0", (0,)),
            "1'": EZ("1", (0,)),
            "01'": EZ("01", (0, 1)),
        },
    )
    w = weighted_cone("inn", fold, MarkedScaled(tilde), Scaled(d1))
    # oracle: the cone on two disjoint intervals has counts (5, 7, 2): the two
    # intervals, a cone point, edges to the three K-vertices... computed as
    # the literal pushout of the cone along the fold
    plain = cone("inn", "left", MarkedScaled(tilde))
    from ssw.core import pushout_mono

    oracle = pushout_mono(plain.tj.incl_right, fold)
    assert w.scaled.base.counts() == oracle.sset.counts()


def test_criterion_3_builds_each_comparison_once(monkeypatch):
    """One thick join per (p, q): the witnesses, the comparison map and the
    homotopies of a pair share one ``compare_r``."""
    import ssw.tensor
    from ssw.suite import run_suite

    clear_memos()
    built = []
    original = ssw.tensor.thick_join

    def counting(*args, **kwargs):
        built.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(ssw.tensor, "thick_join", counting)
    (result,) = run_suite({3})
    assert result.ok
    assert result.detail == "comparison, witnesses and homotopies verified on 9 pairs"
    assert built == ["out"] * 9


# ------------------------------------------------------------------ the memo registry


def copy_of(X: SSet, dim_cap: int | None = None) -> SSet:
    """A distinct SSet with the content of X, and its dim_cap unless another is given."""
    return SSet(X.cells, X.faces, dim_cap=X.dim_cap if dim_cap is None else dim_cap)


def flat_copy(n: int, dim_cap: int | None = None) -> MarkedScaled:
    return MarkedScaled(copy_of(standard_simplex(n), dim_cap))


def test_equal_content_built_twice_is_one_object():
    """Products, thick joins and comparisons are kept by content: distinct but
    equal inputs get the object built first, and a cap of None is DIM_CAP."""
    d1, d2 = standard_simplex(1), standard_simplex(2)
    mp = multi_product([d1, d2])
    assert multi_product([copy_of(d1), copy_of(d2)], dim_cap=DIM_CAP) is mp
    tj = thick_join("out", flat_ms(2), flat_ms(1))
    assert thick_join("out", flat_copy(2), flat_copy(1), dim_cap=DIM_CAP) is tj
    assert tj.mid.mp is multi_product([d1, d1, d2])  # the middle Y x Delta^1 x X of the outer join
    cmp = compare_r(flat_copy(1), flat_copy(2), dim_cap=DIM_CAP)
    assert compare_r(flat_ms(1), flat_ms(2)) is cmp and cmp.tj is thick_join("out", flat_ms(1), flat_ms(2))


# Each keyed construction on an X in place of flat Delta^2, with the dim_cap its result shows.
KEYED_BUILDS = {
    "thick_join": (lambda X: thick_join("out", X, flat_ms(1)), lambda r: r.total.base.dim_cap),
    "compare_r": (lambda X: compare_r(X, flat_ms(1)), lambda r: r.tj.total.base.dim_cap),
    "multi_product": (lambda X: multi_product([X.base, standard_simplex(1)]), lambda r: r.projections[0].target.dim_cap),
}


@pytest.mark.parametrize("name", sorted(KEYED_BUILDS))
def test_a_different_dim_cap_builds_its_own_result(name):
    """SSet equality ignores dim_cap, but the result shows it, so an input that
    differs from flat Delta^2 only in its dim_cap gets a result of its own,
    equal to a build from an empty registry."""
    build, cap_of = KEYED_BUILDS[name]
    X = flat_copy(2, dim_cap=9)
    assert X == flat_ms(2)
    plain, result = build(flat_ms(2)), build(X)
    assert result is not plain and (cap_of(plain), cap_of(result)) == (DIM_CAP, 9)
    clear_memos()
    fresh = build(X)
    assert fresh == result and cap_of(fresh) == 9


@pytest.mark.parametrize("name", ["thick_join", "compare_r"])
@pytest.mark.parametrize("marking,scaling", [(SHARP, FLAT), (FLAT, SHARP)], ids=["marking", "thin set"])
def test_a_different_decoration_builds_its_own_result(name, marking, scaling):
    build, _ = KEYED_BUILDS[name]
    X = decorate(standard_simplex(2), marking, scaling)
    plain, result = build(flat_ms(2)), build(X)
    assert result is not plain
    clear_memos()
    assert build(X) == result and build(flat_ms(2)) == plain


def test_variance_and_cap_key_their_own_thick_joins():
    out = thick_join("out", flat_ms(1), flat_ms(1))
    assert thick_join("inn", flat_ms(1), flat_ms(1)) is not out
    wider = thick_join("out", flat_ms(1), flat_ms(1), dim_cap=DIM_CAP + 1)
    assert wider is not out and wider.total.base.dim_cap == DIM_CAP + 1 != out.total.base.dim_cap


def test_clear_memos_empties_the_registry_and_a_fresh_build_equals_the_warm_one():
    warm = compare_r(flat_ms(2), flat_ms(1))
    sizes = memo_sizes()
    assert sizes["tensor.compare_r"] > 0 and sizes["tensor.thick_join"] > 0 and sizes["core.multi_product"] > 0
    assert {"ops.compose", "ops.IDENTITY", "slices.Shape.object", "fibration.scaled_anodyne_family"} <= sizes.keys()
    clear_memos()
    assert set(memo_sizes().values()) == {0}
    fresh = compare_r(flat_ms(2), flat_ms(1))
    assert fresh is not warm and fresh == warm


def test_homotopies_file_no_vertex_code_sequence_in_a_process_memo():
    """join_eq_homotopies finds the normal form of each vertex-code sequence in
    the call: once a product of the total with Delta^1 has split its face
    pairs, one comparison adds no entry to the joint_split memo."""
    clear_memos()
    total = join_eq_data(1, 2).cmp.tj.total.base
    product(total, standard_simplex(1))
    before = memo_sizes()["core.joint_split"]
    assert join_eq_homotopies(1, 2).ok
    assert memo_sizes()["core.joint_split"] == before


def test_homotopies_after_the_comparison_build_no_thick_join(monkeypatch):
    """join_eq_homotopies(2, 2) reuses the comparison that compare_r built
    with the default cap, the cap it asks for."""
    import ssw.tensor

    clear_memos()
    compare_r(flat_ms(2), flat_ms(2))
    built = []
    original = ssw.tensor.thick_join
    monkeypatch.setattr(ssw.tensor, "thick_join", lambda *args, **kwargs: built.append(args) or original(*args, **kwargs))
    assert join_eq_homotopies(2, 2).ok
    assert built == []
