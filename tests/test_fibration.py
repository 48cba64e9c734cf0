import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssw.catalog import j_truncated
from ssw.core import (
    EZ,
    SMap,
    SSetError,
    boundary,
    boundary_inclusion,
    constant_map,
    enumerate_maps,
    first_missed_dim,
    horn,
    identity_map,
    pair_cell,
    product,
    simplex_cell,
    simplex_map,
    standard_simplex,
)
from ssw.decor import FLAT, SHARP, MarkedScaled, Scaled, decorate, scale
from ssw.fibration import (
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    CertificateStep,
    Generator,
    Verdict,
    GeneratorFamily,
    boundary_family,
    certificate_check,
    check_limit_cone,
    classify_edge,
    cocar_witness_check,
    collapsed_horn_generator,
    combine,
    detects_thin,
    edge_horn,
    edge_table,
    empty_cone,
    find_lift,
    has_outer_anodyne_rlp,
    has_rlp,
    horn_filtration,
    inner_horn_family,
    is_infty_bicategory,
    is_inner_fibration,
    is_outer_fibration,
    is_P_fibered,
    is_var_cartesian_fibration,
    is_weak_fibration,
    locally_cocartesian_edges,
    outer_anodyne_family,
    outer_horn_family,
    problems_for,
    q_complex,
    q_marked_cells,
    refute_coinitial,
    rescale_generator,
    scaled_anodyne_family,
    scaled_inner_horn,
    simplex_generator,
    weak_cartesian_via_slice,
    weak_fibration_family,
)
from ssw.ops import idop
from ssw.slices import slice_over_vertex, thick_slice_over_vertex
from ssw.suite import lax_lift, lax_lift_rule
from ssw.tensor import cone, flat_ms, join_ms, interval_sharp, point_ms, simplex_from_word

from helpers import triangle_thin
from posets import poset_nerves


def d1_sharp():
    return scale(standard_simplex(1), SHARP)


def d2_sharp():
    return scale(standard_simplex(2), SHARP)


def d2_flat():
    return scale(standard_simplex(2), FLAT)


def to_point(X: Scaled) -> SMap:
    return constant_map(X.base, standard_simplex(0), "0")


# ---------------------------------------------------------------- find_lift


def test_lift_to_point_always_exists():
    X = point_ms()
    gen = scaled_inner_horn(2, 1)
    p = identity_map(X.base)
    top, bottom = constant_map(gen.A.base, X.base, "0"), constant_map(gen.B.base, X.base, "0")
    assert gen.left.is_mono() and gen.left.then(bottom) == top.then(p)
    assert find_lift(gen, p, X, top, bottom) is not None


def test_inner_horn_filler_unique_in_sharp_triangle():
    C = d2_sharp()
    gen = scaled_inner_horn(2, 1)
    p = to_point(C)
    tops = [
        m
        for m in __import__("ssw.core", fromlist=["enumerate_maps"]).enumerate_maps(
            gen.A.base, C.base
        )
    ]
    # the inclusion horn -> triangle is one of the tops; its filler is unique
    horn_incl = {"0": EZ("0", (0,)), "1": EZ("1", (0,)), "2": EZ("2", (0,)),
                 "01": EZ("01", (0, 1)), "12": EZ("12", (0, 1))}
    top, bottom = SMap(gen.A.base, C.base, horn_incl), constant_map(gen.B.base, standard_simplex(0), "0")
    filler = find_lift(gen, p, C.sharp_marked(), top, bottom)
    assert filler is not None
    assert filler.images["012"] == EZ("012", (0, 1, 2))


def test_no_filler_into_boundary():
    from ssw.core import boundary

    B2 = Scaled(boundary(2), frozenset())
    gen = scaled_inner_horn(2, 1)
    horn_incl = {"0": EZ("0", (0,)), "1": EZ("1", (0,)), "2": EZ("2", (0,)),
                 "01": EZ("01", (0, 1)), "12": EZ("12", (0, 1))}
    top, bottom = SMap(gen.A.base, B2.base, horn_incl), constant_map(gen.B.base, standard_simplex(0), "0")
    assert find_lift(gen, to_point(B2), B2.sharp_marked(), top, bottom) is None


# ---------------------------------------------------------------- RLP verdicts


def test_identity_has_rlp():
    C = d2_sharp()
    v = has_rlp(identity_map(C.base), C.sharp_marked(), C.sharp_marked(), weak_fibration_family(3))
    assert v.status == VERIFIED


def test_a_family_carries_the_bound_it_was_built_to(monkeypatch):
    """Every family builder states the bound it was asked for, and a VERIFIED
    of has_rlp states its family's bound, also when the family is empty."""
    import ssw.fibration as fibration

    e = EZ("01", (0, 1))
    for bound in range(6):
        families = [
            weak_fibration_family(bound),
            inner_horn_family(bound),
            outer_horn_family(bound),
            boundary_family(bound),
            boundary_family(bound, marked_generator=True, scaled_generator=False),
            outer_anodyne_family(bound),
            scaled_anodyne_family(bound),
        ] + [fibration._edge_family(flavor, e, bound) for flavor in ("cartesian", "weak", "strong")]
        assert [family.bound for family in families] == [bound] * len(families)
    checked = counting(monkeypatch, "has_rlp")
    q = identity_map(standard_simplex(1))
    for bound in range(6):
        assert fibration._classical_cocartesian(q, e, bound) == Verdict(VERIFIED, bound=bound)
        family = checked[-1][3]
        assert family.name == f"classical-cocartesian(bound {bound})" and family.bound == bound
    C = d2_sharp().sharp_marked()
    for family in (weak_fibration_family(3), inner_horn_family(1), GeneratorFamily("empty", (), 7)):
        assert has_rlp(identity_map(C.base), C, C, family) == Verdict(VERIFIED, bound=family.bound)


def test_a_refutation_needs_evidence():
    """A REFUTED verdict is refused without a witness, whatever its bound; the
    other statuses need none."""
    for args in ((REFUTED,), (REFUTED, ""), (REFUTED, "", 3)):
        with pytest.raises(SSetError, match="a refutation needs a concrete witness"):
            Verdict(*args)
    assert Verdict(REFUTED, "x").render() == "REFUTED: x"
    with pytest.raises(SSetError, match="a refutation needs a concrete witness"):
        Verdict(VERIFIED)._replace(status=REFUTED)
    with pytest.raises(SSetError, match="a refutation needs a concrete witness"):
        Verdict._make((REFUTED, "", 3))
    assert Verdict(VERIFIED)._replace(status=REFUTED, evidence="x") == Verdict(REFUTED, "x")
    assert Verdict(INCONCLUSIVE).render() == "INCONCLUSIVE"
    assert Verdict(VERIFIED, bound=3).render() == "VERIFIED up to dimension 3"


def test_sharp_triangle_weak_fibration():
    C = d2_sharp()
    v = is_weak_fibration(to_point(C), C, Scaled(standard_simplex(0)), bound=4)
    assert v.status == VERIFIED and v.bound == 4


def test_flat_triangle_not_weak_fibration():
    C = d2_flat()
    v = is_weak_fibration(to_point(C), C, Scaled(standard_simplex(0)), bound=3)
    assert v.status == REFUTED
    assert "scaled-inner-horn(2,1)" in v.evidence


def test_thin_detection_refutes():
    C = d2_flat()
    Csharp = d2_sharp()
    p = identity_map(C.base)
    v = detects_thin(p, C, Csharp)
    assert v.status == REFUTED


# ---------------------------------------------------------------- slice fibrations


def test_slice_projection_outer_cartesian_interval():
    C = d1_sharp()
    sl = slice_over_vertex(C, "1", cap=3)
    verdict, table = is_var_cartesian_fibration(
        sl.projection, sl.scaled, C, "out", co=False, bound=3
    )
    assert verdict.status == VERIFIED
    assert table == sl.total.marked


def test_slice_projection_outer_cartesian_triangle():
    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=3)
    verdict, table = is_var_cartesian_fibration(
        sl.projection, sl.scaled, C, "out", co=False, bound=3
    )
    assert verdict.status == VERIFIED
    assert table == sl.total.marked


def test_marked_slice_edges_are_cartesian():
    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=3)
    for e in sorted(sl.total.marked):
        v = classify_edge(sl.projection, sl.scaled, C, EZ(e, (0, 1)), "cartesian", bound=3)
        assert v.status == VERIFIED


def test_degenerate_edges_cartesian():
    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=3)
    v0 = sl.total.base.level(0)[0]
    v = classify_edge(sl.projection, sl.scaled, C, EZ(v0, (0, 0)), "cartesian", bound=3)
    assert v.status == VERIFIED


def test_taxonomy_strong_implies_cartesian_implies_weak():
    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=3)
    p = sl.projection
    for e in sl.total.base.level(1):
        verdicts = {
            fl: classify_edge(p, sl.scaled, C, EZ(e, (0, 1)), fl, bound=3).status
            for fl in ("strong", "cartesian", "weak")
        }
        if verdicts["strong"] == VERIFIED:
            assert verdicts["cartesian"] == VERIFIED
        if verdicts["cartesian"] == VERIFIED:
            assert verdicts["weak"] == VERIFIED
        # outer fibration: all three flavors agree
        assert len(set(verdicts.values())) == 1


def test_classify_edge_op_duality():
    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=2)
    p = sl.projection
    for e in sl.total.base.level(1):
        lhs = classify_edge(p, sl.scaled, C, EZ(e, (0, 1)), "cartesian", bound=3)
        rhs = classify_edge(p, sl.scaled, C, EZ(e, (0, 1)), "cocartesian", bound=3)
        # duality is with the opposite map, not the same map; just check both run
        assert lhs.status in (VERIFIED, REFUTED) and rhs.status in (VERIFIED, REFUTED)
    from ssw.core import opposite_map
    from ssw.ops import op_reverse

    pop = opposite_map(p)
    for e in sl.total.base.level(1):
        lhs = classify_edge(p, sl.scaled, C, EZ(e, (0, 1)), "cartesian", bound=3)
        rhs = classify_edge(pop, sl.scaled.op(), C.op(), EZ(e, (0, 1)), "cocartesian", bound=3)
        assert lhs.status == rhs.status


def test_classify_edge_rejects_an_unknown_flavor():
    C = d1_sharp()
    p, e = identity_map(C.base), EZ("01", (0, 1))
    for flavor in ("foo_co", "bogus"):
        # at bound 1 no family has a generator, so nothing else looks at the flavor
        with pytest.raises(SSetError, match="flavor must be 'cartesian', 'weak', 'strong', "):
            classify_edge(p, C, C, e, flavor, bound=1)


def test_var_cartesian_fibration_rejects_an_unknown_variance():
    C = d1_sharp()
    for co in (False, True):
        with pytest.raises(SSetError, match="variance must be 'inn' or 'out'"):
            is_var_cartesian_fibration(identity_map(C.base), C, C, "bogus", co=co, bound=2)


def test_weak_cartesian_via_slice_agrees():
    C = d1_sharp()
    sl = slice_over_vertex(C, "1", cap=2)
    p = sl.projection
    for e in sl.total.base.level(1):
        direct = classify_edge(p, sl.scaled, C, EZ(e, (0, 1)), "weak", bound=3)
        via = weak_cartesian_via_slice(p, sl.scaled, C, EZ(e, (0, 1)), cap=2)
        assert direct.status == via.status


# ---------------------------------------------------------------- P-fibered


def test_identity_marking_is_fibered():
    d1 = standard_simplex(1)
    S = Scaled(d1)
    X = MarkedScaled(d1, frozenset({"01"}), frozenset())
    v = is_P_fibered(identity_map(d1), X, S, bound=3)
    assert v.status == VERIFIED


def test_projection_fibered_with_horizontal_marking():
    d1 = standard_simplex(1)
    P, pr1, pr2 = product(d1, d1)
    S = Scaled(d1)
    good = locally_cocartesian_edges(pr2, S, bound=3)
    X = MarkedScaled(P, good, frozenset())
    v = is_P_fibered(pr2, X, S, bound=3)
    assert v.status == VERIFIED
    # horizontal edges (degenerate in the fiber direction) are the good ones
    assert len(good) == 2


def test_wrong_marking_refuted():
    d1 = standard_simplex(1)
    P, pr1, pr2 = product(d1, d1)
    S = Scaled(d1)
    good = locally_cocartesian_edges(pr2, S, bound=3)
    missing = frozenset(list(sorted(good))[:1])
    X = MarkedScaled(P, missing, frozenset())
    v = is_P_fibered(pr2, X, S, bound=3)
    assert v.status == REFUTED


def test_fibered_agrees_with_inner_cocartesian():
    """Mutual oracle: both predicates agree on catalog fibrations."""
    cases = []
    d1 = standard_simplex(1)
    cases.append((identity_map(d1), Scaled(d1), frozenset({"01"})))
    P, pr1, pr2 = product(d1, d1)
    cases.append((pr2, Scaled(d1), None))
    for p, S, marking in cases:
        good = locally_cocartesian_edges(p, S, bound=3)
        if marking is not None:
            assert good == marking
        X = MarkedScaled(p.source, good, frozenset())
        fib = is_P_fibered(p, X, S, bound=3)
        thinX = frozenset(
            t for t in p.source.level(2) if S.is_thin(p(EZ(t, idop(2))))
        )
        inner, table = is_var_cartesian_fibration(
            p, Scaled(p.source, thinX), S, "inn", co=True, bound=3
        )
        assert fib.status == inner.status == VERIFIED
        assert table == good


# ---------------------------------------------------------------- outer anodyne


def test_q_complex_counts():
    Q = q_complex()
    assert Q.counts() == (2, 4, 4, 1)
    assert len(q_marked_cells(Q)) == 2


def test_outer_anodyne_family_shapes():
    fam = outer_anodyne_family(3)
    names = [g.name for g in fam.generators]
    assert "marked-horn(1)" in names
    assert "q-marking" in names
    assert "composite-marking" in names
    assert "thin-rescale" in names


def test_slice_fibration_has_outer_anodyne_rlp():
    C = d1_sharp()
    sl = slice_over_vertex(C, "1", cap=3)
    v = has_outer_anodyne_rlp(sl.projection, sl.total, C, bound=3)
    assert v.status == VERIFIED


def test_corrupted_marking_refuted_by_anodyne():
    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=3)
    bad = MarkedScaled(sl.total.base, frozenset(), sl.total.thin)
    v = has_outer_anodyne_rlp(sl.projection, bad, C, bound=2)
    assert v.status == REFUTED


# ---------------------------------------------------------------- bicategories


def test_sharp_simplices_are_bicategories():
    for n in range(4):
        X = scale(standard_simplex(n), SHARP)
        v = is_infty_bicategory(X, bound=3)
        assert v.status == VERIFIED


def test_flat_triangle_not_bicategory():
    v = is_infty_bicategory(d2_flat(), bound=3)
    assert v.status == REFUTED


def test_point_is_bicategory():
    v = is_infty_bicategory(Scaled(standard_simplex(0)), bound=3)
    assert v.status == VERIFIED


# The cause of acceptance criteria 4 and 5: Q with full scaling is not an
# infinity-bicategory, so the slice projections of q_sharp cannot be outer
# cartesian.  The evidence is pinned byte for byte.
SCALED_INNER_HORN_TO_POINT = (
    "no filler for scaled-inner-horn(2,1) with bottom ["
    "('0', EZ(core='0', op=(0,))), ('01', EZ(core='0', op=(0, 0))), "
    "('012', EZ(core='0', op=(0, 0, 0))), ('02', EZ(core='0', op=(0, 0))), "
    "('1', EZ(core='0', op=(0,))), ('12', EZ(core='0', op=(0, 0))), "
    "('2', EZ(core='0', op=(0,)))]"
)


def test_q_sharp_is_not_an_infty_bicategory():
    Q = q_complex()
    v = is_infty_bicategory(Scaled(Q, frozenset(Q.level(2))), bound=4)
    assert v == Verdict(REFUTED, SCALED_INNER_HORN_TO_POINT)


def test_flat_triangle_refutation_evidence():
    assert is_infty_bicategory(d2_flat(), bound=2) == Verdict(REFUTED, SCALED_INNER_HORN_TO_POINT)


# ---------------------------------------------------------------- horn index vs backtracker


def backtracked_rlp(p, X, Y, family):
    """has_rlp as a plain loop over problems_for and find_lift."""
    for gen in family.generators:
        for top, bottom in problems_for(gen, p, X, Y):
            if find_lift(gen, p, X, top, bottom) is None:
                return Verdict(
                    REFUTED,
                    f"no filler for {gen.name} with bottom {sorted(bottom.images.items())}",
                )
    return Verdict(VERIFIED, bound=family.bound)


def all_generators(X: MarkedScaled, bound: int):
    """Every generator of every family constructor, the edge flavors anchored
    on each edge of X."""
    for family in (
        weak_fibration_family(bound),
        inner_horn_family(bound),
        outer_horn_family(bound),
        boundary_family(bound, marked_generator=True, scaled_generator=True),
        outer_anodyne_family(bound),
        scaled_anodyne_family(bound),
    ):
        yield from family.generators
    for e in X.base.level(1):
        for flavor in ("cartesian", "weak", "strong"):
            for n in range(2, bound + 1):
                yield edge_horn(flavor, n, EZ(e, (0, 1)))


def refuted_by_both(p, X, Y, bound=3, keep=lambda gen: True) -> set:
    """Check has_rlp against the backtracker one generator at a time (those
    that ``keep`` accepts), in status, evidence and bound; return the names of
    the refuted generators."""
    refuted = set()
    for gen in filter(keep, all_generators(X, bound)):
        family = GeneratorFamily(gen.name, [gen], bound)
        verdict = has_rlp(p, X, Y, family)
        assert verdict == backtracked_rlp(p, X, Y, family), gen.name
        if verdict.status == REFUTED:
            refuted.add(gen.name)
    return refuted


def differential_inputs():
    for C, vertex in ((d1_sharp(), "1"), (d2_sharp(), "2")):
        sl = slice_over_vertex(C, vertex, cap=3)
        for X in (sl.total, sl.scaled.flat_marked()):
            yield sl.projection, X, C.sharp_marked()
    Q, J = q_complex(), j_truncated(3)
    point = Scaled(standard_simplex(0)).sharp_marked()
    for X in (Scaled(Q, frozenset(Q.level(2))), d2_flat(), Scaled(J, frozenset(J.level(2)))):
        for Xm in (X.sharp_marked(), X.flat_marked()):
            yield to_point(X), Xm, point


def test_has_rlp_matches_the_backtracker_on_every_generator():
    refuted = set()
    for p, X, Y in differential_inputs():
        refuted |= refuted_by_both(p, X, Y)
    # a refutation from each indexed shape: horn, boundary, collapsed horn,
    # a horn with a filler pin, and a horn whose missing face is a vertex
    assert {
        "scaled-inner-horn(2,1)",
        "boundary(1)",
        "collapsed-initial(3)",
        "strong-cartesian-horn(2)",
        "marked-horn(1)",
    } <= refuted


def test_has_rlp_reports_the_first_failing_top_in_search_order():
    """On Delta^4 with 034 and 123 not thin, over the sharp Delta^4, two tops
    of the scaled 2-horn fail with different bottoms.  The facet tuples reach
    the horn 12, 23 first, but the map search lists 03, 34 first (vertices
    0, 3, 4 before 1, 2, 3), so that bottom is the one reported."""
    d4 = standard_simplex(4)
    X = Scaled(d4, frozenset(d4.level(2)) - {"034", "123"}).sharp_marked()
    p, Y = identity_map(d4), scale(d4, SHARP).sharp_marked()
    for family in (scaled_anodyne_family(4), weak_fibration_family(4)):
        v = has_rlp(p, X, Y, family)
        assert v == backtracked_rlp(p, X, Y, family)
        assert "('012', EZ(core='034', op=(0, 1, 2)))" in v.evidence
    assert refuted_by_both(p, X, Y, 4) >= {"scaled-inner-horn(2,1)", "cartesian-horn(2)"}


@given(poset_nerves(), poset_nerves(), st.data())
@settings(max_examples=25, deadline=None)
def test_has_rlp_matches_the_backtracker_between_nerves(S, T, data):
    maps = enumerate_maps(S, T)
    assume(maps)
    p = data.draw(st.sampled_from(maps))

    def some(cells):
        return frozenset(data.draw(st.sets(st.sampled_from(cells)))) if cells else frozenset()

    X = MarkedScaled(S, some(S.level(1)), some(S.level(2)))
    refuted_by_both(p, X, Scaled(T, some(T.level(2))).sharp_marked())


# boundary(0) and the rescalings: the generators of the family constructors whose tops have no facets
FACETLESS = {"boundary(0)", "composite-marking", "marked-detection", "q-marking", "saturation-4", "thin-detection", "thin-rescale"}


def rescaling_inputs():
    """Inputs on which boundary(0) and each rescaling have at least two squares
    without a filler, with distinct bottoms: the identity of Delta^4 from a
    copy without the markings 02, 13 and the thin triangles 034, 124 to the
    sharp copy and to a copy that also lacks 02 and 034, the identity of
    Q x Delta^1 from flat to sharp marked (all thin), and the vertex 0 of the
    sharp Delta^2."""
    d4 = standard_simplex(4)

    def d4_without(edges, triangles):
        marked = frozenset(d4.level(1)) - set(map(simplex_cell, edges))
        return MarkedScaled(d4, marked, frozenset(d4.level(2)) - set(map(simplex_cell, triangles)))

    X = d4_without([(0, 2), (1, 3)], [(0, 3, 4), (1, 2, 4)])
    yield identity_map(d4), X, decorate(d4, SHARP, SHARP)
    yield identity_map(d4), X, d4_without([(0, 2)], [(0, 3, 4)])
    P = product(q_complex(), standard_simplex(1)).sset
    yield identity_map(P), Scaled(P, frozenset(P.level(2))).flat_marked(), decorate(P, SHARP, SHARP)
    d2 = standard_simplex(2)
    yield simplex_map(d2, EZ("0", (0,))), decorate(standard_simplex(0), SHARP, SHARP), decorate(d2, SHARP, SHARP)


def unfilled_bottoms(gen, p, X, Y) -> set:
    """The distinct bottoms of the squares with no filler, by the backtracker."""
    return {bottom.key() for top, bottom in problems_for(gen, p, X, Y) if find_lift(gen, p, X, top, bottom) is None}


def test_has_rlp_matches_the_backtracker_on_every_rescaling():
    """has_rlp decides boundary(0) and the rescalings on their shapes and
    reports the first failing top; each of them fails on some input at two
    tops or more with distinct bottoms, so the first is picked among several,
    and has_rlp agrees with the backtracker in status and evidence."""
    refuted, twice = set(), set()
    for p, X, Y in rescaling_inputs():
        refuted |= refuted_by_both(p, X, Y, keep=lambda gen: gen.name in FACETLESS)
        twice |= {g.name for g in all_generators(X, 3) if g.name in FACETLESS and len(unfilled_bottoms(g, p, X, Y)) >= 2}
    assert refuted == twice == FACETLESS


def test_pinned_rescaling_matches_the_backtracker():
    """The rescaling of Delta^2 to the thin triangle with a top pin on the
    vertex 0 and a filler pin on the edge 12: the top pin cuts the tops, and
    a top whose edge 12 is not the pin under p has no square.  The generator
    keeps its shape, so the pins are read on the shaped path; the same pins
    on the identity of the boundary of Delta^2, which is no simplex's image,
    go through the backtracker."""
    d4 = standard_simplex(4)
    p, X, Y = next(rescaling_inputs())
    thin = rescale_generator("pinned", MarkedScaled(standard_simplex(2)), triangle_thin())
    edges = MarkedScaled(boundary(2), frozenset({"01", "12"}))
    control = Generator("control", identity_map(boundary(2)), MarkedScaled(boundary(2)), edges)
    assert thin.shape is not None and control.shape is None
    statuses = {thin.name: set(), control.name: set()}
    for v in ("0", "1"):
        for e in d4.simplices(1):
            for gen in (thin, control):
                gen = gen._replace(top_pins={"0": EZ(v, (0,))}, filler_pins={"12": e})
                family = GeneratorFamily(gen.name, [gen], 3)
                for q, Z in ((p, Y), (to_point(X), decorate(standard_simplex(0), SHARP, SHARP))):
                    verdict = has_rlp(q, X, Z, family)
                    assert verdict == backtracked_rlp(q, X, Z, family)
                    statuses[gen.name].add(verdict.status)
    assert statuses == {thin.name: {REFUTED, VERIFIED}, control.name: {REFUTED, VERIFIED}}


def test_rescalings_off_a_single_simplex_record_no_shape():
    """A rescaling whose base is not the image of its one top simplex (Delta^1
    with a loose vertex, the boundary of Delta^2, the empty complex) records
    no shape, and has_rlp decides it through the backtracker, in agreement
    with it."""
    from ssw.core import coproduct, empty_sset

    loose = coproduct(standard_simplex(1), standard_simplex(0)).sset
    bases = [loose, boundary(2), empty_sset()]
    gens = [rescale_generator("loose", MarkedScaled(loose), MarkedScaled(loose, frozenset(loose.level(1))))]
    gens += [rescale_generator(f"flat({base.counts()})", MarkedScaled(base), MarkedScaled(base)) for base in bases[1:]]
    assert [gen.shape for gen in gens] == [None] * 3
    p, X, Y = next(rescaling_inputs())
    statuses = set()
    for gen in gens:
        family = GeneratorFamily(gen.name, [gen], 3)
        for q, Z in ((p, Y), (p, X)):
            verdict = has_rlp(q, X, Z, family)
            assert verdict == backtracked_rlp(q, X, Z, family)
            statuses.add(verdict.status)
    assert statuses == {REFUTED, VERIFIED}


def pushed_horn() -> Generator:
    """The scaled 2-horn pushed out along the map onto Delta^1 that collapses
    its edge 01 to the vertex 0: a hand-built generator that records no
    shape."""
    from ssw.decor import pushout_ms

    gen = scaled_inner_horn(2, 1)
    target = standard_simplex(1)
    images = {"0": EZ("0", (0,)), "1": EZ("0", (0,)), "2": EZ("1", (0,)), "01": EZ("0", (0, 0)), "12": EZ("01", (0, 1))}
    Z = MarkedScaled(target)
    P_ms, leg_target, _ = pushout_ms(gen.left, SMap(gen.A.base, target, images), gen.B, Z)
    return Generator("pushed", leg_target, Z, P_ms)


def test_constructed_generators_skip_the_backtracker(monkeypatch):
    """No generator of the family constructors, the Q-marking included,
    reaches problems_for, find_lift or enumerate_maps.  A hand-built
    generator that records no shape still goes through the backtracker."""
    import ssw.fibration as fibration

    def backtracker(*args, **kwargs):
        raise AssertionError("backtracker called")

    Q = q_complex()
    X = Scaled(Q, frozenset(Q.level(2)))
    p, Xm, Y = to_point(X), X.sharp_marked(), Scaled(standard_simplex(0)).sharp_marked()
    gens = list(all_generators(Xm, 3))
    assert "q-marking" in {g.name for g in gens} and all(g.shape is not None for g in gens)
    for name in ("problems_for", "find_lift", "enumerate_maps"):
        monkeypatch.setattr(fibration, name, backtracker)
    for gen in gens:
        has_rlp(p, Xm, Y, GeneratorFamily(gen.name, [gen], 3))
    pushed = pushed_horn()
    with pytest.raises(AssertionError, match="backtracker called"):
        has_rlp(p, Xm, Y, GeneratorFamily(pushed.name, [pushed], 3))


def test_recorded_horn_shapes_describe_their_generators():
    """Every generator of every family at bounds 0-5 and every edge horn at
    n = 2..5 records a shape.  The shape is what has_rlp's tops rest on:
    q: Delta^n -> B is onto B, and A is the image of the horn Lambda^n_i, of
    the boundary if i is None, of Delta^n itself for a rescaling.  So the
    cells of B outside A are q(Delta^n) and q(d_i Delta^n) for a horn,
    q(Delta^n) for a boundary (A is empty for n = 0), and none for a
    rescaling, where A = B.  Only boundary(0) and the rescalings have tops
    without facets."""
    from generator_fingerprints import families

    kinds = set()
    for label, family in families():
        for gen in family.generators:
            shape = gen.shape
            q, i, n = shape.q, shape.i, shape.q.source.dim
            assert q.source is standard_simplex(n) and q.target is gen.B.base
            assert first_missed_dim(q) is None
            assert (shape.facets == ()) == (gen.name in FACETLESS), (label, gen.name)
            cells_of_a = {img.core for img in gen.left.images.values()}
            if shape.top_in_a:
                assert i is None and gen.A.base is gen.B.base
                kept = standard_simplex(n).dim_of
            else:
                kept = (boundary(n) if i is None else horn(n, i)).dim_of
            assert gen.left.is_mono() and cells_of_a == {q.images[c].core for c in kept}
            outside = set()
            if not shape.top_in_a:
                outside.add(q.images[simplex_cell(range(n + 1))].core)
            if i is not None:
                outside.add(q.images[simplex_cell(v for v in range(n + 1) if v != i)].core)
            assert set(gen.B.base.dim_of) - cells_of_a == outside, (label, gen.name)
            kinds.add((len(outside), n if gen.name == "boundary(0)" else None))
    assert kinds == {(2, None), (1, None), (1, 0), (0, None)}


def test_recorded_horns_read_the_decorations_of_b_on_cells_of_a(monkeypatch):
    """A cell of A that B marks constrains both the bottom and the filler.
    With A left flat, the filler, not the top, must carry the marking of 01.
    Where p does not preserve the marking, squares whose bottom is unmarked on
    01 do not exist, and only they lack a filler in the boundary.  The
    generators have a recorded shape, so has_rlp decides these squares on
    facet tuples, and the backtracker must agree."""
    import ssw.fibration as fibration

    marked = simplex_generator("marked-horn", 2, 1, marked=[(0, 1)])
    flat_top = marked._replace(name="flat-top", A=MarkedScaled(marked.A.base))
    assert marked.B.marked == {"01"} and flat_top.shape is marked.shape is not None
    d2 = standard_simplex(2)
    cases = [
        (flat_top, to_point(Scaled(d2)), decorate(d2), Scaled(standard_simplex(0)).sharp_marked(), REFUTED),
        (marked, boundary_inclusion(2), decorate(boundary(2), SHARP), decorate(d2), VERIFIED),
    ]
    expected = [backtracked_rlp(p, X, Y, GeneratorFamily(g.name, [g], 2)) for g, p, X, Y, _ in cases]
    monkeypatch.setattr(fibration, "problems_for", None)
    for (gen, p, X, Y, status), verdict in zip(cases, expected):
        assert has_rlp(p, X, Y, GeneratorFamily(gen.name, [gen], 2)) == verdict and verdict.status == status


def test_each_slot_decides_its_own_pins_and_decorations():
    """The horn Lambda^3_3 with a top pin on one facet and a thin triangle of
    A on another, over the boundary of Delta^3 with several scalings: every
    triangle of X is a candidate for both slots, and what a triangle decides
    in one slot (the pin) is not what it decides in the other (thinness).
    has_rlp agrees with the backtracker in status and evidence, and both
    statuses occur."""
    d = boundary(3)
    point = Scaled(standard_simplex(0)).sharp_marked()
    statuses = []
    for thin in ([], ["023"], ["123"], ["023", "123"], d.level(2)):
        X = MarkedScaled(d, frozenset(), frozenset(thin))
        for pin in d.simplices(2):
            for decorated, pinned in (((0, 2, 3), (1, 2, 3)), ((1, 2, 3), (0, 2, 3))):
                gen = simplex_generator("two-slot", 3, 3, thin=[decorated], top_pins={pinned: pin})
                family = GeneratorFamily(gen.name, [gen], 3)
                verdict = has_rlp(to_point(X), X, point, family)
                assert verdict == backtracked_rlp(to_point(X), X, point, family)
                statuses.append(verdict.status)
    assert set(statuses) == {REFUTED, VERIFIED}


def test_the_checks_of_a_slot_run_in_a_fixed_order(monkeypatch):
    """A slot stops at its first failing check, so the checks run in an order
    fixed by the cells, not by the order of the left map's images, which can
    follow hash order: the work of a decision then repeats in every process.
    With the images listed backwards, the decorations are checked as often."""
    import ssw.fibration as fibration

    calls = []
    decorated = fibration._decorated
    monkeypatch.setattr(fibration, "_decorated", lambda *args: calls.append(args) or decorated(*args))
    d4 = standard_simplex(4)
    X = Scaled(d4, frozenset(d4.level(2)) - {"034", "123", "024"}).sharp_marked()
    p, Y = identity_map(d4), decorate(d4, SHARP, SHARP)
    saturation = next(gen for gen in scaled_anodyne_family(4).generators if gen.name == "saturation-4")
    for gen in (saturation, edge_horn("weak", 3, EZ("01", (0, 1)))):
        counts = []
        for images in (gen.left.images, dict(reversed(gen.left.images.items()))):
            calls.clear()
            left = SMap(gen.left.source, gen.left.target, images)
            verdict = has_rlp(p, X, Y, GeneratorFamily(gen.name, [gen._replace(left=left)], 4))
            counts.append((len(calls), verdict))
        assert counts[0] == counts[1], gen.name


def test_collapsed_horn_equalities_span_two_slots():
    """collapsed-initial(n) sends the vertices 0 and 1 of Delta^n to one
    vertex and the edge 01 to its degeneracy: the edge is read off the slot
    d_2, the vertex off the slot d_1.  has_rlp checks that equality on each
    top and agrees with the backtracker, in status and evidence, on simplices,
    a boundary, a truncated nerve and the collapsed Delta^3 itself, where a
    horn is left unfilled."""
    point = Scaled(standard_simplex(0)).sharp_marked()
    statuses = []
    for n in (2, 3):
        gen = collapsed_horn_generator("collapsed", n, (0, 1))
        assert any(r[0] != gen.shape.route[a][0] for r, a, _ in gen.shape.equal)  # two slots
        for base in (standard_simplex(3), boundary(3), j_truncated(3), collapsed_horn_generator("c", 3, (0, 1)).B.base):
            X = Scaled(base, frozenset()).sharp_marked()
            family = GeneratorFamily(gen.name, [gen], 3)
            verdict = has_rlp(to_point(X), X, point, family)
            assert verdict == backtracked_rlp(to_point(X), X, point, family)
            statuses.append(verdict.status)
    assert set(statuses) == {REFUTED, VERIFIED}

# ---------------------------------------------------------------- certificates


def test_pushout_join_certificate():
    """The pushout-join of the endpoint inclusion into the marked interval
    with the flat-to-marked interval is the rescaling that adds the one
    missing triangle of a tetrahedron; its one-step certificate checks."""
    from ssw.core import subcomplex

    d1 = standard_simplex(1)
    end, _ = subcomplex(d1, ["1"])
    Xm = MarkedScaled(end)  # the target endpoint of the marked interval
    Ym = MarkedScaled(d1, frozenset({"01"}), frozenset())
    Am = MarkedScaled(d1)  # flat interval
    Bm = Ym  # marked interval
    left = join_ms(Xm, Bm, dim_cap=4)
    right = join_ms(Ym, Am, dim_cap=4)
    full = join_ms(Ym, Bm, dim_cap=4)
    d3 = full.scaled.base
    # union of the two sub-join scalings inside Y * B; the left join's mixed
    # cells carry the same compositional names in the full join
    src_thin = set(right.scaled.thin)
    back = {v: k for k, v in left.mixed.items()}
    for t in left.scaled.thin:
        src_thin.add(full.mixed[back[t]])
    # in tetrahedron labels: 01*0 = 012, 01*1 = 013, 1*01 = 123; only 023 missing
    assert src_thin == {"01*0", "01*1", "1*01"}
    assert frozenset(full.scaled.thin) == frozenset(d3.level(2))
    assert set(d3.level(2)) - src_thin == {"0*01"}
    start = MarkedScaled(d3, frozenset(), frozenset(src_thin))
    target = MarkedScaled(d3, frozenset(), frozenset(d3.level(2)))
    gen = rescale_generator("thin-saturation", start, target)
    step = CertificateStep(gen, identity_map(d3))
    v = certificate_check(start, [step], target)
    assert v.status == VERIFIED


def test_empty_certificate_identity():
    d2 = standard_simplex(2)
    X = MarkedScaled(d2)
    v = certificate_check(X, [], X)
    assert v.status == VERIFIED


def test_certificate_wrong_attach_refuted():
    d2 = standard_simplex(2)
    start = MarkedScaled(d2)
    gen = rescale_generator(
        "thin", MarkedScaled(d2), MarkedScaled(d2, frozenset(), frozenset({"012"}))
    )
    bad_attach = constant_map(d2, standard_simplex(0), "0")
    step = CertificateStep(gen, bad_attach)
    v = certificate_check(start, [step], start)
    assert v.status == REFUTED


# ---------------------------------------------------------------- horn filtrations


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_lax_lift_filtration(n):
    """Inner horns at vertices 1..n, each in dimension n + 1, then the outer horn
    n + 1; the steps exhaust the Gray product and its scaling."""
    B, x0 = lax_lift(n)
    steps = horn_filtration(B, x0, lax_lift_rule)
    assert [(B.base.dim_of[sigma], i) for sigma, i in steps] == [(n + 1, h) for h in range(1, n + 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lax_lift_filtration_needs_its_thin_triangle(n):
    """Without the thin triangle (0,0)(1,0)(1,1), which the first inner horn makes
    thin, no cell qualifies at step 0."""
    B, x0 = lax_lift(n)
    t = pair_cell(B.base, simplex_from_word([0, 1, 1]), simplex_from_word([0, 0, 1])).core
    with pytest.raises(SSetError, match="filtration step 0: no cell is a pushout of a horn"):
        horn_filtration(Scaled(B.base, B.thin - {t}), x0, lax_lift_rule)


def inner_horns_only(m, i):
    return () if 0 < i < m else None


@pytest.mark.parametrize("k, i, m, steps", [(2, 1, 1, 4), (2, 1, 2, 9), (3, 1, 1, 6)])
def test_joyal_pushout_products_are_inner_anodyne(k, i, m, steps):
    """(horn(k, i) -> Delta^k) pushout-product (boundary Delta^m -> Delta^m) is a
    composite of pushouts of inner horns (HTT Cor. 2.3.2.4)."""
    P, pr1, pr2 = product(standard_simplex(k), standard_simplex(m))
    tops = [EZ(c, idop(d)) for c, d in P.dim_of.items()]
    outside = {pr1.target.level(k)[0], pr1.target.faces[pr1.target.level(k)[0]][i].core}
    stage = {t.core for t in tops if pr1(t).core not in outside or pr2(t).core != pr2.target.level(m)[0]}
    assert len(horn_filtration(Scaled(P), stage, inner_horns_only)) == steps


def test_boundary_of_the_interval_has_no_horn_filtration():
    with pytest.raises(SSetError, match="filtration step 0: no cell is a pushout of a horn"):
        horn_filtration(Scaled(standard_simplex(1)), {"0", "1"}, inner_horns_only)


def test_horn_filtration_refuses_a_step_that_scales_more_than_its_horn():
    """The flat inner horn of the sharp triangle adds a thin triangle that no
    generator image accounts for."""
    with pytest.raises(SSetError, match="filtration step 0 does not scale as its horn"):
        horn_filtration(d2_sharp(), {"0", "1", "2", "01", "12"}, inner_horns_only)


# ---------------------------------------------------------------- cocartesian witness


def test_cocar_witness():
    """The negative control drops the witness's face d_2, the triangle
    (0,0)(1,0)(1,2), from both Gray scalings: the difference set is still the
    one triangle, and the face check refutes."""
    assert cocar_witness_check().status == VERIFIED
    assert cocar_witness_check(use_opposite=True).status == VERIFIED
    v = cocar_witness_check(perturb=True)
    assert v.status == REFUTED and v.evidence.startswith("face d_2 of the witness of")


def drop_thin_triangle(monkeypatch, words):
    """Make every Gray product that ssw.fibration builds lose the thin triangle
    with these two vertex words."""
    import ssw.fibration as fibration

    gray = fibration.gray_scaled

    def dropped(X, Y, dim_cap=None):
        g = gray(X, Y, dim_cap=dim_cap)
        t = pair_cell(g.scaled.base, *map(simplex_from_word, words)).core
        assert t in g.scaled.thin
        return g._replace(scaled=Scaled(g.scaled.base, g.scaled.thin - {t}))

    monkeypatch.setattr(fibration, "gray_scaled", dropped)


def test_cocar_witness_refutes_a_face_off_the_scaling(monkeypatch):
    """Drop the witness's face d_2, the triangle (0,0)(1,0)(1,2), from both Gray
    products: the difference set is still the one triangle, and the face check
    refutes."""
    drop_thin_triangle(monkeypatch, ([0, 1, 1], [0, 0, 2]))
    v = cocar_witness_check()
    assert v.status == REFUTED and v.evidence.startswith("face d_2 of the witness of")


# ---------------------------------------------------------------- limit cones


def test_final_vertex_of_interval():
    C = d1_sharp()
    K, g = empty_cone(C, "1", "inn")
    v = check_limit_cone(C, K, g, "inn", cap=3, bound=3)
    assert v.status == VERIFIED


def test_nonfinal_vertex_refuted():
    C = d1_sharp()
    K, g = empty_cone(C, "0", "inn")
    v = check_limit_cone(C, K, g, "inn", cap=3, bound=3)
    assert v.status == REFUTED


def test_truncated_input_inconclusive():
    # a 3-truncated infinite-dimensional complex: the walking isomorphism
    from ssw.catalog import j_truncated

    C = Scaled(j_truncated(3), frozenset(j_truncated(3).level(2)))
    K, g = empty_cone(C, "1", "inn")
    v = check_limit_cone(C, K, g, "inn", cap=2, bound=2)
    assert v.status == INCONCLUSIVE


# ---------------------------------------------------------------- coinitiality


def test_refute_coinitial_identity_inconclusive():
    C = d1_sharp()
    K = MarkedScaled(C.base, frozenset(), C.thin)
    h = identity_map(C.base)
    sl = thick_slice_over_vertex(C, "1", "out", cap=2)
    fibs = [(sl.projection, sl.scaled, frozenset(sl.total.marked))]
    v = refute_coinitial(h, K, K, fibs, cap=2)
    assert v.status == INCONCLUSIVE


def test_refute_coinitial_missing_component():
    from ssw.core import coproduct

    two = coproduct(standard_simplex(0), standard_simplex(0)).sset
    L = MarkedScaled(two)
    sub, incl = __import__("ssw.core", fromlist=["subcomplex"]).subcomplex(two, ["0"])
    K = MarkedScaled(sub)
    # constant fibration with a two-point fiber over L
    P, pr1, pr2 = product(two, two)
    fibs = [(pr1, Scaled(P), frozenset())]
    v = refute_coinitial(incl, K, L, fibs, cap=1)
    assert v.status == REFUTED


def test_rlp_closed_under_pushout_and_composite():
    """The engine's verdicts are stable under pushouts and composites of a
    generator it already lifts against."""
    from ssw.core import subcomplex
    from ssw.decor import pushout_ms, restrict_ms
    from ssw.fibration import Generator, GeneratorFamily
    from ssw.tensor import flat_ms

    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=3)
    p = sl.projection
    gen = scaled_inner_horn(2, 1)
    base_family = GeneratorFamily("base", [gen], 2)
    assert has_rlp(p, sl.total, C.sharp_marked(), base_family).status == VERIFIED

    # pushout of the generator along a horn collapse
    pushed = pushed_horn()
    assert has_rlp(p, sl.total, C.sharp_marked(), GeneratorFamily("pushed", [pushed], 2)).status == VERIFIED

    # composite: the horn inclusion followed by the pushout inclusion of a
    # second triangle glued along the same horn
    Q_ms, leg_t2, leg_b2 = pushout_ms(gen.left, identity_map(gen.A.base).then(gen.left), gen.B, gen.B)
    composite = Generator("composite", gen.left.then(leg_t2), gen.A, Q_ms)
    assert has_rlp(p, sl.total, C.sharp_marked(), GeneratorFamily("composite", [composite], 2)).status == VERIFIED


def test_thin_composite_two_out_of_three():
    """On catalog weak fibrations, for a thin triangle whose top edge is
    cartesian, the two remaining edges are cartesian together."""
    checked = 0
    for n, x in ((1, "1"), (2, "2")):
        C = scale(standard_simplex(n), SHARP)
        sl = slice_over_vertex(C, x, cap=3)
        p = sl.projection
        base = sl.total.base

        def verdict(pair):
            return classify_edge(p, sl.scaled, C, pair, "cartesian", bound=3).status

        for t in sl.total.thin:
            top = EZ(t, idop(2))
            d0, d1, d2 = base.face(top, 0), base.face(top, 1), base.face(top, 2)
            if verdict(d0) == VERIFIED:
                assert verdict(d1) == verdict(d2)
                checked += 1
    assert checked > 0


def test_inner_fibration_refuted_by_thin_detection():
    """Identity on the base from flat to sharp scaling fails detection."""
    C_flat, C_sharp = d2_flat(), d2_sharp()
    p = identity_map(C_flat.base)
    v = is_inner_fibration(p, C_flat, C_sharp, bound=2)
    assert v.status == REFUTED
    assert "detection" in v.evidence


def test_refute_coinitial_identity_vertex_of_outer_slice():
    """The inclusion of the identity vertex into the outer slice over a final
    vertex finds no refutation against the slice fibration itself."""
    from ssw.core import subcomplex

    C = d1_sharp()
    sl = thick_slice_over_vertex(C, "1", "out", cap=3, side="over")
    # the identity vertex: the slice vertex whose representing map collapses
    # the interval (every image degenerate down to a point)
    id_vertex = None
    for c in sl.total.base.level(0):
        m = sl.cell_maps[c]
        if all(not pair.is_nondeg() or pair.deg == 0 for pair in m.images.values()):
            id_vertex = c
            break
    assert id_vertex is not None
    sub, incl = subcomplex(sl.total.base, [id_vertex])
    K = MarkedScaled(sub)
    L = MarkedScaled(sl.total.base, sl.total.marked, sl.total.thin)
    fibs = [(identity_map(L.base), sl.scaled, frozenset(L.base.level(1)))]
    v = refute_coinitial(incl, K, L, fibs, cap=2)
    assert v.status == INCONCLUSIVE


def test_cartesian_table_over_point():
    """Over the point, nondegenerate poset edges are not cartesian, degenerate
    lifts carry the fibration, and detectable equivalences are cartesian."""
    from ssw.core import constant_map
    from ssw.catalog import j_truncated

    pt = Scaled(standard_simplex(0))
    C = d1_sharp()
    p = constant_map(C.base, pt.base, "0")
    verdict, table = is_var_cartesian_fibration(p, C, pt, "out", co=False, bound=3)
    assert verdict.status == VERIFIED
    assert table == frozenset()  # the 01 edge of a poset is not invertible
    J3 = j_truncated(3)
    CJ = Scaled(J3, frozenset(J3.level(2)))
    pj = constant_map(J3, pt.base, "0")
    v = classify_edge(pj, CJ, pt, EZ("01", (0, 1)), "cartesian", bound=2)
    assert v.status == VERIFIED  # an equivalence edge, detectable at bound 2


def test_rlp_closed_under_retract():
    """A generator is a retract of its coproduct with a point; verdicts agree."""
    from ssw.core import coproduct
    from ssw.decor import restrict_ms
    from ssw.fibration import Generator, GeneratorFamily

    C = d2_sharp()
    sl = slice_over_vertex(C, "2", cap=3)
    p = sl.projection
    gen = scaled_inner_horn(2, 1)
    pt = standard_simplex(0)
    A2 = coproduct(gen.A.base, pt)
    B2 = coproduct(gen.B.base, pt)
    left2 = SMap(
        A2.sset,
        B2.sset,
        {
            **{x: B2.incl1.images[gen.left.images[x].core] for x in gen.A.base.dim_of},
            A2.incl2.images["0"].core: B2.incl2.images["0"],
        },
    )
    Am = MarkedScaled(A2.sset, frozenset(), frozenset())
    Bm = MarkedScaled(B2.sset, frozenset(), frozenset({"012"}))
    fat = Generator("coproduct", left2, Am, Bm)
    v_fat = has_rlp(p, sl.total, C.sharp_marked(), GeneratorFamily("fat", [fat], 2))
    v_thin = has_rlp(p, sl.total, C.sharp_marked(), GeneratorFamily("thin", [gen], 2))
    assert v_fat.status == v_thin.status == VERIFIED


def test_limit_cone_rejects_a_diagram_that_is_not_scaled():
    """The cone on flat Delta^1 has a thin triangle; a map onto flat Delta^2 that
    hits 012 with it is not a scaled map.  At bound 1 flat Delta^2 is not
    refuted as an ambient, so the diagram check is reached."""
    C = Scaled(standard_simplex(2))
    K = MarkedScaled(standard_simplex(1))
    cn = cone("inn", "left", K)
    g = next(
        m for m in enumerate_maps(cn.ms.base, C.base)
        if any(m(EZ(t, (0, 1, 2))).is_nondeg() for t in cn.ms.thin)
    )
    with pytest.raises(SSetError, match="cone diagram is not a scaled map"):
        check_limit_cone(C, K, g, "inn", cap=1, bound=1)


def test_limit_cone_never_verified_when_unsaturated():
    """With a cap too small to reach saturation, the checker must not claim
    VERIFIED even at a genuine final vertex."""
    C = d2_sharp()
    K, g = empty_cone(C, "2", "inn")
    v = check_limit_cone(C, K, g, "inn", cap=2, bound=2)
    assert v.status == INCONCLUSIVE
    assert "not saturated" in v.evidence


# ---------------------------------------------------------------- generator constructors and shared families

# sha256 of every generating family at bounds 0-5 and of the edge horns at
# n = 2..5, from tests/generator_fingerprints.py, taken on the hand-written
# constructors that simplex_generator and edge_horn replaced.
GENERATOR_FINGERPRINTS = {
    "weak-fibration 0": "d202761b52ad1e700b538e4da32da9aa130b4492fab05169fa08a36d960d5976",
    "inner-horns 0": "a465675d4308fce1383b485051e2d4da75d0452ffc566aa359e66aab86a1f12d",
    "outer-horns 0": "8269ee61bc9009fa2a954865bc8d49fdab32933e0fc1c65d9803a4b3699078ed",
    "boundaries 0": "da9539afb87f9cffc5ab7ddee5a28acd2cb5d5b3b9cbc94a78bf55dcf934a287",
    "boundaries marked 0": "98392770bab84d5bd214796faf73d745757e8c4142484b9bad7da8e963e7832b",
    "boundaries both 0": "7b4e1339c252bdad329fc67592ae24abc65da4e49f59ae4b30703e2a21077e5f",
    "outer-cartesian-anodyne 0": "c931119b9db3235ebbc7e5fc997a300f638f17fa43ba3f78423a4401e1bcbac5",
    "scaled-anodyne 0": "0d837cc9cf1f11c7b32c4dae42ff6e988c1fd560691710588381e086e3df47ca",
    "weak-fibration 1": "0c1b7c4adf4a3a05e9861bd7b849b45f018d9e61416959de836e26fa740e8612",
    "inner-horns 1": "aab165a32082ebc44094fc870ab0fcabac270df5805c81c089a5fa88ed1e62ee",
    "outer-horns 1": "71ff363b5bedb7d23ce20ec68ea6e1c84600a2c455207cbae2f798f07a8f90fe",
    "boundaries 1": "edc38c5a716bec93f817428c2913a1cbea7ab0361ada33abc0600a83b1ab72f9",
    "boundaries marked 1": "543da09c280539a0600a6143d3924462ffc955427f5bc4df215612cfe6768819",
    "boundaries both 1": "be6a96150ef10cfb804d0b41d54d9f218e29f8348234592bbd0761c6ce7eab9c",
    "outer-cartesian-anodyne 1": "b88c0a47f8aab09190dbd31c09abbab7d3bb23fac3730b70a2209f54f79eecd6",
    "scaled-anodyne 1": "25e05bb19e5cfb568ac611dda63ee536394aa56d88f0250aa107218df9a35826",
    "weak-fibration 2": "c41d3aa335acc9259382c063251b8af0d1fe1fd43e48e7eed9ff67309e131604",
    "inner-horns 2": "a3fe7005e77aa01442e9c0361b0c93522243eafaa84a899403f4302c3d1b650a",
    "outer-horns 2": "ed8449e391406d0f4ca233073617c4544cbd5e9f07f41a642061b56aa49189dc",
    "boundaries 2": "8c682b7f851c8ae1f49e7c05928504890e6cb80a73d160e5188907bd956ff269",
    "boundaries marked 2": "5cde45918962992c1ad704d5c1b48de220198de09664e54ead4435527788af9a",
    "boundaries both 2": "db5256af90cbc1db6cb89c0c0a28a495b21565a4cec2f60c4bc628d5eb09f29f",
    "outer-cartesian-anodyne 2": "a1643d2967ad8f5658430d3464f9d4452bd285e6b5362c2556f8b33b7f704636",
    "scaled-anodyne 2": "0cd1e2ac6be55dbbd9d73c27edfdb5b9c47451582db3544b634c160563774f6b",
    "weak-fibration 3": "3e5dba8100c3158a8ff016ceb7cf67ec96f54e4b41923928484c3dae6a591639",
    "inner-horns 3": "b3b99d6b6f6ced0bf19212c7a856df68bf877dc00231c87ecbe7a68e3e7d3984",
    "outer-horns 3": "ae917666c47bbdaa8d26ffb7e20e602d0f447a31688c9727ca822654494e4536",
    "boundaries 3": "9f29a811659ba8366dad833bbd8e749936ef584e148516d5da9d0615de48ad50",
    "boundaries marked 3": "5c7ad707134f80a7e5a57e944ff7314f687e9e3c028ac61a85f6c1d69dcfc0d5",
    "boundaries both 3": "1a3a0ab232a94fea4d9c415fa5de5249f1dc310ff42e8f4e0d37150439fb622d",
    "outer-cartesian-anodyne 3": "96e89ac4e7e0f5b14dcd4c0e3d57f49dab540f8865e45ded43252b9fff53680d",
    "scaled-anodyne 3": "453114e0bc8af88ec829c2131171b56bf52c9a6d5228a7518b110cd349204de2",
    "weak-fibration 4": "93347a886f67cede1c680a07b798bf258a6010b7d02feabca25840b6d3a3365b",
    "inner-horns 4": "bd172208ae20b4a0aa18bb3aa71407aff4288073c8a07cb00cc3940801a06a2e",
    "outer-horns 4": "28b70d91e266d22ebd6b27aca084feef5a0a6e9367fdbb35392362677129ed1d",
    "boundaries 4": "6c9f7e057b6a513745f227dba38245879b7f8449543b52f1201da8fc413c859c",
    "boundaries marked 4": "b8c229844fb177533a6438ed3176d4d31cff6e41fe7806d658e4a9220b7ce41c",
    "boundaries both 4": "24ea8199c791dbf05a7ff4a7c79d865433c3515b66d9ef03e2ddd90b2eb4cd66",
    "outer-cartesian-anodyne 4": "ce56a3789970b0843af128e8c3c91c06316599cac9c7adf6c41120d17b53afa4",
    "scaled-anodyne 4": "9c608492c00c4b6f20a8878e81fd0765140326989dfefd2234eeed67a9838cd2",
    "weak-fibration 5": "13b4adfa6c056cac9a65a3fb9dc0bdaf9f04d4bf62569b012f668967701ad0d2",
    "inner-horns 5": "11e26b3fef5d63693128a1058679388910b01906082881e127af010fc944e750",
    "outer-horns 5": "dcde9ebeadd64e07041985577091ac1a6c901faf91a9ed0b7f01ebf3be463ab3",
    "boundaries 5": "79700d4529da5d6bc5cd41fb5624c9c8c630008a489adcd8c4168766eb5bf1d2",
    "boundaries marked 5": "f9d5ab7ac86fcc9998a05d3b95230f762310ce9c89f4b0b27669710fc62bdb77",
    "boundaries both 5": "f7939dda1a24e110138566fd9b3acedc06e14c494075ab06491a93f72fd694c3",
    "outer-cartesian-anodyne 5": "2c7e7747acba4a24732eb3bdeebd0b4f4741f7d0f55ae62593bdc87527dfa70a",
    "scaled-anodyne 5": "757ea0f12f559f0fc3c1b6a4387432fa9128048e45c621ba280d942d549445e1",
    "cartesian-edge 2": "b4932e6347d603ca629090f5c38b2154d1738b41f5eedfbeeb5bc7fd6e8e23fc",
    "cartesian-edge 3": "1cf4b5542608ac7538694e25286cdb42ed472e0f257474e3a4b952a628be9886",
    "cartesian-edge 4": "2b843c9107bbd1ad19e5fb6b1f28f9c37586d98414139174920eafcfe708a2a3",
    "cartesian-edge 5": "588264ad38fc54409d14ea816ae2bcb3268ac7890eaa261cb35f7e23ca3bb132",
    "weak-edge 2": "15a7c5582612355c59bfe48490178fb8fcfe97ceb7645530d59ca875e9252d53",
    "weak-edge 3": "62aaca563655a8a0c71a1895d9a8797685dd940861e48e3d1e4f185f63441369",
    "weak-edge 4": "fa4035788ad4218517dfba6dfe56dcf752d86bdb724a8bd5e23e732c93e7aef5",
    "weak-edge 5": "4009bb7262d8821749fd91645e0d66ed9651d79608139c533dd24cbbcb734a5e",
    "strong-edge 2": "0152bc98359db1071a1109ce7f8a5589ec46aa3abd340cf600f6a080833b960f",
    "strong-edge 3": "3b1fd200ff25ca97f4c8f382352f22e2a1439b9160651d564dacf115513aa5f3",
    "strong-edge 4": "2093661a96da227731b8cbad12fd4bebd6df2e4c6aecaf5163215810478a6f3f",
    "strong-edge 5": "57a4474656c9887d79e2e8d9ab6073dd5b52b545eee49ad8ff81b9e3a509120b",
}


def test_generators_match_their_pinned_fingerprints():
    from generator_fingerprints import fingerprints

    assert fingerprints() == GENERATOR_FINGERPRINTS


def test_generators_name_cells_of_simplices_from_dimension_ten():
    assert edge_horn("cartesian", 10).B.thin == {"0.9.10"}
    assert is_infty_bicategory(scale(standard_simplex(0)), 10) == Verdict(VERIFIED, bound=10)


def counting(monkeypatch, name):
    """Replace ssw.fibration.<name> by a wrapper that records its arguments."""
    import ssw.fibration as fibration

    calls = []
    inner = getattr(fibration, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fibration, name, wrapper)
    return calls


def test_families_that_depend_only_on_their_bound_are_built_once(monkeypatch):
    assert weak_fibration_family(3) is weak_fibration_family(3)
    assert isinstance(weak_fibration_family(3).generators, tuple)
    p, X, Y = to_point(d2_sharp()), d2_sharp(), Scaled(standard_simplex(0))
    first = is_weak_fibration(p, X, Y, 3)
    built = counting(monkeypatch, "collapsed_horn_generator")
    assert is_weak_fibration(p, X, Y, 3) == first
    assert built == []


def test_edge_families_are_built_per_call(monkeypatch):
    import ssw.fibration as fibration

    built = counting(monkeypatch, "edge_horn")
    e = EZ("01", (0, 1))
    first, second = fibration._edge_family("weak", e, 3), fibration._edge_family("weak", e, 3)
    assert first is not second and first == second
    assert len(built) == 4


def criterion_6_fibrations():
    """The three fibrations of criterion 6, with their base."""
    d1 = standard_simplex(1)
    C = scale(d1, SHARP)
    under = thick_slice_over_vertex(C, "0", "inn", cap=3, side="under")
    return [(identity_map(d1), Scaled(d1)), (product(d1, d1).pr2, Scaled(d1)), (under.projection, C)]


def test_fibered_checks_decide_each_pullback_edge_once(monkeypatch):
    decided = counting(monkeypatch, "_classical_cocartesian")
    for p, S in criterion_6_fibrations():
        X = MarkedScaled(p.source, locally_cocartesian_edges(p, S, bound=3), frozenset())
        assert is_P_fibered(p, X, S, bound=3).status == VERIFIED
    keys = [(id(q), e) for q, e, _ in decided]
    assert keys and len(keys) == len(set(keys))


def test_locally_cocartesian_edges_pulls_back_once_per_image_edge(monkeypatch):
    for p, S in criterion_6_fibrations():
        pulled = counting(monkeypatch, "pullback")
        locally_cocartesian_edges(p, S, bound=3)
        images = {p(EZ(e, idop(1))) for e in p.source.level(1)}
        assert len(pulled) == len(images)
