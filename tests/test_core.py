import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_isomorphic
from ssw.core import (
    EZ,
    CapError,
    SSetError,
    boundary,
    boundary_inclusion,
    collapse,
    constant_map,
    coproduct,
    empty_sset,
    enumerate_maps,
    ez_str,
    fiber,
    horn,
    horn_inclusion,
    identity_map,
    isomorphisms,
    join_sset,
    joint_core,
    multi_product,
    opposite,
    product,
    product_cell,
    pullback,
    pushout_mono,
    q_complex,
    simplex_cell,
    simplex_map,
    standard_simplex,
    subcomplex,
    SMap,
    SSet,
)
from ssw.ops import degeneracy_op, face_op, idop

from posets import poset_nerves


# ---------------------------------------------------------------- standard cells


def test_standard_simplex_counts():
    assert standard_simplex(0).counts() == (1,)
    assert standard_simplex(2).counts() == (3, 3, 1)
    assert standard_simplex(3).counts() == (4, 6, 4, 1)


def test_boundary_and_horn_counts():
    assert boundary(2).counts() == (3, 3)
    h = horn(2, 1)
    assert h.counts() == (3, 2)
    assert set(h.level(1)) == {"01", "12"}
    h30 = horn(3, 0)
    assert h30.counts() == (4, 6, 3)
    assert set(h30.level(2)) == {"012", "013", "023"}


def test_subcomplex_requires_face_closure():
    d2 = standard_simplex(2)
    with pytest.raises(SSetError):
        subcomplex(d2, ["012"])


# ---------------------------------------------------------------- EZ normalization


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_ez_uniqueness_fuzz(n, word):
    """Applying any formal degeneracy word yields exactly one normal form."""
    X = standard_simplex(3)
    cells = [x for level in X.cells for x in level if X.dim_of[x] == n]
    if not cells:
        return
    x = cells[len(word) % len(cells)]
    pair = EZ(x, idop(n))
    m = n
    for raw in word:
        i = raw % (m + 1)
        pair = X.act(pair, degeneracy_op(m, i))
        m += 1
    assert pair.deg == n + len(word)
    # re-normalizing the stored op is the identity
    assert X.act(EZ(pair.core, idop(X.dim_of[pair.core])), pair.op) == pair


def test_simplices_enumeration_matches_hom_sets():
    # n-simplices of Y correspond to maps Delta^n -> Y
    for n in range(4):
        for Y in (standard_simplex(1), standard_simplex(2), horn(2, 1)):
            maps = enumerate_maps(standard_simplex(n), Y)
            assert len(maps) == len(Y.simplices(n))


def test_smap_rejects_images_of_unknown_cells():
    d0, d1 = standard_simplex(0), standard_simplex(1)
    with pytest.raises(SSetError, match="image given for unknown cell 'junk'"):
        SMap(d0, d1, {"0": EZ("0", (0,)), "junk": EZ("1", (0,))})._validate()
    assert SMap(d0, d1, {"0": EZ("0", (0,))}).images == {"0": EZ("0", (0,))}


def test_sset_keeps_face_tuples_that_are_already_ez():
    X = standard_simplex(2)
    Y = SSet(X.cells, X.faces)
    assert all(Y.faces[x] is X.faces[x] for x in X.faces)


def test_sset_drops_many_trailing_empty_levels_in_one_pass():
    """Trailing empty levels are dropped at once, not one tuple slice at a
    time, which took time quadratic in their number; inner empty levels stay."""
    X = SSet([["a"], [], ["b"]] + [[]] * 10**6, {"b": (EZ("a", (0, 0)),) * 3})
    assert X.cells == (("a",), (), ("b",)) and X.dim == 2 and SSet([[]] * 10**6, {}).cells == ()


# ---------------------------------------------------------------- validation


def _vertices_and_edges(edges):
    """Cells and faces of vertices 0..3 and the named edges "ab" from a to b."""
    faces = {e: (EZ(e[1], (0,)), EZ(e[0], (0,))) for e in edges}
    return [["0", "1", "2", "3"], list(edges)], faces


def test_validation_rejects_faces_that_disagree_at_a_vertex():
    cells, faces = _vertices_and_edges(["01", "12", "03"])
    cells.append(["t"])
    faces["t"] = (EZ("12", (0, 1)), EZ("03", (0, 1)), EZ("01", (0, 1)))
    with pytest.raises(SSetError, match="simplicial identity"):
        SSet(cells, faces)._validate()


def test_validation_rejects_a_degenerate_face_that_disagrees():
    cells, faces = _vertices_and_edges(["01", "02"])
    cells.append(["t"])
    faces["t"] = (EZ("2", (0, 0)), EZ("02", (0, 1)), EZ("01", (0, 1)))
    with pytest.raises(SSetError, match="simplicial identity"):
        SSet(cells, faces)._validate()
    faces["t"] = (EZ("1", (0, 0)), EZ("01", (0, 1)), EZ("01", (0, 1)))
    X = SSet(cells, faces)
    X._validate()
    assert X.counts() == (4, 2, 1)


def test_validation_rejects_a_wrong_number_of_faces():
    cells, faces = _vertices_and_edges(["01"])
    faces["01"] = (EZ("1", (0,)),)
    with pytest.raises(SSetError, match="needs 2 faces"):
        SSet(cells, faces)._validate()
    d2 = standard_simplex(2)
    faces = dict(d2.faces)
    faces["012"] = faces["012"] + (EZ("01", (0, 1)),)
    with pytest.raises(SSetError, match="needs 3 faces"):
        SSet(d2.cells, faces)._validate()


def test_validation_rejects_a_non_epi_face_operator():
    d2 = standard_simplex(2)
    faces = dict(d2.faces)
    faces["012"] = (EZ("01", (1, 1)),) + faces["012"][1:]
    with pytest.raises(SSetError, match="not an epi"):
        SSet(d2.cells, faces)._validate()


def test_validation_rejects_cells_above_the_cap():
    d3 = standard_simplex(3)
    with pytest.raises(CapError, match="nondegenerate cells in dimension 3 > cap 2"):
        SSet(d3.cells, d3.faces, dim_cap=2)
    assert SSet(d3.cells, d3.faces, dim_cap=3) == d3


def test_constant_map_needs_a_vertex_of_its_target():
    d1 = standard_simplex(1)
    with pytest.raises(SSetError, match="image core 'nope' missing in target"):
        constant_map(d1, d1, "nope")
    with pytest.raises(SSetError, match="image core '01' is not a vertex of target"):
        constant_map(d1, d1, "01")
    assert constant_map(d1, d1, "1").images == {"0": EZ("1", (0,)), "1": EZ("1", (0,)), "01": EZ("1", (0, 0))}


def test_simplex_names_stay_distinct_from_dimension_twelve():
    """A lone vertex whose digits increase ends in a dot: "12" is the edge 1 < 2.
    Below dimension 12 no vertex name needs one, so those names are unchanged."""
    d12 = standard_simplex(12)
    d12._validate()
    assert len(d12.dim_of) == 2**13 - 1
    assert d12.level(0)[9:] == ("9", "10", "11", "12.")
    assert d12.faces["12"] == (EZ("2", (0,)), EZ("1", (0,)))
    assert d12.faces["1.12"] == (EZ("12.", (0,)), EZ("1", (0,)))
    assert simplex_cell([12]) == "12." and simplex_cell([2, 1]) == "12" and simplex_cell([10]) == "10"
    assert standard_simplex(11).level(0)[9:] == ("9", "10", "11")


# ---------------------------------------------------------------- products


def test_product_square():
    d1 = standard_simplex(1)
    P = product(d1, d1).sset
    assert P.counts() == (4, 5, 2)


def test_product_unit():
    d0 = standard_simplex(0)
    Y = horn(3, 0)
    P = product(d0, Y).sset
    assert is_isomorphic(P, Y)


def test_product_prism():
    P = product(standard_simplex(1), standard_simplex(2)).sset
    assert len(P.level(3)) == 3


def test_product_symmetry():
    X, Y = standard_simplex(1), standard_simplex(2)
    assert is_isomorphic(product(X, Y).sset, product(Y, X).sset)


def test_product_cap_guard():
    d2 = standard_simplex(2)
    with pytest.raises(CapError):
        product(d2, d2, dim_cap=3)


def test_multi_product_of_one_factor_leaves_the_factor_alone():
    # standard_simplex is memoized, so an attribute set on it would leak to every caller
    d1 = standard_simplex(1)
    attrs = set(vars(d1))
    mp = multi_product([d1])
    assert set(vars(d1)) == attrs
    assert product_cell(mp, (EZ("01", (0, 1)),)) == EZ("01", (0, 1))


def test_multi_product_cell_lookup():
    d1 = standard_simplex(1)
    mp = multi_product([d1, d1, d1])
    assert mp.sset.counts()[0] == 8
    pairs = (EZ("01", (0, 1)), EZ("0", (0, 0)), EZ("01", (0, 1)))
    cell = product_cell(mp, pairs)
    assert cell.deg == 1
    assert all(pr(cell) == p for pr, p in zip(mp.projections, pairs))


def test_pair_cell_inverts_the_projections_and_rejects_other_complexes():
    from ssw.core import pair_cell

    P, pr1, pr2 = product(standard_simplex(2), standard_simplex(1))
    for x, n in P.dim_of.items():
        top = EZ(x, idop(n))
        assert pair_cell(P, pr1(top), pr2(top)) == top
        for i in range(n + 1):
            s = P.act(top, degeneracy_op(n, i))
            assert pair_cell(P, pr1(s), pr2(s)) == s
    with pytest.raises(SSetError):
        pair_cell(standard_simplex(1), EZ("01", (0, 1)), EZ("0", (0, 0)))


def _faces_by_act(X, s):
    """The faces of a simplex one at a time through act, as they were computed before."""
    return tuple(X.act(s, face_op(s.deg, i)) for i in range(s.deg + 1)) if s.deg else ()


def check_faces_of(X, top=4):
    """faces_of against act on every simplex of degree <= top; a nondegenerate
    simplex gets its stored face tuple itself."""
    for n in range(top + 1):
        for s in X.simplices(n):
            assert X.faces_of(s) == _faces_by_act(X, s), s
            if n and s.is_nondeg():
                assert X.faces_of(s) is X.faces[s.core]


def check_smap_call(f, top=4):
    """f(pair) against img∘op on every simplex of the source of degree <= top
    and on every pair (x, op) with op: [m] -> [dim x] monotone but not an epi
    (not EZ-normal), m <= top."""
    X = f.source
    pairs = [s for n in range(top + 1) for s in X.simplices(n)]
    pairs += [
        EZ(x, op)
        for x, k in X.dim_of.items()
        for m in range(top + 1)
        for op in itertools.combinations_with_replacement(range(k + 1), m + 1)
        if op[0] != 0 or op[-1] != k or any(b - a > 1 for a, b in zip(op, op[1:]))
    ]
    for pair in pairs:
        img = f.images[pair.core]
        assert f(pair) == EZ(img.core, tuple(img.op[v] for v in pair.op)), pair


def check_maps_out_of(X):
    """SMap.__call__ through the identity of X and the projection X x Delta^1 -> X,
    whose images are mostly degenerate."""
    check_smap_call(identity_map(X))
    if 0 <= X.dim <= 4:
        check_smap_call(product(X, standard_simplex(1)).pr1)


def test_faces_of_matches_act_on_the_catalog_and_a_thick_join():
    from ssw.catalog import catalog
    from ssw.tensor import flat_ms, thick_join

    for name, X in sorted(catalog().items()):
        check_faces_of(X.base)
    check_faces_of(thick_join("out", flat_ms(2), flat_ms(2)).total.base)


@given(poset_nerves())
@settings(max_examples=30, deadline=None)
def test_faces_of_matches_act_on_nerves(X):
    check_faces_of(X)


def test_smap_call_matches_composition_on_the_catalog_and_a_thick_join():
    from ssw.catalog import catalog
    from ssw.tensor import flat_ms, thick_join

    for name, X in sorted(catalog().items()):
        check_maps_out_of(X.base)
    check_smap_call(identity_map(thick_join("out", flat_ms(2), flat_ms(2)).total.base))


@given(poset_nerves())
@settings(max_examples=30, deadline=None)
def test_smap_call_matches_composition_on_nerves(X):
    check_maps_out_of(X)


def check_simplex_maps(X):
    """simplex_map(X, sigma) is a map Delta^n -> X with top image sigma and
    vertex images the vertices of sigma, for every simplex of degree <= 3."""
    for n in range(4):
        for sigma in X.simplices(n):
            f = simplex_map(X, sigma)
            f._validate()
            assert f.source is standard_simplex(n) and f.target is X
            assert f(EZ(simplex_cell(range(n + 1)), idop(n))) == sigma
            assert tuple(f.images[str(v)].core for v in range(n + 1)) == X.vertices_of(sigma)


def test_simplex_map_on_the_catalog():
    from ssw.catalog import catalog

    for name, X in sorted(catalog().items()):
        check_simplex_maps(X.base)
    with pytest.raises(SSetError, match="no cell 'x'"):
        simplex_map(standard_simplex(1), EZ("x", (0,)))
    for sigma in (EZ("01", (0,)), EZ("01", (0, 0)), EZ("0", (0, 1))):  # a vertex of an edge, or not onto
        with pytest.raises(SSetError, match="not in EZ normal form"):
            simplex_map(standard_simplex(1), sigma)


@given(poset_nerves())
@settings(max_examples=30, deadline=None)
def test_simplex_map_on_nerves(X):
    check_simplex_maps(X)


def filtered_product(X, Y):
    """Cells and faces of X x Y by testing every pair of n-simplices, with the
    faces through act: the product as it was built before shuffle tables."""
    cells, index = [], {}
    for n in range(X.dim + Y.dim + 1):
        level = []
        for a in X.simplices(n):
            for b in Y.simplices(n):
                if len(set(zip(a.op, b.op))) == n + 1:  # jointly nondegenerate
                    index[(a, b)] = f"({ez_str(a)},{ez_str(b)})"
                    level.append(index[(a, b)])
        cells.append(tuple(level))
    faces = {}
    for (a, b), x in index.items():
        if a.deg:
            split = (joint_core(f) for f in zip(_faces_by_act(X, a), _faces_by_act(Y, b)))
            faces[x] = tuple(EZ(index[cores], sigma) for cores, sigma in split)
    return tuple(cells), faces, {x: k for k, x in index.items()}


def check_product(X, Y):
    P, pr1, pr2 = product(X, Y)
    cells, faces, back = filtered_product(X, Y)
    assert P.cells == cells and P.faces == faces
    assert {x: (pr1.images[x], pr2.images[x]) for x in P.dim_of} == back


@pytest.mark.parametrize("k,l", [(k, l) for k in range(4) for l in range(4)])
def test_product_of_simplices_matches_the_filtered_product(k, l):
    check_product(standard_simplex(k), standard_simplex(l))


def test_product_of_horns_and_boundaries_matches_the_filtered_product():
    for X in (horn(3, 1), boundary(2), q_complex()):
        for Y in (boundary(3), horn(2, 0), standard_simplex(1)):
            check_product(X, Y)


@given(poset_nerves(), poset_nerves())
@settings(max_examples=30, deadline=None)
def test_product_of_nerves_matches_the_filtered_product(X, Y):
    if X.dim >= 0 and Y.dim >= 0:
        check_product(X, Y)


def test_product_matches_the_filtered_product_where_few_simplices_have_partners():
    # an (x, sigma) of degree n with dim x + dim Y < n has no shuffle partner
    from ssw.tensor import flat_ms, thick_join

    d0, d1 = standard_simplex(0), standard_simplex(1)
    total = thick_join("out", flat_ms(1), flat_ms(2)).total.base
    for X, Y in ((standard_simplex(5), d0), (standard_simplex(4), d1), (horn(3, 1), d1), (total, d1)):
        check_product(X, Y)


def test_product_splits_only_the_faces_that_are_degenerate_pairs(monkeypatch):
    import ssw.core

    calls = []

    def counting_joint_core(pairs):
        calls.append(pairs)
        return joint_core(pairs)

    monkeypatch.setattr(ssw.core, "joint_core", counting_joint_core)
    for X, Y in ((q_complex(), standard_simplex(1)), (standard_simplex(1), q_complex())):
        calls.clear()
        P, pr1, pr2 = product(X, Y)
        degenerate = {(pr1(f), pr2(f)) for fs in P.faces.values() for f in fs if not f.is_nondeg()}
        # one split per distinct degenerate face pair, however often it occurs
        assert len(calls) == len(set(calls)) == len(degenerate) > 0
        assert set(calls) == degenerate
        assert all(len(set(zip(a.op, b.op))) < len(a.op) for a, b in calls)


def test_smap_rejects_a_cell_without_an_image():
    d1 = standard_simplex(1)
    with pytest.raises(SSetError, match="no image for cell '01'"):
        SMap(d1, d1, {"0": EZ("0", (0,)), "1": EZ("1", (0,))})._validate()


def test_smap_rejects_an_image_of_the_wrong_degree():
    d1 = standard_simplex(1)
    with pytest.raises(SSetError, match="image of '01' has wrong degree"):
        SMap(d1, d1, {"0": EZ("0", (0,)), "1": EZ("1", (0,)), "01": EZ("0", (0,))})._validate()


def test_smap_rejects_images_that_do_not_commute_with_faces():
    d1, d2 = standard_simplex(1), standard_simplex(2)
    vertices = {"0": EZ("0", (0,)), "1": EZ("1", (0,))}
    for edge, i in ((EZ("02", (0, 1)), 0), (EZ("1", (0, 0)), 1)):
        with pytest.raises(SSetError, match=f"map does not commute with d{i} at '01'"):
            SMap(d1, d2, {**vertices, "01": edge})._validate()


def test_smap_rejects_images_not_in_ez_normal_form():
    d0, d1 = standard_simplex(0), standard_simplex(1)
    with pytest.raises(SSetError, match="EZ normal form"):
        SMap(d0, d1, {"0": EZ("01", (0,))})._validate()
    vertices = {"0": EZ("0", (0,)), "1": EZ("0", (0,))}
    for bad in (EZ("01", (0, 0)), EZ("0", (1, 1))):
        with pytest.raises(SSetError, match="EZ normal form"):
            SMap(d1, d1, {**vertices, "01": bad})._validate()
    f = SMap(d1, d1, {**vertices, "01": EZ("0", (0, 0))})
    f._validate()
    assert f.images["01"] == EZ("0", (0, 0))


# ---------------------------------------------------------------- joins


def test_join_of_simplices_is_simplex():
    for p in range(3):
        for q in range(3):
            J = join_sset(standard_simplex(p), standard_simplex(q)).sset
            assert is_isomorphic(J, standard_simplex(p + q + 1))


def test_join_with_empty():
    Y = horn(2, 1)
    J = join_sset(empty_sset(), Y).sset
    assert is_isomorphic(J, Y)
    J2 = join_sset(Y, empty_sset()).sset
    assert is_isomorphic(J2, Y)


def test_join_point_point():
    J = join_sset(standard_simplex(0), standard_simplex(0)).sset
    assert is_isomorphic(J, standard_simplex(1))


def test_join_associative_on_simplices():
    for a, b, c in [(0, 1, 2), (1, 1, 1), (2, 2, 2)]:
        da, db, dc = standard_simplex(a), standard_simplex(b), standard_simplex(c)
        left = join_sset(join_sset(da, db, dim_cap=8).sset, dc, dim_cap=8).sset
        right = join_sset(da, join_sset(db, dc, dim_cap=8).sset, dim_cap=8).sset
        assert is_isomorphic(left, right)


# ---------------------------------------------------------------- pushouts


def q_complex_oracle():
    """Brute-force pushout enumeration for Q = D0 u_{02} D3 u_{13} D0, dims <= 3.

    Words are monotone tuples over {0,1,2,3}; a word collapses to a point if it
    stays in {0,2} or in {1,3}.  Classes are counted modulo nothing else, and a
    class is nondegenerate if it is not the degeneracy of a lower class.
    """
    from itertools import combinations_with_replacement

    def cls(word):
        if set(word) <= {0, 2}:
            return ("a",) * len(word)
        if set(word) <= {1, 3}:
            return ("b",) * len(word)
        return word

    counts = []
    prev_classes = set()
    for n in range(4):
        words = set(cls(w) for w in combinations_with_replacement(range(4), n + 1))
        degen = set()
        for w in prev_classes:
            for i in range(n):
                degen.add(w[: i + 1] + w[i:])
        counts.append(len(words - degen))
        prev_classes = words
    return tuple(counts)


def build_q():
    d3 = standard_simplex(3)
    d0 = standard_simplex(0)
    e02, i02 = subcomplex(d3, ["0", "2", "02"])
    one = pushout_mono(i02, constant_map(e02, d0, "0"))
    # locate the image of the edge 13 in the pushout
    P1 = one.sset
    e13_cells = [one.leg_big.images[x].core for x in ("1", "3", "13")]
    sub13, incl13 = subcomplex(P1, e13_cells)
    two = pushout_mono(incl13, constant_map(sub13, d0, "0"))
    return two.sset


FROZEN_Q_COUNTS = (2, 4, 4, 1)  # from q_complex_oracle()


def test_q_pushout_counts():
    assert q_complex_oracle() == FROZEN_Q_COUNTS
    assert build_q().counts() == FROZEN_Q_COUNTS


def test_collapsed_edge_simplex():
    # Delta^2 with the edge 01 collapsed: oracle says (2, 2, 1)
    d2 = standard_simplex(2)
    d0 = standard_simplex(0)
    e01, i01 = subcomplex(d2, ["0", "1", "01"])
    res = pushout_mono(i01, constant_map(e01, d0, "0"))
    assert res.sset.counts() == (2, 2, 1)


def test_pushout_along_identity():
    X = horn(2, 1)
    res = pushout_mono(identity_map(X), identity_map(X))
    assert res.sset == X


# ---------------------------------------------------------------- opposites


def test_opposite_simplex_selfdual():
    for n in range(4):
        dn = standard_simplex(n)
        assert is_isomorphic(opposite(dn), dn)


def test_opposite_horn():
    assert is_isomorphic(opposite(horn(2, 0)), horn(2, 2))
    assert is_isomorphic(opposite(horn(3, 1)), horn(3, 2))


def test_opposite_involution_exact():
    for X in (standard_simplex(3), horn(3, 0), product(standard_simplex(1), standard_simplex(1)).sset):
        assert opposite(opposite(X)) == X


# ---------------------------------------------------------------- enumeration


def test_enumerate_maps_d1_d1():
    maps = enumerate_maps(standard_simplex(1), standard_simplex(1))
    assert len(maps) == 3


def test_enumerate_maps_d2_d1():
    maps = enumerate_maps(standard_simplex(2), standard_simplex(1))
    assert len(maps) == 4


def test_enumerate_maps_deterministic():
    a = [m.key() for m in enumerate_maps(standard_simplex(1), standard_simplex(2))]
    b = [m.key() for m in enumerate_maps(standard_simplex(1), standard_simplex(2))]
    assert a == b


def brute_force_maps(X, Y, partial=None, image_ok=None):
    """Keys of all maps X -> Y, by trying every assignment of simplices of Y
    to the cells of X, cells taken level by level."""
    partial = partial or {}
    order = [x for level in X.cells for x in level]
    out = []
    for combo in itertools.product(*(Y.simplices(X.dim_of[x]) for x in order)):
        images = dict(zip(order, combo))
        if any(images[x] != pin for x, pin in partial.items() if x in images):
            continue
        if image_ok is not None and not all(image_ok(x, c) for x, c in images.items()):
            continue
        try:
            f = SMap(X, Y, images)
            f._validate()
            out.append(f.key())
        except SSetError:
            continue
    return out


def map_keys(X, Y, **kwargs):
    return [m.key() for m in enumerate_maps(X, Y, **kwargs)]


ORACLE_PAIRS = [
    (horn(2, 1), standard_simplex(2)),
    (boundary(2), standard_simplex(1)),
    (standard_simplex(1), q_complex()),
]


@pytest.mark.parametrize("X,Y", ORACLE_PAIRS)
def test_enumerate_maps_matches_brute_force_in_order(X, Y):
    expected = brute_force_maps(X, Y)
    assert expected
    assert map_keys(X, Y) == expected
    assert map_keys(X, Y, first_only=True) == expected[:1]


def test_enumerate_maps_pins_and_image_ok_match_brute_force():
    X, Y = horn(2, 1), standard_simplex(2)
    pins = {"1": EZ("1", (0,))}

    def image_ok(x, c):
        return c != EZ("12", (0, 1))

    expected = brute_force_maps(X, Y, partial=pins, image_ok=image_ok)
    assert 0 < len(expected) < len(brute_force_maps(X, Y, partial=pins))
    assert map_keys(X, Y, partial=pins, image_ok=image_ok) == expected
    assert map_keys(X, Y, partial=pins, image_ok=image_ok, first_only=True) == expected[:1]
    edge_pin = {"01": EZ("02", (0, 1))}
    assert map_keys(X, Y, partial=edge_pin) == brute_force_maps(X, Y, partial=edge_pin)
    assert map_keys(X, Y, partial={"01": EZ("0", (0, 0)), "12": EZ("12", (0, 1))}) == []


def test_enumerate_maps_empty_source_and_target():
    E = empty_sset()
    assert map_keys(E, standard_simplex(1)) == brute_force_maps(E, standard_simplex(1)) == [()]
    assert map_keys(standard_simplex(1), E) == brute_force_maps(standard_simplex(1), E) == []


@given(poset_nerves(), poset_nerves())
@settings(max_examples=30, deadline=None)
def test_enumerate_maps_between_nerves_matches_brute_force(X, Y):
    assert map_keys(X, Y) == brute_force_maps(X, Y)
    check_search_plan(X)
    check_first_only(X, Y)


def check_search_plan(X):
    """The search order holds every cell of X once, after all of its faces,
    and ``levelwise`` reads it back level by level."""
    plan = X.search_plan()
    position = {x: k for k, x in enumerate(plan.order)}
    assert len(position) == len(plan.order) and position.keys() == X.dim_of.keys()
    assert all(position[f.core] < position[x] for x, fs in X.faces.items() for f in fs)
    assert [plan.order[k] for k in plan.levelwise] == list(X.dim_of)


def check_first_only(X, Y, **kwargs):
    """With first_only, one of the maps, or none if there is none."""
    full, first = map_keys(X, Y, **kwargs), map_keys(X, Y, first_only=True, **kwargs)
    assert first == [] if not full else len(first) == 1 and first[0] in full


def test_search_plans_and_first_maps_on_the_catalog():
    from ssw.catalog import catalog

    bases = {name: X.base for name, X in catalog(check_goldens=False).items()}
    for Y in bases.values():
        check_search_plan(Y)
        for X in (standard_simplex(2), horn(2, 1), boundary(2)):
            check_first_only(X, Y)
    # filtered, where the first map found is not the first map of the list
    banned = {EZ("0", (0, 0, 0)), EZ("123", (0, 1, 2)), EZ("23", (0, 0, 1)), EZ("23", (0, 1, 1))}
    filtered = {"image_ok": lambda x, c: c not in banned}
    check_first_only(standard_simplex(2), bases["q_sharp"], **filtered)
    full = map_keys(standard_simplex(2), bases["q_sharp"], **filtered)
    assert map_keys(standard_simplex(2), bases["q_sharp"], first_only=True, **filtered) != full[:1]


def counted_maps(X, Y):
    """The maps X -> Y and the number of candidate checks, counted as calls
    of image_ok, as the benchmark's tracer counts them."""
    checks = []

    def image_ok(x, c):
        checks.append(c)
        return True

    return len(enumerate_maps(X, Y, image_ok=image_ok)), len(checks)


def test_maps_onto_sphere_quotients_cut_dead_branches_at_once():
    """Delta^(n+3) -> Delta^n/boundary: each cell below dimension n may go to
    the point or to a degeneracy of the collapsed cell until a cell above it
    rules one out.  Assigning cells level by level made 610,871 checks for
    n = 3 (minutes for n = 4); assigning each cell right after its faces cuts
    a dead branch at the first cell above it."""
    for n, count, most in ((3, 21, 10_000), (4, 36, 100_000)):
        d = standard_simplex(n)
        S = collapse(d, [c for c, k in d.dim_of.items() if k < n]).sset
        maps, checks = counted_maps(standard_simplex(n + 3), S)
        assert (maps, checks <= most) == (count, True), checks


def test_searches_do_not_recurse_per_cell():
    d9 = standard_simplex(9)
    assert len(enumerate_maps(d9, standard_simplex(0))) == 1
    assert len(isomorphisms(d9, d9, first_only=False)) == 1
    assert is_isomorphic(d9, d9)


def test_isomorphisms_order_and_count_on_a_coproduct():
    two_edges = coproduct(standard_simplex(1), standard_simplex(1)).sset
    isos = isomorphisms(two_edges, two_edges, first_only=False)
    assert len(isos) == 2
    assert isos[0].images == identity_map(two_edges).images
    assert isomorphisms(two_edges, two_edges)[0].key() == isos[0].key()


def test_maps_into_q_with_endpoint_constraint():
    # edges of Q with both endpoints at the class of {0,2}: filter directly
    Q = build_q()
    a = [v for v in Q.level(0)][0]  # the first collapsed vertex
    d1 = standard_simplex(1)
    maps = enumerate_maps(d1, Q, partial={"0": EZ(a, (0,)), "1": EZ(a, (0,))})
    direct = [
        e
        for e in Q.simplices(1)
        if Q.face(e, 0) == EZ(a, (0,)) and Q.face(e, 1) == EZ(a, (0,))
    ]
    assert len(maps) == len(direct)


# ---------------------------------------------------------------- misc


def test_simplicial_identities_on_catalog():
    # validation itself checks d_i d_j = d_{j-1} d_i; build a spread of objects
    for X in (
        standard_simplex(3),
        boundary(3),
        horn(3, 2),
        product(standard_simplex(1), standard_simplex(2)).sset,
        join_sset(standard_simplex(1), standard_simplex(1)).sset,
        build_q(),
    ):
        assert X.dim >= 0


def test_pullback_of_projections():
    d1 = standard_simplex(1)
    d0 = standard_simplex(0)
    P, pr1, pr2 = product(d1, d1)
    pb = pullback(pr1, identity_map(d1))
    assert is_isomorphic(pb.sset, P)


def test_fiber_of_projection():
    d1, d2 = standard_simplex(1), standard_simplex(2)
    P, pr1, pr2 = product(d2, d1)
    for v in d1.level(0):
        F, _ = fiber(pr2, v)
        assert is_isomorphic(F, d2)


def test_fiber_missing_vertex_empty():
    d2 = standard_simplex(2)
    incl = SMap(standard_simplex(0), d2, {"0": EZ("1", (0,))})
    F, _ = fiber(incl, "0")
    assert F.counts() == ()


def test_coproduct():
    two = coproduct(standard_simplex(0), standard_simplex(0)).sset
    assert two.counts() == (2,)


def test_isomorphisms_count_of_simplex():
    # automorphisms of Delta^n as an unordered simplicial set: only the identity
    assert len(isomorphisms(standard_simplex(2), standard_simplex(2), first_only=False)) == 1


def test_horn_and_boundary_inclusions_mono():
    assert horn_inclusion(3, 1).is_mono()
    assert boundary_inclusion(2).is_mono()
