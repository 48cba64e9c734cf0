import re

import pytest

from helpers import core_thi, is_isomorphic, sharp_ms
from ssw.catalog import catalog
from ssw.core import (
    EZ,
    SSetError,
    boundary,
    enumerate_maps,
    first_missed_dim,
    opposite,
    pair_cell,
    product,
    pullback,
    simplex_map,
    standard_simplex,
    subcomplex,
)
from ssw.decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    decorate,
    decorated_isomorphisms,
    is_decorated_isomorphic,
    pulled_back_thin,
    scale,
    witness_face,
)
from ssw.ops import idop, op_reverse
from ssw.tensor import (
    flat_ms,
    gray_scaled,
    gray_variant_scalings,
    interval_sharp,
    join_eq_witnesses,
    marked_variants_witness,
    simplex_from_word,
)


def test_decorators_flat_sharp():
    d1 = standard_simplex(1)
    assert decorate(d1, SHARP, FLAT).marked == {"01"}
    assert decorate(d1, FLAT, FLAT).marked == frozenset()
    d2 = standard_simplex(2)
    assert scale(d2, FLAT).thin == frozenset()
    full = decorate(d2, SHARP, SHARP)
    assert full.marked == {"01", "02", "12"} and full.thin == {"012"}


def test_decorate_rejects_an_unknown_mode():
    d1 = standard_simplex(1)
    with pytest.raises(SSetError, match="marking must be 'flat' or 'sharp'"):
        decorate(d1, "bogus", "bogus")
    with pytest.raises(SSetError, match="scaling must be 'flat' or 'sharp'"):
        decorate(d1, SHARP, "bogus")


def test_scale_rejects_an_unknown_mode():
    with pytest.raises(SSetError, match="scaling must be 'flat' or 'sharp'"):
        scale(standard_simplex(2), "Sharp")


def test_degenerate_implicitly_decorated():
    d2 = standard_simplex(2)
    X = decorate(d2, FLAT, FLAT)
    deg_edge = EZ("0", (0, 0))
    deg_tri = EZ("01", (0, 0, 1))
    assert X.is_marked(deg_edge) and X.is_thin(deg_tri)
    assert not X.is_marked(EZ("01", (0, 1)))


def test_decoration_validation():
    """Both records, built directly and not from a document, reject a marked
    or thin cell of the wrong dimension, and store their decorations as
    frozensets whatever iterable they were given."""
    d2 = standard_simplex(2)
    with pytest.raises(SSetError, match="marked cell '012' is not a nondegenerate 1-simplex"):
        MarkedScaled(d2, marked=frozenset({"012"}))
    with pytest.raises(SSetError, match="thin cell '01' is not a nondegenerate 2-simplex"):
        MarkedScaled(d2, thin=frozenset({"01"}))
    with pytest.raises(SSetError, match="thin cell '01' is not a nondegenerate 2-simplex"):
        Scaled(d2, ["01"])
    with pytest.raises(SSetError, match="thin cell '0' is not a nondegenerate 2-simplex"):
        Scaled(d2, thin=frozenset({"0"}))
    with pytest.raises(SSetError, match="thin cell '02' is not a nondegenerate 2-simplex"):
        MarkedScaled(d2, ["01"], ["02"])
    with pytest.raises(SSetError, match="marked cell 'x' is not a nondegenerate 1-simplex"):
        MarkedScaled(d2, marked={"x"})
    X = MarkedScaled(d2, ["01"], ("012",))
    assert (X.marked, X.thin) == ({"01"}, {"012"}) and type(X.marked) is type(X.thin) is frozenset
    assert Scaled(d2, ["012"]) == X.scaled() and X.scaled().flat_marked() == MarkedScaled(d2, (), {"012"})


@pytest.mark.parametrize("record", ["MarkedScaled", "Scaled"])
def test_replace_and_make_check_as_the_constructor_does(record):
    """_replace and _make build through __new__: they reject a cell of the
    wrong dimension and store a given list as a frozenset."""
    d2 = standard_simplex(2)
    X = MarkedScaled(d2) if record == "MarkedScaled" else Scaled(d2)
    with pytest.raises(SSetError, match="thin cell '01' is not a nondegenerate 2-simplex"):
        X._replace(thin=["01"])
    with pytest.raises(SSetError, match="thin cell 'x' is not a nondegenerate 2-simplex"):
        type(X)._make([d2, *([["01"]] if record == "MarkedScaled" else []), ["x"]])
    Y = X._replace(thin=["012"])
    assert type(Y) is type(X) and Y.thin == {"012"} and type(Y.thin) is frozenset
    if record == "MarkedScaled":
        with pytest.raises(SSetError, match="marked cell 'x' is not a nondegenerate 1-simplex"):
            X._replace(marked=["x"])
        assert type(X._replace(marked=["01"]).marked) is frozenset


def core_thi_oracle(X: Scaled):
    """Direct face-thinness filter over all stored simplices."""
    from ssw.ops import injections, idop

    keep = set()
    for x, n in X.base.dim_of.items():
        ok = True
        for alpha in injections(2, n):
            tri = X.base.act(EZ(x, idop(n)), alpha)
            if tri.is_nondeg() and tri.core not in X.thin:
                ok = False
        if ok:
            keep.add(x)
    return keep


def test_core_of_sharp_simplex():
    d2 = standard_simplex(2)
    C, _ = core_thi(scale(d2, SHARP))
    assert is_isomorphic(C, d2)


def test_core_of_flat_simplex_is_boundary():
    d2 = standard_simplex(2)
    X = scale(d2, FLAT)
    expect = core_thi_oracle(X)
    C, incl = core_thi(X)
    assert set(incl.images) == expect
    assert is_isomorphic(C, boundary(2))


def test_core_with_partial_scaling():
    d3 = standard_simplex(3)
    X = Scaled(d3, frozenset({"012"}))
    expect = core_thi_oracle(X)
    C, incl = core_thi(X)
    assert set(incl.images) == expect
    # frozen from the oracle: vertices+edges+the thin triangle survive
    assert C.counts() == (4, 6, 1)


def test_core_idempotent():
    d3 = standard_simplex(3)
    X = Scaled(d3, frozenset({"012", "013"}))
    C1, incl = core_thi(X)
    restricted = Scaled(C1, frozenset(t for t in C1.level(2) if incl.images[t].core in X.thin))
    C2, _ = core_thi(restricted)
    assert C2 == C1


def test_underlying_projections():
    d2 = standard_simplex(2)
    X = decorate(d2, SHARP, SHARP)
    assert X.scaled() == Scaled(d2, X.thin)


def test_flat_into_sharp_is_decorated_mono():
    d2 = standard_simplex(2)
    lo = decorate(d2, FLAT, FLAT)
    hi = decorate(d2, SHARP, SHARP)
    assert lo.marked <= hi.marked and lo.thin <= hi.thin


def test_decorated_iso_respects_decorations():
    d2 = standard_simplex(2)
    A = MarkedScaled(d2, marked=frozenset({"01"}))
    B = MarkedScaled(d2, marked=frozenset({"12"}))
    C = MarkedScaled(d2, marked=frozenset({"01"}))
    assert is_decorated_isomorphic(A, C)
    assert not is_decorated_isomorphic(A, B)  # only the identity is a base iso


def test_decorated_iso_needs_base_iso():
    d1 = standard_simplex(1)
    two, _ = subcomplex(standard_simplex(1), ["0", "1"])
    assert not is_decorated_isomorphic(
        MarkedScaled(d1), MarkedScaled(two)
    )


# -- the witness rule and the pulled-back scaling ---------------------------------------


def prescribed_witnesses():
    """(scaling, rho, triangle, face) for the prescribed 3-simplices of criteria
    2, 3 and 8, each with the scaling its other faces must be thin in."""
    out = []
    # criterion 2: the variant scalings of Gray products, against the smaller scaling
    for X, Y in [(sharp_ms(2), flat_ms(1)), (decorate(standard_simplex(2), SHARP, SHARP), interval_sharp())]:
        v = gray_variant_scalings(X, Y)
        for which, smaller, larger in (("plus", v.gr, v.plus), ("gr", v.minus, v.gr)):
            for t in sorted(larger.thin - smaller.thin):
                w = marked_variants_witness(v, X, Y, t, which)
                out.append((smaller, w.rho, t, w.face))
    # criterion 3: the join comparison, against T
    data, order = join_eq_witnesses(2, 2)
    for w in order:
        out.append((Scaled(data.cmp.tj.total.base, data.T), w.rho, w.triangle, w.face))
    # criterion 8: the cocartesian witness in Delta^1 x Delta^2, against the Gray
    # scaling and the triangles over a vertex of Delta^1, and through the opposite
    g = gray_scaled(Scaled(standard_simplex(1)), Scaled(standard_simplex(2)), dim_cap=3)
    P, pr1 = g.scaled.base, g.projections[0]
    T = g.scaled.thin | {t for t in P.level(2) if pr1.images[t].core in ("0", "1")}
    rho = pair_cell(P, simplex_from_word([0, 1, 1, 1]), simplex_from_word([0, 0, 1, 2]))
    sigma = pair_cell(P, simplex_from_word([0, 1, 1]), simplex_from_word([0, 1, 2])).core
    out.append((Scaled(P, T), rho, sigma, 1))
    out.append((Scaled(opposite(P), T), EZ(rho.core, op_reverse(rho.op)), sigma, 2))
    return out


def test_witness_face_accepts_each_prescribed_witness():
    witnesses = prescribed_witnesses()
    assert {face for *_, face in witnesses} == {1, 2}
    for X, rho, triangle, face in witnesses:
        assert witness_face(X, rho, triangle, (face,)) == face


def test_witness_face_rejects_a_rho_whose_listed_faces_miss_the_triangle():
    for X, rho, triangle, face in prescribed_witnesses():
        with pytest.raises(SSetError, match="is that triangle"):
            witness_face(X, rho, triangle, tuple(k for k in range(4) if k != face))


def test_witness_face_rejects_a_rho_with_another_face_removed_from_the_scaling():
    removed = 0
    for X, rho, triangle, face in prescribed_witnesses():
        faces = X.base.faces_of(rho)
        for i, f in enumerate(faces):
            if i != face and f.is_nondeg():
                first = min(j for j, other in enumerate(faces) if j != face and other == f)
                with pytest.raises(SSetError, match=re.escape(f"face d_{first} of the witness of {triangle!r} is not thin")):
                    witness_face(Scaled(X.base, X.thin - {f.core}), rho, triangle, (face,))
                removed += 1
    assert removed >= len(prescribed_witnesses())


def brute_thin(P, maps, scalings) -> list:
    """For each map f: the triangles t of P such that the composite
    Delta^2 -> P -> X of t and f sends 012 to a degenerate or thin triangle."""
    out = [set() for _ in maps]
    for t in P.level(2):
        simplex = simplex_map(P, EZ(t, idop(2)))
        for thin, f, S in zip(out, maps, scalings):
            img = simplex.then(f).images["012"]
            if len(set(img.op)) < 3 or img.core in S.thin:
                thin.add(t)
    return out


def test_pulled_back_thin_matches_a_brute_force_reading():
    """On products and on pullbacks over Delta^1 of catalog objects, along both
    projections and along the first alone."""
    cat = catalog(check_goldens=False)
    cases = []
    names = ["d2_sharp", "horn21", "d1_gray_d1", "q_sharp", "j_trunc3"]
    for k, a in enumerate(names):
        for b in names[k:]:
            cases.append((product(cat[a].base, cat[b].base), (cat[a], cat[b])))
    d1 = standard_simplex(1)
    names = ["d2_sharp", "d3_sharp", "d1_gray_d1"]
    onto = {a: [f for f in enumerate_maps(cat[a].base, d1) if first_missed_dim(f) is None][:2] for a in names}
    for k, a in enumerate(names):
        for b in names[k:]:
            cases += [(pullback(f, g), (cat[a], cat[b])) for f in onto[a] for g in onto[b]]
    assert len(cases) == 39  # 15 products and 24 pullbacks
    thin_somewhere = 0
    for (P, pr1, pr2), scalings in cases:
        first, second = brute_thin(P, (pr1, pr2), scalings)
        assert pulled_back_thin(P, (pr1, pr2), scalings) == first & second
        assert pulled_back_thin(P, (pr1,), scalings[:1]) == first
        thin_somewhere += bool(first & second)
    assert thin_somewhere > 0
