import pytest

from helpers import core_thi, is_isomorphic
from ssw.core import EZ, SSetError, standard_simplex, subcomplex, boundary
from ssw.decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    decorate,
    decorated_isomorphisms,
    is_decorated_isomorphic,
    scale,
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
