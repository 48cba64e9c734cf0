import pytest

from ssw.core import EZ, SSetError, is_isomorphic, standard_simplex, subcomplex, boundary
from ssw.decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    core_thi,
    decorate,
    decorated_isomorphisms,
    is_decorated_isomorphic,
    mark,
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


def test_degenerate_implicitly_decorated():
    d2 = standard_simplex(2)
    X = decorate(d2, FLAT, FLAT)
    deg_edge = EZ("0", (0, 0))
    deg_tri = EZ("01", (0, 0, 1))
    assert X.is_marked(deg_edge) and X.is_thin(deg_tri)
    assert not X.is_marked(EZ("01", (0, 1)))


def test_decoration_validation():
    d2 = standard_simplex(2)
    with pytest.raises(SSetError):
        MarkedScaled(d2, marked=frozenset({"012"}))
    with pytest.raises(SSetError):
        MarkedScaled(d2, thin=frozenset({"01"}))


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
    assert X.marked_only().marked == X.marked
    assert X.marked_only().base == d2


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
