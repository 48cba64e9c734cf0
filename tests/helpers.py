"""Helpers only the tests use: isomorphism tests, small decorated simplices
and the core of a scaled set."""
from ssw.core import EZ, SMap, SSet, isomorphisms, standard_simplex, subcomplex
from ssw.decor import FLAT, SHARP, MarkedScaled, Scaled, decorate, is_decorated_isomorphic
from ssw.ops import idop, injections


def is_isomorphic(X: SSet, Y: SSet) -> bool:
    return bool(isomorphisms(X, Y))


def scaled_isomorphic(X: Scaled, Y: Scaled) -> bool:
    return is_decorated_isomorphic(X.flat_marked(), Y.flat_marked())


def sharp_ms(n: int) -> MarkedScaled:
    return decorate(standard_simplex(n), SHARP, SHARP)


def triangle_thin() -> MarkedScaled:
    """Delta^2 with flat marking and its triangle thin."""
    return decorate(standard_simplex(2), FLAT, SHARP)


def core_thi(X: Scaled) -> tuple[SSet, SMap]:
    """The core: simplices all of whose 2-dimensional faces are thin."""
    keep = []
    for x, n in X.base.dim_of.items():
        if n < 2:
            keep.append(x)
            continue
        top = EZ(x, idop(n))
        ok = True
        for alpha in injections(2, n):
            if not X.is_thin(X.base.act(top, alpha)):
                ok = False
                break
        if ok:
            keep.append(x)
    return subcomplex(X.base, keep)
