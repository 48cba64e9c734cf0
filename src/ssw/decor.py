"""Markings and scalings layered over finite simplicial sets.

Only nondegenerate decorated cells are stored; degenerate edges and triangles
are treated as marked/thin implicitly by the predicates below.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import EZ, SMap, SSet, SSetError, check_mode, isomorphisms, opposite, pushout_mono
from .ops import idop


def _check_decoration(base: SSet, cells, dim: int, what: str) -> frozenset:
    cells = frozenset(cells)
    for x in cells:
        if base.dim_of.get(x) != dim:
            raise SSetError(f"{what} cell {x!r} is not a nondegenerate {dim}-simplex")
    return cells


class _MarkedScaledFields(NamedTuple):
    base: SSet
    marked: frozenset
    thin: frozenset


class MarkedScaled(_MarkedScaledFields):
    """A marked-scaled simplicial set (X, E_X, T_X)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _make and _replace check as __new__ does

    def __new__(cls, base: SSet, marked=frozenset(), thin=frozenset()):
        marked = _check_decoration(base, marked, 1, "marked")
        return super().__new__(cls, base, marked, _check_decoration(base, thin, 2, "thin"))

    def is_marked(self, pair: EZ) -> bool:
        return not pair.is_nondeg() or pair.core in self.marked

    def is_thin(self, pair: EZ) -> bool:
        return not pair.is_nondeg() or pair.core in self.thin

    def scaled(self) -> "Scaled":
        return Scaled(self.base, self.thin)

    def op(self) -> "MarkedScaled":
        return MarkedScaled(opposite(self.base), self.marked, self.thin)


class _ScaledFields(NamedTuple):
    base: SSet
    thin: frozenset


class Scaled(_ScaledFields):
    """A scaled simplicial set (X, T_X)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _make and _replace check as __new__ does

    def __new__(cls, base: SSet, thin=frozenset()):
        return super().__new__(cls, base, _check_decoration(base, thin, 2, "thin"))

    def is_thin(self, pair: EZ) -> bool:
        return not pair.is_nondeg() or pair.core in self.thin

    def flat_marked(self) -> MarkedScaled:
        return MarkedScaled(self.base, frozenset(), self.thin)

    def sharp_marked(self) -> MarkedScaled:
        return MarkedScaled(self.base, frozenset(self.base.level(1)), self.thin)

    def op(self) -> "Scaled":
        return Scaled(opposite(self.base), self.thin)


FLAT, SHARP = "flat", "sharp"


def decorate(base: SSet, marking: str = FLAT, scaling: str = FLAT) -> MarkedScaled:
    """Build X with flat/sharp marking and scaling (covers all six decorators)."""
    marked = frozenset() if check_mode("marking", marking, FLAT, SHARP) == FLAT else frozenset(base.level(1))
    thin = frozenset() if check_mode("scaling", scaling, FLAT, SHARP) == FLAT else frozenset(base.level(2))
    return MarkedScaled(base, marked, thin)


def scale(base: SSet, scaling: str = FLAT) -> Scaled:
    """X_flat or X_sharp."""
    return decorate(base, FLAT, scaling).scaled()


# -- decorated maps -----------------------------------------------------------


def is_scaled_map(f: SMap, S: Scaled | MarkedScaled, T: Scaled | MarkedScaled) -> bool:
    return all(T.is_thin(f(EZ(t, idop(2)))) for t in S.thin)


def check_scaled_map(f: SMap, K: Scaled | MarkedScaled, S: Scaled | MarkedScaled, what: str) -> None:
    """f must be a scaled map K -> S; ``what`` names f in the error."""
    if f.source != K.base or f.target != S.base:
        raise SSetError(f"{what} mismatch")
    if not is_scaled_map(f, K, S):
        raise SSetError(f"{what} is not a scaled map")


def pulled_back_thin(P: SSet, maps, scalings) -> frozenset:
    """The triangles of P that every map P -> X sends to a thin triangle of the
    scaling of X paired with it: the scaling pulled back along the maps."""
    return frozenset(t for t in P.level(2) if all(S.is_thin(f.images[t]) for f, S in zip(maps, scalings)))


def witness_face(X: Scaled | MarkedScaled, rho: EZ, triangle: str, faces=(1, 2)) -> int:
    """The face k among ``faces`` with d_k rho the triangle, when every other face
    of the 3-simplex rho is thin in X: the one rule by which a prescribed
    3-simplex makes a triangle thin.  Raises otherwise, naming the face that fails."""
    dfaces = X.base.faces_of(rho)
    k = next((k for k in faces if dfaces[k] == EZ(triangle, idop(2))), None)
    if k is None:
        raise SSetError(f"no face d_k, k in {faces}, of the witness of {triangle!r} is that triangle")
    for i, f in enumerate(dfaces):
        if i != k and not X.is_thin(f):
            raise SSetError(f"face d_{i} of the witness of {triangle!r} is not thin")
    return k


def push_cells(f: SMap, cells) -> frozenset:
    """Images of nondegenerate cells along a map, each at its own dimension
    (a marking or a scaling); images that degenerate are dropped."""
    out = set()
    for x in cells:
        img = f.images[x]
        if img.is_nondeg():
            out.add(img.core)
    return frozenset(out)


def pushout_ms(i: SMap, g: SMap, B: MarkedScaled, X: MarkedScaled):
    """Decorated pushout: decoration of the result is the union of the images."""
    res = pushout_mono(i, g)
    marked = push_cells(res.leg_target, X.marked) | push_cells(res.leg_big, B.marked)
    thin = push_cells(res.leg_target, X.thin) | push_cells(res.leg_big, B.thin)
    return MarkedScaled(res.sset, marked, thin), res.leg_target, res.leg_big


def restrict_ms(X: MarkedScaled, incl: SMap) -> MarkedScaled:
    """Decoration induced on a subcomplex along its inclusion."""
    sub = incl.source
    marked = frozenset(e for e in sub.level(1) if incl.images[e].core in X.marked)
    return MarkedScaled(sub, marked, pulled_back_thin(sub, (incl,), (X,)))


# -- decorated isomorphism ------------------------------------------------------


def _decoration_tags(X: MarkedScaled) -> dict[str, int]:
    tags = {e: 1 for e in X.marked}
    tags.update({t: 1 for t in X.thin})
    return tags


def decorated_isomorphisms(X: MarkedScaled, Y: MarkedScaled, first_only: bool = True) -> list[SMap]:
    """Base isomorphisms matching marked and thin sets exactly.

    Decorations are folded into the search invariants, so every isomorphism
    found already matches them cell by cell.
    """
    return isomorphisms(
        X.base,
        Y.base,
        first_only=first_only,
        tags_x=_decoration_tags(X),
        tags_y=_decoration_tags(Y),
    )


def is_decorated_isomorphic(X: MarkedScaled, Y: MarkedScaled) -> bool:
    if len(X.marked) != len(Y.marked) or len(X.thin) != len(Y.thin):
        return False
    return bool(decorated_isomorphisms(X, Y))
