"""Markings and scalings layered over finite simplicial sets.

Only nondegenerate decorated cells are stored; degenerate edges and triangles
are treated as marked/thin implicitly by the predicates below.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import EZ, SMap, SSet, SSetError, check_mode, isomorphisms, opposite, pushout_mono, subcomplex
from .ops import idop, injections


def _check_decoration(base: SSet, cells, dim: int, what: str) -> frozenset:
    cells = frozenset(cells)
    for x in cells:
        if base.dim_of.get(x) != dim:
            raise SSetError(f"{what} cell {x!r} is not a nondegenerate {dim}-simplex")
    return cells


@dataclass(frozen=True)
class MarkedScaled:
    """A marked-scaled simplicial set (X, E_X, T_X)."""

    base: SSet
    marked: frozenset = frozenset()
    thin: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "marked", _check_decoration(self.base, self.marked, 1, "marked"))
        object.__setattr__(self, "thin", _check_decoration(self.base, self.thin, 2, "thin"))

    def is_marked(self, pair: EZ) -> bool:
        return not pair.is_nondeg() or pair.core in self.marked

    def is_thin(self, pair: EZ) -> bool:
        return not pair.is_nondeg() or pair.core in self.thin

    def scaled(self) -> "Scaled":
        return Scaled(self.base, self.thin)

    def op(self) -> "MarkedScaled":
        return MarkedScaled(opposite(self.base), self.marked, self.thin)


@dataclass(frozen=True)
class Scaled:
    """A scaled simplicial set (X, T_X)."""

    base: SSet
    thin: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "thin", _check_decoration(self.base, self.thin, 2, "thin"))

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
    closed = [x for x in keep if all(f.core in keep for f in X.base.faces.get(x, ()))]
    # faces of kept cells are kept: 2-faces of faces are 2-faces of the cell
    assert closed == keep
    return subcomplex(X.base, keep)


# -- decorated maps -----------------------------------------------------------


def is_scaled_map(f: SMap, S: Scaled | MarkedScaled, T: Scaled | MarkedScaled) -> bool:
    return all(T.is_thin(f(EZ(t, idop(2)))) for t in S.thin)


def check_scaled_map(f: SMap, K: Scaled | MarkedScaled, S: Scaled | MarkedScaled, what: str) -> None:
    """f must be a scaled map K -> S; ``what`` names f in the error."""
    if f.source != K.base or f.target != S.base:
        raise SSetError(f"{what} mismatch")
    if not is_scaled_map(f, K, S):
        raise SSetError(f"{what} is not a scaled map")


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
    thin = frozenset(t for t in sub.level(2) if incl.images[t].core in X.thin)
    return MarkedScaled(sub, marked, thin)


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


def scaled_isomorphic(X: Scaled, Y: Scaled) -> bool:
    return is_decorated_isomorphic(X.flat_marked(), Y.flat_marked())
