"""Slices, thick slices, mapping categories, and functor spaces.

Everything here is computed by the same engine: a construction is presented by
a family of representing objects F(0), F(1), ... with reindexing maps, and the
resulting object has n-simplices the scaled maps F(n) -> S extending the given
pins.  Levels are enumerated exactly up to the cap, or to the shape's proven
bound on the dimension of cells if lower: dim S for slices over nothing or a
simplex, for any slice and for thick slices over a point of an S with
nondegenerate faces; Gray, cartesian, hom and section shapes have none.
One Eilenberg-Zilber rule gives every level map its normal form, inside the
computed levels and past them: m is degenerate iff m = s_j d_j m for some j.
The saturation flag records whether the last two levels were purely
degenerate.  The levels F(n), the reindexing maps F(alpha) and the upgrades
of a shape do not depend on S, on the diagram or on the cap, so they are
built once per process and shared by every shape with the same parameters.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .core import (
    EZ,
    SMap,
    SSet,
    SSetError,
    check_mode,
    enumerate_maps,
    fiber as fiber_core,
    identity_map,
    join_map,
    multi_product,
    product_map,
    simplex_cell,
    simplex_map,
    standard_simplex,
)
from .decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    check_scaled_map,
    decorate,
    pulled_back_thin,
    restrict_ms,
)
from .ops import compose, const_op, degeneracy_op, face_op, idop, memo
from .tensor import (
    flat_ms,
    gray_marked_n,
    interval_sharp,
    join_ms,
    simplex_from_word,
    thick_join,
    thick_join_map,
)


class SliceResult(NamedTuple):
    """A representably-constructed decorated object with its level tables."""

    total: MarkedScaled
    projection: SMap | None
    provenance: str
    cap: int
    saturated: bool
    cell_maps: dict[str, SMap]
    # per computed level, up to the cap or the shape's dim_bound (joins, thick joins over a point): map key
    # -> EZ, as level_simplex reads it; it reads maps past the computed levels by the same rule
    levels: list[dict]
    shape: object

    @property
    def scaled(self) -> Scaled:
        return self.total.scaled()


# -- representable shapes ---------------------------------------------------------


class Level(NamedTuple):
    """F(n): the scaled object, the pins of its cells in S, and the construction
    it came from (a join, a thick join, a Gray product or a product)."""

    scaled: Scaled
    pins: dict[str, EZ]
    data: object


@memo
def delta_map(alpha: tuple[int, ...], n: int) -> SMap:
    """The map Delta^m -> Delta^n of a monotone alpha: [m] -> [n]; built once, shared."""
    return simplex_map(standard_simplex(n), simplex_from_word(alpha))


def _shared(shape: "Shape", *args) -> tuple:
    """The memo key of a level, reindexing map or upgrade, shared by the shapes
    of one class, K (by content and dim_cap), first and params."""
    return (type(shape), shape.K, shape.K.base.dim_cap, shape.first, shape.params(), *args)


class Shape:
    """A representable family: F(n) is the shape applied to flat Delta^n, and
    F(alpha) is the shape applied to the map Delta^m -> Delta^n.

    A subclass gives ``variant(X)``, the level on a decorated X, and
    ``reindex(src, tgt, d, k)``, the map between the constructions of two
    levels made from d on the Delta side and k on the K side; it may
    override ``build(n)``.  ``first`` says whether Delta is the first of
    the two factors; ``params()`` gives the other parameters the levels
    depend on, which with the class, K and ``first`` key their memos.

    ``has_marking`` and ``has_scaling`` say whether the result carries a
    marking and a scaling; ``image_ok`` filters the images of the level maps
    and ``is_marked`` decides the marked edges.
    """

    thin_probe_marking = FLAT  # the marking of the thin Delta^2 in upgrade('thin')
    has_marking = True
    has_scaling = True

    def __init__(self, K: MarkedScaled, first: bool = True):
        self.K, self.first = K, first

    def params(self) -> tuple:
        return ()

    def ordered(self, d, k) -> tuple:
        """(d, k) in factor order; applied to (first, second) it gives (Delta, K)."""
        return (d, k) if self.first else (k, d)

    @memo(key=_shared)
    def object(self, n: int) -> Level:
        return self.build(n)

    def build(self, n: int) -> Level:
        return self.variant(flat_ms(n))

    @memo(key=_shared)
    def induced(self, alpha: tuple, m: int, n: int) -> SMap:
        """F(alpha): F(m) -> F(n) for monotone alpha: [m] -> [n]."""
        d = delta_map(alpha, n)
        return self.reindex(self.object(m).data, self.object(n).data, d, identity_map(self.K.base))

    def k_induced(self, other: "Shape", g: SMap, n: int) -> SMap:
        """F(n) -> F'(n) induced by g: K -> K', for a shape F' of the same kind on K'."""
        d = identity_map(standard_simplex(n))
        return self.reindex(self.object(n).data, other.object(n).data, d, g)

    @memo(key=_shared)
    def upgrade(self, which: str) -> frozenset:
        """The triangles of F(1) ('marked') or F(2) ('thin') that turn thin when
        Delta^1 is marked or Delta^2 thin; a simplex of the result is marked or
        thin when its map sends all of them to thin triangles."""
        if check_mode("which", which, "marked", "thin") == "marked":
            n, probe = 1, interval_sharp()
        else:
            n, probe = 2, decorate(standard_simplex(2), self.thin_probe_marking, SHARP)
        base, variant = self.object(n).scaled, self.variant(probe).scaled
        if variant.base != base.base:
            raise SSetError("decorated variant changed the underlying object")
        return variant.thin - base.thin

    def project_cell(self, n: int) -> str | None:
        return None

    def dim_bound(self, S: Scaled) -> int | None:
        """A proven bound on the dimension of the cells of the result over S, or None."""
        return None

    def image_ok(self, n: int, x: str, cand: EZ) -> bool:
        """Whether the cell x of F(n) may go to cand; the engine itself checks
        that thin triangles of F(n) go to thin ones."""
        return True

    def is_marked(self, m: SMap, S: Scaled) -> bool:
        """Whether the edge m: F(1) -> S is marked: m sends the triangles of the
        'marked' upgrade to thin triangles of S."""
        return all(S.is_thin(m(EZ(t, idop(2)))) for t in self.upgrade("marked"))


class JoinShape(Shape):
    """F(n) = (flat Delta^n) * K for side 'over', K * (flat Delta^n) for 'under'.

    ``join`` builds the construction and its scaled object; the pins and the
    projection read the ``ends`` of the construction.  The pins are the only
    part of a level that depends on f, so they are read per shape."""

    def __init__(self, K: MarkedScaled, f: SMap, side: str):
        super().__init__(K, check_mode("side", side, "over", "under") == "over")
        self.f = f

    def join(self, first: MarkedScaled, second: MarkedScaled, cap: int):
        jm = join_ms(first, second, dim_cap=cap)
        return jm.scaled, jm

    def object(self, n: int) -> Level:
        """The shared F(n) with the pins of this shape's diagram f."""
        level = super().object(n)
        _, k_incl = self.ordered(*level.data.ends)
        pins = {k_incl.images[x].core: self.f.images[x] for x in self.K.base.dim_of}
        return level._replace(pins=pins)

    def variant(self, X: MarkedScaled) -> Level:
        scaled, data = self.join(*self.ordered(X, self.K), X.base.dim + self.K.base.dim + 1)
        return Level(scaled, {}, data)

    def reindex(self, src, tgt, d: SMap, k: SMap) -> SMap:
        return join_map(src, tgt, *self.ordered(d, k))

    def project_cell(self, n: int) -> str | None:
        d_incl, _ = self.ordered(*self.object(n).data.ends)
        return d_incl.images[simplex_cell(range(n + 1))].core

    def dim_bound(self, S: Scaled) -> int | None:
        """dim S if K is empty or a standard simplex or S has nondegenerate faces.

        Let n > dim S.  A level-n map m is s_j d_j m when m = m.F(delta_j sigma_j),
        and F(delta_j sigma_j) moves the vertex j of Delta^n to j + 1.  If F(n)
        is Delta^(n+k+1), m = y.t with t onto [d], d <= dim S; t(j) = t(j + 1)
        for some j < n, and t is fixed.  Else m has a degenerate edge j(j + 1)
        on Delta^n; the image y.t of a simplex c of F(n) through j and j + 1
        has t(p) = t(p + 1) at their positions, as y has nondegenerate faces,
        so m(c) has equal faces without j and without j + 1: m is fixed."""
        K = self.K.base
        if not K.cells or K == standard_simplex(K.dim) or _nondegenerate_faces(S.base):
            return S.base.dim
        return None


class ThickShape(JoinShape):
    """F(n) = (flat Delta^n) diamond_var K ('over') or K diamond_var (flat Delta^n)."""

    def __init__(self, K: MarkedScaled, f: SMap, variance: str, side: str):
        super().__init__(K, f, side)
        self.variance = variance

    def params(self) -> tuple:
        return (self.variance,)

    def join(self, first: MarkedScaled, second: MarkedScaled, cap: int):
        tj = thick_join(self.variance, first, second, dim_cap=cap)
        return tj.total, tj

    def reindex(self, src, tgt, d: SMap, k: SMap) -> SMap:
        return thick_join_map(src, tgt, *self.ordered(d, k))

    def dim_bound(self, S: Scaled) -> int | None:
        """dim S if K is a point and S has nondegenerate faces.

        F(n) is a quotient of Delta^n x Delta^1, Delta^n at one end and the point
        at the other; F(delta_j sigma_j) moves each (j, e) to (j + 1, e), and m
        sends both edges (j, e)(j + 1, e) to degenerate ones.  Moving the greater
        of (j, 0), (j, 1) first, ``JoinShape.dim_bound`` applies.  S needs the
        condition: over 0, Q with every triangle thin has 4-simplices."""
        if self.K.base.counts() == (1,) and _nondegenerate_faces(S.base):
            return S.base.dim
        return None


class GrayShape(Shape):
    """F(n) = (flat Delta^n) (x) K for 'left', K (x) (flat Delta^n) for 'right'."""

    thin_probe_marking = SHARP  # Gray thinness also reads the markings of the factors
    has_marking = False

    def __init__(self, K: MarkedScaled, side: str):
        super().__init__(K, check_mode("side", side, "left", "right") == "left")

    def variant(self, X: MarkedScaled) -> Level:
        g = gray_marked_n(list(self.ordered(X, self.K)), dim_cap=X.base.dim + self.K.base.dim)
        return Level(g.scaled, {}, g)

    def reindex(self, src, tgt, d: SMap, k: SMap) -> SMap:
        return product_map(src.mp, tgt.mp, self.ordered(d, k))


class CartesianShape(Shape):
    """F(n) = (Delta^n with chosen scaling) x underlying(K), cartesian scaling."""

    has_marking = False

    def __init__(self, K: MarkedScaled, delta_scaling: str = FLAT):
        super().__init__(K)
        self.delta_scaling = delta_scaling

    def params(self) -> tuple:
        return (self.delta_scaling,)

    def build(self, n: int) -> Level:
        return self.variant(decorate(standard_simplex(n), FLAT, self.delta_scaling))

    def variant(self, X: MarkedScaled) -> Level:
        mp = multi_product([X.base, self.K.base], dim_cap=X.base.dim + self.K.base.dim)
        return Level(Scaled(mp.sset, pulled_back_thin(mp.sset, mp.projections, (X, self.K))), {}, mp)

    def reindex(self, src, tgt, d: SMap, k: SMap) -> SMap:
        return product_map(src, tgt, (d, k))


# -- the level engine ---------------------------------------------------------------


def check_cap(cap: int) -> None:
    """The level cap of a representable construction must be non-negative."""
    if cap < 0:
        raise SSetError(f"cap must be a non-negative integer, got {cap}")


def _nondegenerate_faces(X: SSet) -> bool:
    return all(f.is_nondeg() for fs in X.faces.values() for f in fs)


def _key_after(ind: SMap, m: SMap) -> tuple:
    """The key of ``ind.then(m)``, without building that map."""
    return tuple(sorted((x, m(p)) for x, p in ind.images.items()))


def level_simplex(shape: Shape, levels: list[dict], n: int, m: SMap) -> EZ | None:
    """The normal form of the level-n map m: F(n) -> S, or None.  One rule reads every level
    map (Eilenberg-Zilber): a computed level is looked up; in the level being built and past
    the levels m is s_j d_j m if m = m.F(delta_j sigma_j), compared image by image, and
    degenerate only then (m = s_j y gives y = d_j m).  None: no j fixes m, or the face d_j m is
    not in the level below, which is looked up by key when computed and built only past it."""
    if n < len(levels):
        return levels[n].get(m.key())
    for j in range(n):
        sigma = degeneracy_op(n - 1, j)
        fold = shape.induced(compose(face_op(n, j), sigma), n, n)
        if all(m(p) == m.images[x] for x, p in fold.images.items()):
            d = shape.induced(face_op(n, j), n - 1, n)
            if n == len(levels):
                ez = levels[n - 1].get(_key_after(d, m))
            else:
                ez = level_simplex(shape, levels, n - 1, d.then(m))
            return None if ez is None else EZ(ez.core, compose(ez.op, sigma))
    return None


def build_representable(shape: Shape, S: Scaled, cap: int, provenance: str) -> SliceResult:
    """Enumerate levels 0..cap of the representable construction for a shape,
    or only up to its proven dimension bound if lower; the shape says which
    decorations the result carries and filters the maps.  ``level_simplex``
    reads each enumerated map, and those it finds nondegenerate are the cells."""
    check_cap(cap)
    bound = shape.dim_bound(S)
    top = cap if bound is None else min(cap, bound)
    levels: list[dict] = []
    cells: list[list[str]] = [[] for _ in range(top + 1)]  # the levels computed, at most cap + 1
    faces: dict[str, tuple] = {}
    cell_maps: dict[str, SMap] = {}
    for n in range(top + 1):
        F, pins, _ = shape.object(n)

        def image_ok(x, cand, F=F):
            if F.base.dim_of[x] == 2 and x in F.thin and not S.is_thin(cand):
                return False
            return shape.image_ok(n, x, cand)

        maps = {m.key(): m for m in enumerate_maps(F.base, S.base, partial=pins, image_ok=image_ok)}
        level = {key: level_simplex(shape, levels, n, m) for key, m in maps.items()}
        delta_maps = [shape.induced(face_op(n, i), n - 1, n) for i in range(n + 1)] if n else []
        for idx, key in enumerate(sorted(key for key, ez in level.items() if ez is None)):
            name = f"s{n}.{idx}"
            cells[n].append(name)
            cell_maps[name] = m = maps[key]
            level[key] = EZ(name, idop(n))
            if delta_maps:
                faces[name] = tuple(levels[n - 1].get(_key_after(d, m)) for d in delta_maps)
                if None in faces[name]:
                    raise SSetError("face of a representable simplex is missing")
        levels.append(level)
    total_base = SSet(cells, faces, dim_cap=cap)
    marked = thin = frozenset()
    if shape.has_marking and top >= 1:
        marked = frozenset(x for x in cells[1] if shape.is_marked(cell_maps[x], S))
    if shape.has_scaling and top >= 2:
        # a triangle is thin when its map sends the 'thin' upgrade to thin triangles
        extra = [EZ(t, idop(2)) for t in shape.upgrade("thin")]
        thin = frozenset(x for x in cells[2] if all(S.is_thin(cell_maps[x](t)) for t in extra))
    projection = None
    if shape.project_cell(0) is not None:
        images = {c: cell_maps[c].images[shape.project_cell(n)] for n in range(top + 1) for c in cells[n]}
        projection = SMap(total_base, S.base, images)
    saturated = cap >= 1 and not any(cells[cap - 1 :])  # levels cap - 1 and cap, empty if not computed
    total = MarkedScaled(total_base, marked, thin)
    return SliceResult(total, projection, provenance, cap, saturated, cell_maps, levels, shape)


# -- public operations -----------------------------------------------------------------


def slice_construction(S: Scaled, K: MarkedScaled, f: SMap, side: str, cap: int) -> SliceResult:
    """The slice S_{/f} (side 'over') or S_{f/} (side 'under')."""
    check_scaled_map(f, K, S, "slice diagram")
    shape = JoinShape(K, f, side)
    tag = "/f" if side == "over" else "f/"
    return build_representable(shape, S, cap, f"slice {tag} (ordinary join), cap {cap}")


def _vertex(S: Scaled, v: str) -> EZ:
    """The vertex v of S, or an error naming it."""
    if S.base.dim_of.get(v) != 0:
        raise SSetError(f"no vertex {v!r}")
    return EZ(v, (0,))


def slice_over_vertex(S: Scaled, vertex: str, cap: int, side: str = "over") -> SliceResult:
    return slice_construction(S, flat_ms(0), simplex_map(S.base, _vertex(S, vertex)), side, cap)


def slice_over_marked_arrow(S: Scaled, arrow: EZ, cap: int) -> SliceResult:
    """The slice over a sharp-marked arrow, X_{/e-sharp}, for a 1-simplex e of S."""
    return slice_construction(S, interval_sharp(), simplex_map(S.base, arrow), "over", cap)


def thick_slice(S: Scaled, K: MarkedScaled, f: SMap, variance: str, side: str, cap: int) -> SliceResult:
    """The thick slice S^{/f}_var or S^{f/}_var."""
    check_scaled_map(f, K, S, "slice diagram")
    shape = ThickShape(K, f, variance, side)
    tag = "/f" if side == "over" else "f/"
    return build_representable(shape, S, cap, f"thick slice {tag} {variance}, cap {cap}")


def thick_slice_over_vertex(S: Scaled, vertex: str, variance: str, cap: int, side: str = "over") -> SliceResult:
    return thick_slice(S, flat_ms(0), simplex_map(S.base, _vertex(S, vertex)), variance, side, cap)


def fiber_ms(X: MarkedScaled, p: SMap, vertex: str) -> tuple[MarkedScaled, SMap]:
    """The fiber of p at a vertex, with the decorations of X restricted."""
    sub, incl = fiber_core(p, vertex)
    return restrict_ms(X, incl), incl


def hom_category(C: Scaled, x: str, y: str, cap: int) -> SliceResult:
    """The mapping category Hom_C(x, y): maps Delta^n x Delta^1 -> C constant on
    the ends, with the staircase triangles thin."""
    for v in (x, y):
        _vertex(C, v)
    return build_representable(HomShape(x, y), C, cap, f"hom({x},{y}), cap {cap}")


class HomShape(CartesianShape):
    """F(n) = Delta^n x Delta^1, pinned to x on Delta^n x {0} and to y on
    Delta^n x {1}.  The triangles (i,0)(i,1)(j,1) are thin, and so is
    (i,0)(j,0)(j,1) when the edge ij is marked: that marks the edges of Hom."""

    has_marking, has_scaling = True, False

    def __init__(self, x: str, y: str):
        super().__init__(flat_ms(1))
        self.x, self.y = x, y

    def params(self) -> tuple:
        return (self.delta_scaling, self.x, self.y)

    def variant(self, X: MarkedScaled) -> Level:
        mp = multi_product([X.base, self.K.base], dim_cap=X.base.dim + 1)
        pr1, pr2 = mp.projections
        thin, pins = set(), {}
        for c, nd in mp.sset.dim_of.items():
            a, b = pr1(EZ(c, idop(nd))), pr2(EZ(c, idop(nd)))
            if b.core != "01":  # the cell lies in Delta^n x {0 or 1}
                pins[c] = EZ(self.x if b.core == "0" else self.y, const_op(nd, 0))
            elif b.op == (0, 1, 1) and a.op[0] == a.op[1]:
                thin.add(c)
            elif b.op == (0, 0, 1) and a.op[1] == a.op[2] and X.is_marked(X.base.act(a, (0, 1))):
                thin.add(c)
        return Level(Scaled(mp.sset, frozenset(thin)), pins, mp)


def fun_space(K: MarkedScaled, X: Scaled, product_kind: str, cap: int) -> SliceResult:
    """The functor space with Gray (left/right) or cartesian levels."""
    if check_mode("product_kind", product_kind, "cartesian", "gray_left", "gray_right") == "cartesian":
        shape = CartesianShape(K)
    else:
        shape = GrayShape(K, product_kind.removeprefix("gray_"))
    return build_representable(shape, X, cap, f"fun[{product_kind}], cap {cap}")


class CocartesianSectionsShape(CartesianShape):
    """Levels Delta^n-sharp x K over the diagram f: a map lies over f through p,
    and sends each marked K-edge at a vertex of Delta^n into the good edges.
    An edge is marked when its component at every vertex of K is good."""

    has_marking, has_scaling = True, False

    def __init__(self, K: MarkedScaled, p: SMap, f: SMap, good_edges: frozenset):
        super().__init__(K, delta_scaling=SHARP)
        self.p, self.f, self.good_edges = p, f, good_edges

    def good(self, pair: EZ) -> bool:
        return not pair.is_nondeg() or pair.core in self.good_edges

    def image_ok(self, n: int, x: str, cand: EZ) -> bool:
        mp = self.object(n).data
        pr1, pr2 = mp.projections
        nd = mp.sset.dim_of[x]
        top = EZ(x, idop(nd))
        kpair = pr2(top)
        if self.p(cand) != self.f(kpair):
            return False
        if nd == 1 and standard_simplex(n).dim_of[pr1(top).core] == 0:
            return not (kpair.is_nondeg() and kpair.core in self.K.marked) or self.good(cand)
        return True

    @cached_property
    def columns(self) -> list[EZ]:
        """The edges of F(1) = Delta^1 x K over the edge of Delta^1 and a vertex of K."""
        mp = self.object(1).data
        pr1, pr2 = mp.projections
        tops = [EZ(c, idop(1)) for c in mp.sset.level(1)]
        return [top for top in tops if pr1(top).is_nondeg() and not pr2(top).is_nondeg()]

    def is_marked(self, m: SMap, S: Scaled) -> bool:
        return all(self.good(m(top)) for top in self.columns)


def fun_coc_subcat(K: MarkedScaled, p: SMap, X_scaled: Scaled, f: SMap, good_edges: frozenset, cap: int) -> SliceResult:
    """The full subcategory of the core of the fiber of Fun(K, X) over f spanned
    by the maps sending marked K-edges into the given (co)cartesian edge set.

    Marked edges of the result are the transformations whose components at
    every vertex of K lie in the given edge set (pointwise-(co)cartesian ones).
    """
    shape = CocartesianSectionsShape(K, p, f, good_edges)
    return build_representable(shape, X_scaled, cap, f"fun-coc subcat, cap {cap}")


def reindex_map(src: SliceResult, tgt: SliceResult, g: SMap | None = None, p: SMap | None = None) -> SMap:
    """The map src -> tgt sending the n-simplex m to p . m . F(g), where F(g)
    is the map of levels induced by g: K_tgt -> K_src; a missing g or p is
    the identity.  ``level_simplex`` reads each such map: it looks it up in
    tgt's computed levels, and past them reads it as a degeneracy."""
    induced = None if g is None else [tgt.shape.k_induced(src.shape, g, n) for n in range(len(src.levels))]
    images = {}
    for c, m in src.cell_maps.items():
        n = src.total.base.dim_of[c]
        pairs = m.images.items() if induced is None else [(x, m(y)) for x, y in induced[n].images.items()]
        if p is not None:
            pairs = [(x, p(y)) for x, y in pairs]
        moved = SMap(tgt.shape.object(n).scaled.base, m.target if p is None else p.target, dict(pairs))
        ez = level_simplex(tgt.shape, tgt.levels, n, moved)
        if ez is None:
            raise SSetError("reindexing leaves the result")
        images[c] = ez
    return SMap(src.total.base, tgt.total.base, images)
