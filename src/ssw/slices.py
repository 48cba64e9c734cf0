"""Slices, thick slices, mapping categories, and functor spaces.

Everything here is computed by the same engine: a construction is presented by
a family of representing objects F(0), F(1), ... with reindexing maps, and the
resulting object has n-simplices the scaled maps F(n) -> S extending the given
pins.  Levels are enumerated exactly up to a cap; the saturation flag records
whether the last two levels were purely degenerate.  The levels F(n), the
reindexing maps F(alpha) and the upgrades of a shape do not depend on S, on
the diagram or on the cap, so they are built once per process and shared by
every shape with the same parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

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
    restrict_ms,
)
from .ops import compose, const_op, degeneracy_op, face_op, idop
from .tensor import (
    flat_ms,
    gray_marked_n,
    interval_sharp,
    join_ms,
    simplex_from_word,
    thick_join,
    thick_join_map,
)


@dataclass
class SliceResult:
    """A representably-constructed decorated object with its level tables."""

    total: MarkedScaled
    projection: SMap | None
    provenance: str
    cap: int
    saturated: bool
    cell_maps: dict[str, SMap]
    levels: list[dict]  # per level: map key -> EZ
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


@lru_cache(maxsize=None)
def delta_map(alpha: tuple[int, ...], n: int) -> SMap:
    """The map Delta^m -> Delta^n of a monotone alpha: [m] -> [n]; built once, shared."""
    return simplex_map(standard_simplex(n), simplex_from_word(alpha))


# Levels, reindexing maps and upgrades of every shape built in this process, one
# table per (class, K, first, params): K is compared by content, so two equal K
# share one table.
_SHARED: dict[tuple, dict] = {}


class Shape:
    """A representable family: F(n) is the shape applied to flat Delta^n, and
    F(alpha) is the shape applied to the map Delta^m -> Delta^n.

    A subclass gives ``variant(X)``, the level on a decorated X, and
    ``reindex(src, tgt, d, k)``, the map between the constructions of two
    levels made from d on the Delta side and k on the K side; it may
    override ``build(n)``.  ``first`` says whether Delta is the first of
    the two factors; ``params()`` gives the other parameters the levels
    depend on.  Levels, reindexing maps and upgrades are built once per
    process and shared by every shape of the same class, K, first and params.
    """

    thin_probe_marking = FLAT  # the marking of the thin Delta^2 in upgrade('thin')

    def __init__(self, K: MarkedScaled, first: bool = True):
        self.K, self.first = K, first

    def params(self) -> tuple:
        return ()

    @cached_property
    def _table(self) -> dict:
        """This shape's table in the process-wide memo."""
        return _SHARED.setdefault((type(self), self.K, self.first, self.params()), {})

    def _memo(self, key: tuple, make: Callable, *args):
        """The shared value under key, made by make(*args) the first time."""
        value = self._table.get(key)
        if value is None:
            value = self._table[key] = make(*args)
        return value

    def ordered(self, d, k) -> tuple:
        """(d, k) in factor order; applied to (first, second) it gives (Delta, K)."""
        return (d, k) if self.first else (k, d)

    def object(self, n: int) -> Level:
        return self._memo(("level", n), self.build, n)

    def build(self, n: int) -> Level:
        return self.variant(flat_ms(n))

    def induced(self, alpha, m: int, n: int) -> SMap:
        """F(alpha): F(m) -> F(n) for monotone alpha: [m] -> [n]."""
        alpha = tuple(alpha)
        return self._memo(("induced", alpha, m, n), self._induced, alpha, m, n)

    def _induced(self, alpha: tuple, m: int, n: int) -> SMap:
        d = delta_map(alpha, n)
        return self.reindex(self.object(m).data, self.object(n).data, d, identity_map(self.K.base))

    def k_induced(self, other: "Shape", g: SMap, n: int) -> SMap:
        """F(n) -> F'(n) induced by g: K -> K', for a shape F' of the same kind on K'."""
        d = identity_map(standard_simplex(n))
        return self.reindex(self.object(n).data, other.object(n).data, d, g)

    def upgrade(self, which: str) -> frozenset:
        """The triangles of F(1) ('marked') or F(2) ('thin') that turn thin when
        Delta^1 is marked or Delta^2 thin; a simplex of the result is marked or
        thin when its map sends all of them to thin triangles."""
        return self._memo(("upgrade", which), self._upgrade, which)

    def _upgrade(self, which: str) -> frozenset:
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


class GrayShape(Shape):
    """F(n) = (flat Delta^n) (x) K for 'left', K (x) (flat Delta^n) for 'right'."""

    thin_probe_marking = SHARP  # Gray thinness also reads the markings of the factors

    def __init__(self, K: MarkedScaled, side: str):
        super().__init__(K, check_mode("side", side, "left", "right") == "left")

    def variant(self, X: MarkedScaled) -> Level:
        g = gray_marked_n(list(self.ordered(X, self.K)), dim_cap=X.base.dim + self.K.base.dim)
        return Level(g.scaled, {}, g)

    def reindex(self, src, tgt, d: SMap, k: SMap) -> SMap:
        return product_map(src.mp, tgt.mp, self.ordered(d, k))


class CartesianShape(Shape):
    """F(n) = (Delta^n with chosen scaling) x underlying(K), cartesian scaling."""

    def __init__(self, K: MarkedScaled, delta_scaling: str = FLAT):
        super().__init__(K)
        self.delta_scaling = delta_scaling

    def params(self) -> tuple:
        return (self.delta_scaling,)

    def build(self, n: int) -> Level:
        return self.variant(decorate(standard_simplex(n), FLAT, self.delta_scaling))

    def variant(self, X: MarkedScaled) -> Level:
        mp = multi_product([X.base, self.K.base], dim_cap=X.base.dim + self.K.base.dim)
        pr1, pr2 = mp.projections
        thin = set()
        for t in mp.sset.level(2):
            top = EZ(t, idop(2))
            if X.is_thin(pr1(top)) and self.K.is_thin(pr2(top)):
                thin.add(t)
        return Level(Scaled(mp.sset, frozenset(thin)), {}, mp)

    def reindex(self, src, tgt, d: SMap, k: SMap) -> SMap:
        return product_map(src, tgt, (d, k))


# -- the level engine ---------------------------------------------------------------


def check_cap(cap: int) -> None:
    """The level cap of a representable construction must be non-negative."""
    if cap < 0:
        raise SSetError(f"cap must be a non-negative integer, got {cap}")


def build_representable(
    shape: Shape,
    S: Scaled,
    cap: int,
    provenance: str,
    image_ok_extra: Callable | None = None,
    with_marking: bool = True,
    with_scaling: bool = True,
) -> SliceResult:
    """Enumerate levels 0..cap of the representable construction for a shape."""
    check_cap(cap)
    levels: list[dict] = []
    all_maps: list[dict] = []
    cells: list[list[str]] = [[] for _ in range(cap + 1)]
    faces: dict[str, tuple] = {}
    cell_maps: dict[str, SMap] = {}
    for n in range(cap + 1):
        F, pins, _ = shape.object(n)

        def image_ok(x, cand, F=F):
            if F.base.dim_of[x] == 2 and x in F.thin and not S.is_thin(cand):
                return False
            if image_ok_extra is not None and not image_ok_extra(n, x, cand):
                return False
            return True

        maps = enumerate_maps(F.base, S.base, partial=pins, image_ok=image_ok)
        table: dict = {}
        ez_of: dict = {}
        for m in maps:
            table[m.key()] = m
        deg_assign: dict = {}
        if n >= 1:
            sigma_maps = [shape.induced(degeneracy_op(n - 1, i), n, n - 1) for i in range(n)]
            for key, m_prev in all_maps[n - 1].items():
                prev_ez = levels[n - 1][key]
                for i, ind in enumerate(sigma_maps):
                    sm = ind.then(m_prev)
                    k2 = sm.key()
                    if k2 not in table:
                        raise SSetError("degenerate map missed by level enumeration")
                    if k2 not in deg_assign:
                        deg_assign[k2] = EZ(
                            prev_ez.core, compose(prev_ez.op, degeneracy_op(n - 1, i))
                        )
        fresh = []
        for key in table:
            if key not in deg_assign:
                fresh.append(key)
        for idx, key in enumerate(sorted(fresh)):
            name = f"s{n}.{idx}"
            cells[n].append(name)
            cell_maps[name] = table[key]
            deg_assign[key] = EZ(name, idop(n))
        levels.append({key: deg_assign[key] for key in table})
        all_maps.append(table)
        if n >= 1:
            delta_maps = [shape.induced(face_op(n, i), n - 1, n) for i in range(n + 1)]
            for name in cells[n]:
                m = cell_maps[name]
                fs = []
                for ind in delta_maps:
                    fm = ind.then(m)
                    ez = levels[n - 1].get(fm.key())
                    if ez is None:
                        raise SSetError("face of a representable simplex is missing")
                    fs.append(ez)
                faces[name] = tuple(fs)
    total_base = SSet(cells, faces, dim_cap=cap)
    marked = set()
    if with_marking and cap >= 1:
        extra = shape.upgrade("marked")
        for name in cells[1]:
            m = cell_maps[name]
            if all(S.is_thin(m(EZ(t, idop(2)))) for t in extra):
                marked.add(name)
    thin = set()
    if with_scaling and cap >= 2:
        extra = shape.upgrade("thin")
        for name in cells[2]:
            m = cell_maps[name]
            if all(S.is_thin(m(EZ(t, idop(2)))) for t in extra):
                thin.add(name)
    projection = None
    pc_cells = shape.project_cell(0)
    if pc_cells is not None:
        images = {}
        for n in range(cap + 1):
            pc = shape.project_cell(n)
            for name in cells[n]:
                images[name] = cell_maps[name].images[pc]
        projection = SMap(total_base, S.base, images)
    saturated = cap >= 1 and not cells[cap] and not cells[cap - 1]
    return SliceResult(
        MarkedScaled(total_base, frozenset(marked), frozenset(thin)),
        projection,
        provenance,
        cap,
        saturated,
        cell_maps,
        levels,
        shape,
    )


# -- public operations -----------------------------------------------------------------


def slice_construction(S: Scaled, K: MarkedScaled, f: SMap, side: str, cap: int) -> SliceResult:
    """The slice S_{/f} (side 'over') or S_{f/} (side 'under')."""
    check_scaled_map(f, K, S, "slice diagram")
    shape = JoinShape(K, f, side)
    tag = "/f" if side == "over" else "f/"
    return build_representable(shape, S, cap, f"slice {tag} (ordinary join), cap {cap}")


def slice_over_vertex(S: Scaled, vertex: str, cap: int, side: str = "over") -> SliceResult:
    return slice_construction(S, flat_ms(0), simplex_map(S.base, EZ(vertex, (0,))), side, cap)


def slice_over_marked_arrow(S: Scaled, edge: str, cap: int) -> SliceResult:
    """The slice over a sharp-marked arrow, X_{/e-sharp}."""
    return slice_construction(S, interval_sharp(), simplex_map(S.base, EZ(edge, idop(1))), "over", cap)


def thick_slice(S: Scaled, K: MarkedScaled, f: SMap, variance: str, side: str, cap: int) -> SliceResult:
    """The thick slice S^{/f}_var or S^{f/}_var."""
    check_scaled_map(f, K, S, "slice diagram")
    shape = ThickShape(K, f, variance, side)
    tag = "/f" if side == "over" else "f/"
    return build_representable(shape, S, cap, f"thick slice {tag} {variance}, cap {cap}")


def thick_slice_over_vertex(
    S: Scaled, vertex: str, variance: str, cap: int, side: str = "over"
) -> SliceResult:
    return thick_slice(S, flat_ms(0), simplex_map(S.base, EZ(vertex, (0,))), variance, side, cap)


def fiber_ms(X: MarkedScaled, p: SMap, vertex: str) -> tuple[MarkedScaled, SMap]:
    """The fiber of p at a vertex, with the decorations of X restricted."""
    sub, incl = fiber_core(p, vertex)
    return restrict_ms(X, incl), incl


def hom_category(C: Scaled, x: str, y: str, cap: int) -> SliceResult:
    """The mapping category Hom_C(x, y): maps Delta^n x Delta^1 -> C constant on
    the ends, with the staircase triangles thin."""
    for v in (x, y):
        if v not in C.base.level(0):
            raise SSetError(f"no vertex {v!r} in C")
    shape = HomShape(x, y)
    return build_representable(shape, C, cap, f"hom({x},{y}), cap {cap}", with_scaling=False)


class HomShape(CartesianShape):
    """F(n) = Delta^n x Delta^1, pinned to x on Delta^n x {0} and to y on
    Delta^n x {1}.  The triangles (i,0)(i,1)(j,1) are thin, and so is
    (i,0)(j,0)(j,1) when the edge ij is marked: that marks the edges of Hom."""

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


def hom_triangle(C: Scaled, x: str, y: str, cap: int) -> tuple[MarkedScaled, SliceResult]:
    """Hom^|> = the fiber at x of the slice of C over y."""
    sl = slice_over_vertex(C, y, cap)
    fib, _ = fiber_ms(sl.total, sl.projection, x)
    return fib, sl


def fun_space(K: MarkedScaled, X: Scaled, product_kind: str, cap: int) -> SliceResult:
    """The functor space with Gray (left/right) or cartesian levels."""
    if check_mode("product_kind", product_kind, "cartesian", "gray_left", "gray_right") == "cartesian":
        shape = CartesianShape(K)
    else:
        shape = GrayShape(K, product_kind.removeprefix("gray_"))
    return build_representable(
        shape, X, cap, f"fun[{product_kind}], cap {cap}", with_marking=False
    )


def fun_coc_subcat(
    K: MarkedScaled,
    p: SMap,
    X_scaled: Scaled,
    f: SMap,
    good_edges: frozenset,
    cap: int,
) -> SliceResult:
    """The full subcategory of the core of the fiber of Fun(K, X) over f spanned
    by the maps sending marked K-edges into the given (co)cartesian edge set.

    Marked edges of the result are the transformations whose components at
    every vertex of K lie in the given edge set (pointwise-(co)cartesian ones).
    """
    shape = CartesianShape(K, delta_scaling=SHARP)

    def in_good(pair: EZ) -> bool:
        return not pair.is_nondeg() or pair.core in good_edges

    def image_ok_extra(n, x, cand):
        mp = shape.object(n).data
        pr1, pr2 = mp.projections
        nd = mp.sset.dim_of[x]
        top = EZ(x, idop(nd))
        kpair = pr2(top)
        if p(cand) != f(kpair):
            return False
        if nd == 1:
            apair = pr1(top)
            delta_const = standard_simplex(n).dim_of[apair.core] == 0
            if delta_const and kpair.is_nondeg() and kpair.core in K.marked:
                if not in_good(cand):
                    return False
        return True

    res = build_representable(
        shape,
        X_scaled,
        cap,
        f"fun-coc subcat, cap {cap}",
        image_ok_extra=image_ok_extra,
        with_marking=False,
        with_scaling=False,
    )
    # marking: pointwise-good transformations
    marked = set()
    if cap >= 1:
        mp = shape.object(1).data
        pr1, pr2 = mp.projections
        columns = []
        for c, nd in mp.sset.dim_of.items():
            if nd != 1:
                continue
            top = EZ(c, idop(1))
            if pr1(top).is_nondeg() and not pr2(top).is_nondeg():
                columns.append(c)
        for name in res.total.base.level(1):
            m = res.cell_maps[name]
            if all(in_good(m(EZ(c, idop(1)))) for c in columns):
                marked.add(name)
    total = MarkedScaled(res.total.base, frozenset(marked), res.total.thin)
    return SliceResult(
        total, res.projection, res.provenance, cap, res.saturated, res.cell_maps, res.levels, shape
    )


def reindex_map(src: SliceResult, tgt: SliceResult, change: Callable[[int, SMap], SMap]) -> SMap:
    """The map src -> tgt sending the n-simplex m to change(n, m), such as
    ``pre(n).then(m)`` (precomposition) or ``m.then(post)`` (postcomposition)."""
    images = {}
    for c, m in src.cell_maps.items():
        n = src.total.base.dim_of[c]
        ez = tgt.levels[n].get(change(n, m).key())
        if ez is None:
            raise SSetError("reindexing leaves the computed levels")
        images[c] = ez
    return SMap(src.total.base, tgt.total.base, images)
