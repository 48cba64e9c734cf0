"""Slices, thick slices, mapping categories, and functor spaces.

Everything here is computed by the same engine: a construction is presented by
a family of representing objects F(0), F(1), ... with reindexing maps, and the
resulting object has n-simplices the scaled maps F(n) -> S extending the given
pins.  Levels are enumerated exactly up to a cap; the saturation flag records
whether the last two levels were purely degenerate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    EZ,
    SMap,
    SSet,
    SSetError,
    fiber as fiber_core,
    pair_cell,
    product,
    standard_simplex,
)
from .decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    decorate,
    restrict_ms,
)
from .ops import compose, const_op, degeneracy_op, face_op, idop
from .tensor import (
    GrayResult,
    JoinMS,
    ThickJoin,
    flat_ms,
    gray_marked_n,
    interval_sharp,
    join_ms,
    thick_join,
    triangle_thin,
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


class JoinShape:
    """F(n) = (flat Delta^n) * K for side 'over', K * (flat Delta^n) for 'under'."""

    def __init__(self, K: MarkedScaled, f: SMap, side: str):
        if side not in ("over", "under"):
            raise SSetError("side must be 'over' or 'under'")
        self.K, self.f, self.side = K, f, side
        self._cache: dict[int, tuple] = {}
        self._upgrades: dict[str, frozenset] = {}

    def _variant(self, X: MarkedScaled) -> JoinMS:
        if self.side == "over":
            return join_ms(X, self.K, dim_cap=X.base.dim + self.K.base.dim + 1)
        return join_ms(self.K, X, dim_cap=X.base.dim + self.K.base.dim + 1)

    def object(self, n: int):
        if n not in self._cache:
            jm = self._variant(flat_ms(n))
            k_incl = jm.incl2 if self.side == "over" else jm.incl1
            pins = {
                k_incl.images[x].core: self.f.images[x] for x in self.K.base.dim_of
            }
            self._cache[n] = (jm, pins)
        return self._cache[n]

    def scaled_object(self, n: int) -> tuple[Scaled, dict]:
        jm, pins = self.object(n)
        return jm.scaled, pins

    def induced(self, alpha, m: int, n: int) -> SMap:
        """F(alpha): F(m) -> F(n) for monotone alpha: [m] -> [n]."""
        from .ops import op_join
        from .tensor import simplex_from_word

        jm_m, _ = self.object(m)
        jm_n, _ = self.object(n)
        Jm, Jn = jm_m.scaled.base, jm_n.scaled.base
        ln, rn, mixn = Jn.join_names  # type: ignore[attr-defined]
        lm, rm, mixm = Jm.join_names  # type: ignore[attr-defined]
        mix_back = {v: k for k, v in mixm.items()}
        left_back = {v: k for k, v in lm.items()}
        right_back = {v: k for k, v in rm.items()}
        dm = standard_simplex(m)

        def push_delta(x: str) -> EZ:
            word = [alpha[int(v)] for v in dm.vertices_of(EZ(x, idop(dm.dim_of[x])))]
            return simplex_from_word(word)

        images = {}
        for c, nd in Jm.dim_of.items():
            if c in mix_back:
                a, b = mix_back[c]
                if self.side == "over":
                    img = push_delta(a)
                    images[c] = EZ(
                        mixn[(img.core, b)], op_join(img.op, idop(self.K.base.dim_of[b]), img.op[-1] + 1)
                    )
                else:
                    img = push_delta(b)
                    ka = self.K.base.dim_of[a]
                    images[c] = EZ(mixn[(a, img.core)], op_join(idop(ka), img.op, ka + 1))
            elif c in left_back:
                x = left_back[c]
                if self.side == "over":
                    img = push_delta(x)
                    images[c] = EZ(ln[img.core], img.op)
                else:
                    images[c] = EZ(ln[x], idop(nd))
            else:
                x = right_back[c]
                if self.side == "over":
                    images[c] = EZ(rn[x], idop(nd))
                else:
                    img = push_delta(x)
                    images[c] = EZ(rn[img.core], img.op)
        return SMap(Jm, Jn, images)

    def upgrade(self, which: str) -> frozenset:
        """Extra triangles that must land thin for marked (n=1) or thin (n=2)."""
        if which not in self._upgrades:
            X = interval_sharp() if which == "marked" else triangle_thin()
            variant = self._variant(X)
            base, _ = self.object(1 if which == "marked" else 2)
            if variant.scaled.base != base.scaled.base:
                raise SSetError("decorated variant changed the underlying join")
            self._upgrades[which] = variant.scaled.thin - base.scaled.thin
        return self._upgrades[which]

    def project_cell(self, n: int) -> str | None:
        jm, _ = self.object(n)
        d_incl = jm.incl1 if self.side == "over" else jm.incl2
        top = "".join(str(i) for i in range(n + 1)) if n <= 9 else ".".join(str(i) for i in range(n + 1))
        return d_incl.images[top].core


class ThickShape:
    """F(n) = (flat Delta^n) diamond_var K ('over') or K diamond_var (flat Delta^n)."""

    def __init__(self, K: MarkedScaled, f: SMap, variance: str, side: str):
        self.K, self.f, self.variance, self.side = K, f, variance, side
        self._cache: dict[int, tuple] = {}
        self._upgrades: dict[str, frozenset] = {}

    def _variant(self, X: MarkedScaled) -> ThickJoin:
        cap = X.base.dim + self.K.base.dim + 1
        if self.side == "over":
            return thick_join(self.variance, X, self.K, dim_cap=cap)
        return thick_join(self.variance, self.K, X, dim_cap=cap)

    def object(self, n: int):
        if n not in self._cache:
            tj = self._variant(flat_ms(n))
            k_incl = tj.incl_right if self.side == "over" else tj.incl_left
            pins = {}
            for x in self.K.base.dim_of:
                img = k_incl.images[x]
                pins[img.core] = self.f.images[x]
            self._cache[n] = (tj, pins)
        return self._cache[n]

    def scaled_object(self, n: int) -> tuple[Scaled, dict]:
        tj, pins = self.object(n)
        return tj.total, pins

    def induced(self, alpha, m: int, n: int) -> SMap:
        from .tensor import simplex_from_word

        tj_m, _ = self.object(m)
        tj_n, _ = self.object(n)
        Tm, Tn = tj_m.total.base, tj_n.total.base
        dm = standard_simplex(m)
        dn = standard_simplex(n)

        def push_delta(pair: EZ) -> EZ:
            word = [alpha[int(v)] for v in dm.vertices_of(pair)]
            return simplex_from_word(word)

        if self.side == "over":
            d_incl_n, k_incl_n = tj_n.incl_left, tj_n.incl_right
        else:
            k_incl_n, d_incl_n = tj_n.incl_left, tj_n.incl_right
        images = {}
        for c, nd in Tm.dim_of.items():
            kind, payload = tj_m.comp[c]
            if kind == ("L" if self.side == "over" else "R"):
                img = push_delta(EZ(payload, idop(dm.dim_of[payload])))
                base_img = d_incl_n.images[img.core]
                images[c] = EZ(base_img.core, compose(base_img.op, img.op))
            elif kind in ("L", "R"):
                images[c] = k_incl_n.images[payload]
            else:
                top = EZ(payload, idop(nd))
                c1 = tj_m.mid.projections[0](top)
                c2 = tj_m.mid.projections[1](top)
                c3 = tj_m.mid.projections[2](top)
                # the Delta factor sits where the X input of the join sits
                if self.variance == "inn":
                    comps = [c1, c2, c3]
                    dpos = 0 if self.side == "over" else 2
                else:
                    comps = [c1, c2, c3]
                    dpos = 2 if self.side == "over" else 0
                comps[dpos] = push_delta(comps[dpos])
                from .core import product_cell

                mid_cell = product_cell(tj_n.mid.mp, tuple(comps))
                images[c] = tj_n.quotient(mid_cell)
        return SMap(Tm, Tn, images)

    def upgrade(self, which: str) -> frozenset:
        if which not in self._upgrades:
            X = interval_sharp() if which == "marked" else triangle_thin()
            variant = self._variant(X)
            base, _ = self.object(1 if which == "marked" else 2)
            if variant.total.base != base.total.base:
                raise SSetError("decorated variant changed the underlying thick join")
            self._upgrades[which] = variant.total.thin - base.total.thin
        return self._upgrades[which]

    def project_cell(self, n: int) -> str | None:
        tj, _ = self.object(n)
        d_incl = tj.incl_left if self.side == "over" else tj.incl_right
        top = "".join(str(i) for i in range(n + 1)) if n <= 9 else ".".join(str(i) for i in range(n + 1))
        return d_incl.images[top].core


class GrayShape:
    """F(n) = (flat Delta^n) (x) K for 'left', K (x) (flat Delta^n) for 'right'."""

    def __init__(self, K: MarkedScaled, side: str):
        self.K, self.side = K, side
        self._cache: dict[int, tuple] = {}
        self._upgrades: dict[str, frozenset] = {}

    def _variant(self, X: MarkedScaled) -> GrayResult:
        cap = X.base.dim + self.K.base.dim
        factors = [X, self.K] if self.side == "left" else [self.K, X]
        return gray_marked_n(factors, dim_cap=cap)

    def object(self, n: int):
        if n not in self._cache:
            self._cache[n] = (self._variant(flat_ms(n)), {})
        return self._cache[n]

    def scaled_object(self, n: int) -> tuple[Scaled, dict]:
        g, pins = self.object(n)
        return g.scaled, pins

    def _dpos(self) -> int:
        return 0 if self.side == "left" else 1

    def induced(self, alpha, m: int, n: int) -> SMap:
        from .core import product_cell
        from .tensor import simplex_from_word

        g_m, _ = self.object(m)
        g_n, _ = self.object(n)
        dm = standard_simplex(m)
        dpos = self._dpos()
        images = {}
        for c, nd in g_m.scaled.base.dim_of.items():
            top = EZ(c, idop(nd))
            comps = [pr(top) for pr in g_m.projections]
            word = [alpha[int(v)] for v in dm.vertices_of(comps[dpos])]
            comps[dpos] = simplex_from_word(word)
            images[c] = product_cell(g_n.mp, tuple(comps))
        return SMap(g_m.scaled.base, g_n.scaled.base, images)

    def upgrade(self, which: str) -> frozenset:
        if which not in self._upgrades:
            if which == "marked":
                X = interval_sharp()
                base, _ = self.object(1)
            else:
                X = decorate(standard_simplex(2), SHARP, SHARP)
                base, _ = self.object(2)
            variant = self._variant(X)
            if variant.scaled.base != base.scaled.base:
                raise SSetError("decorated variant changed the underlying product")
            self._upgrades[which] = variant.scaled.thin - base.scaled.thin
        return self._upgrades[which]

    def project_cell(self, n: int) -> str | None:
        return None


class CartesianShape:
    """F(n) = (Delta^n with chosen scaling) x underlying(K), cartesian scaling."""

    def __init__(self, K: MarkedScaled, delta_scaling: str = FLAT):
        self.K = K
        self.delta_scaling = delta_scaling
        self._cache: dict[int, tuple] = {}

    def _build(self, n: int, delta_scaling: str):
        P, pr1, pr2 = product(standard_simplex(n), self.K.base, dim_cap=n + self.K.base.dim)
        dsc = decorate(standard_simplex(n), FLAT, delta_scaling)
        thin = set()
        for t in P.level(2):
            top = EZ(t, idop(2))
            if dsc.is_thin(pr1(top)) and self.K.is_thin(pr2(top)):
                thin.add(t)
        return Scaled(P, frozenset(thin)), pr1, pr2

    def object(self, n: int):
        if n not in self._cache:
            sc, pr1, pr2 = self._build(n, self.delta_scaling)
            self._cache[n] = ((sc, pr1, pr2), {})
        return self._cache[n]

    def scaled_object(self, n: int) -> tuple[Scaled, dict]:
        (sc, _, _), pins = self.object(n)
        return sc, pins

    def induced(self, alpha, m: int, n: int) -> SMap:
        from .tensor import simplex_from_word

        (sc_m, pr1m, pr2m), _ = self.object(m)
        (sc_n, _, _), _ = self.object(n)
        dm = standard_simplex(m)
        images = {}
        for c, nd in sc_m.base.dim_of.items():
            top = EZ(c, idop(nd))
            a, b = pr1m(top), pr2m(top)
            word = [alpha[int(v)] for v in dm.vertices_of(a)]
            images[c] = pair_cell(sc_n.base, simplex_from_word(word), b)
        return SMap(sc_m.base, sc_n.base, images)

    def upgrade(self, which: str) -> frozenset:
        if which != "thin":
            raise SSetError("cartesian functor spaces carry no marking")
        sharp, _, _ = self._build(2, SHARP)
        flat_sc, _, _ = self._build(2, self.delta_scaling)
        return sharp.thin - flat_sc.thin

    def project_cell(self, n: int) -> str | None:
        return None


# -- the level engine ---------------------------------------------------------------


def build_representable(
    shape,
    S: Scaled,
    cap: int,
    provenance: str,
    image_ok_extra: Callable | None = None,
    keep: Callable | None = None,
    with_marking: bool = True,
    with_scaling: bool = True,
) -> SliceResult:
    """Enumerate levels 0..cap of the representable construction for a shape."""
    from .core import enumerate_maps

    levels: list[dict] = []
    all_maps: list[dict] = []
    cells: list[list[str]] = [[] for _ in range(cap + 1)]
    faces: dict[str, tuple] = {}
    cell_maps: dict[str, SMap] = {}
    for n in range(cap + 1):
        F, pins = shape.scaled_object(n)

        def image_ok(x, cand, F=F):
            if F.base.dim_of[x] == 2 and x in F.thin and not S.is_thin(cand):
                return False
            if image_ok_extra is not None and not image_ok_extra(n, x, cand):
                return False
            return True

        maps = enumerate_maps(F.base, S.base, partial=pins, image_ok=image_ok)
        if keep is not None:
            maps = [m for m in maps if keep(n, m)]
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
    from .decor import is_scaled_map

    if f.source != K.base or f.target != S.base:
        raise SSetError("slice diagram mismatch")
    if not is_scaled_map(f, K.scaled(), S):
        raise SSetError("slice diagram is not a scaled map")
    shape = JoinShape(K, f, side)
    tag = "/f" if side == "over" else "f/"
    return build_representable(shape, S, cap, f"slice {tag} (ordinary join), cap {cap}")


def slice_over_vertex(S: Scaled, vertex: str, cap: int, side: str = "over") -> SliceResult:
    pt = flat_ms(0)
    f = SMap(pt.base, S.base, {"0": EZ(vertex, (0,))})
    return slice_construction(S, pt, f, side, cap)


def slice_over_marked_arrow(S: Scaled, edge: str, cap: int) -> SliceResult:
    """The slice over a sharp-marked arrow, X_{/e-sharp}."""
    K = interval_sharp()
    d1 = K.base
    top = EZ(edge, idop(1))
    f = SMap(
        d1,
        S.base,
        {"0": S.base.face(top, 1), "1": S.base.face(top, 0), "01": top},
    )
    return slice_construction(S, K, f, "over", cap)


def thick_slice(S: Scaled, K: MarkedScaled, f: SMap, variance: str, side: str, cap: int) -> SliceResult:
    """The thick slice S^{/f}_var or S^{f/}_var."""
    if f.source != K.base or f.target != S.base:
        raise SSetError("slice diagram mismatch")
    shape = ThickShape(K, f, variance, side)
    tag = "/f" if side == "over" else "f/"
    return build_representable(shape, S, cap, f"thick slice {tag} {variance}, cap {cap}")


def thick_slice_over_vertex(
    S: Scaled, vertex: str, variance: str, cap: int, side: str = "over"
) -> SliceResult:
    pt = flat_ms(0)
    f = SMap(pt.base, S.base, {"0": EZ(vertex, (0,))})
    return thick_slice(S, pt, f, variance, side, cap)


def fiber_ms(X: MarkedScaled, p: SMap, vertex: str) -> tuple[MarkedScaled, SMap]:
    """The fiber of p at a vertex, with the decorations of X restricted."""
    sub, incl = fiber_core(p, vertex)
    return restrict_ms(X, incl), incl


def hom_category(C: Scaled, x: str, y: str, cap: int) -> SliceResult:
    """The mapping category Hom_C(x, y): maps Delta^n x Delta^1 -> C constant on
    the ends, with the staircase triangles thin."""
    shape = HomShape(C, x, y)
    return build_representable(shape, C, cap, f"hom({x},{y}), cap {cap}", with_scaling=False)


class HomShape:
    def __init__(self, C: Scaled, x: str, y: str):
        self.C, self.x, self.y = C, x, y
        self._cache: dict[int, tuple] = {}

    def _word_cell(self, P: SSet, dn: SSet, d1: SSet, words) -> str:
        from .tensor import simplex_from_word

        a = simplex_from_word([w[0] for w in words])
        b = simplex_from_word([w[1] for w in words])
        cell = pair_cell(P, a, b)
        if not cell.is_nondeg():
            raise SSetError("expected a nondegenerate staircase cell")
        return cell.core

    def object(self, n: int):
        if n not in self._cache:
            P, pr1, pr2 = product(standard_simplex(n), standard_simplex(1), dim_cap=n + 1)
            thin = set()
            for i in range(n + 1):
                for j in range(i, n + 1):
                    words = [(i, 0), (i, 1), (j, 1)]
                    if len(set(words)) == 3:
                        thin.add(self._word_cell(P, None, None, words))
            pins = {}
            for c, nd in P.dim_of.items():
                top = EZ(c, idop(nd))
                second = pr2(top)
                if second.core != "01":  # the cell lies in Delta^n x {0 or 1}
                    target = self.x if second.core == "0" else self.y
                    pins[c] = EZ(target, const_op(nd, 0))
            self._cache[n] = ((Scaled(P, frozenset(thin)), pr1, pr2), pins)
        return self._cache[n]

    def scaled_object(self, n: int):
        (sc, _, _), pins = self.object(n)
        return sc, pins

    def induced(self, alpha, m: int, n: int) -> SMap:
        from .tensor import simplex_from_word

        (sc_m, pr1m, pr2m), _ = self.object(m)
        (sc_n, _, _), _ = self.object(n)
        dm = standard_simplex(m)
        images = {}
        for c, nd in sc_m.base.dim_of.items():
            top = EZ(c, idop(nd))
            a, b = pr1m(top), pr2m(top)
            word = [alpha[int(v)] for v in dm.vertices_of(a)]
            images[c] = pair_cell(sc_n.base, simplex_from_word(word), b)
        return SMap(sc_m.base, sc_n.base, images)

    def upgrade(self, which: str) -> frozenset:
        if which != "marked":
            raise SSetError("hom categories carry no scaling")
        (sc, _, _), _ = self.object(1)
        return frozenset({self._word_cell(sc.base, None, None, [(0, 0), (1, 0), (1, 1)])})

    def project_cell(self, n: int) -> str | None:
        return None


def hom_triangle(C: Scaled, x: str, y: str, cap: int) -> tuple[MarkedScaled, SliceResult]:
    """Hom^|> = the fiber at x of the slice of C over y."""
    sl = slice_over_vertex(C, y, cap)
    fib, _ = fiber_ms(sl.total, sl.projection, x)
    return fib, sl


def fun_space(K: MarkedScaled, X: Scaled, product_kind: str, cap: int) -> SliceResult:
    """The functor space with Gray (left/right) or cartesian levels."""
    if product_kind == "gray_left":
        shape = GrayShape(K, "left")
    elif product_kind == "gray_right":
        shape = GrayShape(K, "right")
    elif product_kind == "cartesian":
        shape = CartesianShape(K)
    else:
        raise SSetError("product_kind must be cartesian, gray_left or gray_right")
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
        (sc, pr1, pr2), _ = shape.object(n)
        nd = sc.base.dim_of[x]
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
        (sc1, pr1, pr2), _ = shape.object(1)
        columns = []
        for c, nd in sc1.base.dim_of.items():
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


def join_k_induced(src: JoinShape, tgt: JoinShape, g: SMap, n: int) -> SMap:
    """F_{K_src}(n) -> F_{K_tgt}(n) induced by g: K_src -> K_tgt on the K side.

    Both shapes must have the same side; the Delta part is untouched.
    """
    from .ops import op_join

    if src.side != tgt.side:
        raise SSetError("join shapes must share a side")
    jm_s, _ = src.object(n)
    jm_t, _ = tgt.object(n)
    Js, Jt = jm_s.scaled.base, jm_t.scaled.base
    ls, rs, mixs = Js.join_names  # type: ignore[attr-defined]
    lt, rt, mixt = Jt.join_names  # type: ignore[attr-defined]
    back_l = {v: k for k, v in ls.items()}
    back_r = {v: k for k, v in rs.items()}
    back_m = {v: k for k, v in mixs.items()}
    over = src.side == "over"
    images = {}
    for c, nd in Js.dim_of.items():
        if c in back_l:
            x = back_l[c]
            if over:
                images[c] = EZ(lt[x], idop(nd))
            else:
                img = g(EZ(x, idop(nd)))
                images[c] = EZ(lt[img.core], img.op)
        elif c in back_r:
            x = back_r[c]
            if over:
                img = g(EZ(x, idop(nd)))
                images[c] = EZ(rt[img.core], img.op)
            else:
                images[c] = EZ(rt[x], idop(nd))
        else:
            a, b = back_m[c]
            if over:
                da = standard_simplex(n).dim_of.get(a)
                img = g(EZ(b, idop(src.K.base.dim_of[b])))
                images[c] = EZ(
                    mixt[(a, img.core)], op_join(idop(da), img.op, da + 1)
                )
            else:
                img = g(EZ(a, idop(src.K.base.dim_of[a])))
                db = standard_simplex(n).dim_of.get(b)
                images[c] = EZ(
                    mixt[(img.core, b)], op_join(img.op, idop(db), img.op[-1] + 1)
                )
    return SMap(Js, Jt, images)


def postcompose_map(src: SliceResult, tgt: SliceResult, post: SMap) -> SMap:
    """The map of slice-like objects induced by postcomposition with post."""
    images = {}
    for c, m in src.cell_maps.items():
        n = src.total.base.dim_of[c]
        pm = m.then(post)
        ez = tgt.levels[n].get(pm.key())
        if ez is None:
            raise SSetError("postcomposition leaves the computed levels")
        images[c] = ez
    return SMap(src.total.base, tgt.total.base, images)


def precompose_map(src: SliceResult, tgt: SliceResult, pre: Callable[[int], SMap]) -> SMap:
    """The map src -> tgt with n-simplices sent to m o pre(n)."""
    images = {}
    for c, m in src.cell_maps.items():
        n = src.total.base.dim_of[c]
        rm = pre(n).then(m)
        ez = tgt.levels[n].get(rm.key())
        if ez is None:
            raise SSetError("precomposition leaves the computed levels")
        images[c] = ez
    return SMap(src.total.base, tgt.total.base, images)
