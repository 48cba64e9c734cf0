"""Gray products, decorated joins, thick joins, cones, and the explicit
comparison maps and homotopies between the thick and ordinary joins."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import (
    DIM_CAP,
    EZ,
    MultiProductResult,
    SMap,
    SSet,
    SSetError,
    check_mode,
    identity_map,
    join_sset,
    multi_product,
    pair_cell,
    product,
    product_cell,
    simplex_cell,
    standard_simplex,
    subcomplex,
)
from .decor import (
    FLAT,
    SHARP,
    MarkedScaled,
    Scaled,
    check_scaled_map,
    decorate,
    is_scaled_map,
    push_cells,
    pushout_ms,
)
from .ops import const_op, degeneracy_op, epi_mono, idop, op_join


def flat_ms(n: int) -> MarkedScaled:
    return decorate(standard_simplex(n), FLAT, FLAT)


def sharp_ms(n: int) -> MarkedScaled:
    return decorate(standard_simplex(n), SHARP, SHARP)


def point_ms() -> MarkedScaled:
    return flat_ms(0)


def interval_sharp() -> MarkedScaled:
    """The marked interval (Delta^1)^sharp."""
    return decorate(standard_simplex(1), SHARP, FLAT)


def triangle_thin() -> MarkedScaled:
    """Delta^2 with flat marking and its triangle thin."""
    return decorate(standard_simplex(2), FLAT, SHARP)


def degenerates_along(X: SSet, pair: EZ, i: int) -> bool:
    """The paper's convention: the simplex is degenerate and so is its
    {i,i+1} edge (this includes factoring through a point)."""
    if pair.is_nondeg():
        return False
    return not X.act(pair, (i, i + 1)).is_nondeg()


def degenerates_to_point(pair: EZ, base: SSet) -> bool:
    return base.dim_of[pair.core] == 0


def simplex_from_word(word) -> EZ:
    """The simplex of a standard simplex with the given monotone vertex word."""
    sigma, delta = epi_mono(tuple(word))
    return EZ(simplex_cell(delta), sigma)


# -- Gray products ----------------------------------------------------------------


class GrayResult(NamedTuple):
    scaled: Scaled
    projections: tuple[SMap, ...]
    mp: MultiProductResult


def gray_scaled(X: Scaled, Y: Scaled, dim_cap: int | None = None) -> GrayResult:
    """Binary Gray product of scaled simplicial sets: the flat-marked case of
    ``gray_marked_n``."""
    return gray_marked_n([X.flat_marked(), Y.flat_marked()], dim_cap=dim_cap)


def gray_thin_predicate(factors: list[MarkedScaled], comps: tuple[EZ, ...]) -> bool:
    """Thinness in the n-ary Gray product of marked-scaled simplicial sets."""
    n = len(factors)
    if not all(f.is_thin(c) for f, c in zip(factors, comps)):
        return False
    for j in range(n):
        if not all(not comps[i].is_nondeg() for i in range(n) if i != j):
            continue
        ok = True
        for i in range(n):
            if i == j:
                continue
            if i > j:
                edge = factors[i].base.act(comps[i], (0, 1))
            else:
                edge = factors[i].base.act(comps[i], (1, 2))
            if not factors[i].is_marked(edge):
                ok = False
                break
        if ok:
            return True
    return False


def gray_marked_n(factors: list[MarkedScaled], dim_cap: int | None = None) -> GrayResult:
    """The n-ary Gray product of marked-scaled simplicial sets (a scaled set)."""
    if len(factors) < 2:
        raise SSetError("Gray product needs at least two factors")
    mp = multi_product([f.base for f in factors], dim_cap=dim_cap)
    P, projs = mp.sset, mp.projections
    thin = set()
    for t in P.level(2):
        top = EZ(t, idop(2))
        comps = tuple(pr(top) for pr in projs)
        if gray_thin_predicate(factors, comps):
            thin.add(t)
    return GrayResult(Scaled(P, frozenset(thin)), projs, mp)


class VariantScalings(NamedTuple):
    minus: Scaled
    gr: Scaled
    plus: Scaled
    projections: tuple[SMap, ...]
    mp: MultiProductResult


def gray_variant_scalings(X: MarkedScaled, Y: MarkedScaled) -> VariantScalings:
    """The chain T_minus <= T_gr <= T_plus on the product of X and Y."""
    gr = gray_marked_n([X, Y])
    P = gr.scaled.base
    pr1, pr2 = gr.projections
    minus, plus = set(), set()
    for t in P.level(2):
        top = EZ(t, idop(2))
        a, b = pr1(top), pr2(top)
        if t in gr.scaled.thin:
            both_degenerate = not a.is_nondeg() and not b.is_nondeg()
            to_point = degenerates_to_point(a, X.base) or degenerates_to_point(b, Y.base)
            if both_degenerate or to_point:
                minus.add(t)
        if X.is_thin(a) and Y.is_thin(b):
            if X.is_marked(X.base.act(a, (1, 2))) or Y.is_marked(Y.base.act(b, (0, 1))):
                plus.add(t)
    if not (minus <= gr.scaled.thin <= plus):
        raise SSetError("variant scalings are not nested")
    return VariantScalings(
        Scaled(P, frozenset(minus)), gr.scaled, Scaled(P, frozenset(plus)), gr.projections, gr.mp
    )


@dataclass(frozen=True)
class Witness3:
    """A 3-simplex witnessing a scaling difference, with its checked faces."""

    rho: EZ
    si: int
    sj: int
    face_index: int
    faces_thin: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(b for i, b in enumerate(self.faces_thin) if i != self.face_index)


def marked_variants_witness(
    variants: VariantScalings, X: MarkedScaled, Y: MarkedScaled, cell: str, which: str
) -> Witness3:
    """The prescribed 3-simplex for a triangle in T_plus - T_gr or T_gr - T_minus."""
    check_mode("which", which, "plus", "gr")
    P = variants.gr.base
    pr1, pr2 = variants.projections
    top = EZ(cell, idop(2))
    if not top.is_nondeg() or P.dim_of.get(cell) != 2:
        raise SSetError("witness wanted for a non-triangle")
    a, b = pr1(top), pr2(top)
    if which == "plus":
        if cell in variants.gr.thin or cell not in variants.plus.thin:
            raise SSetError("triangle is not in T_plus - T_gr")
        smaller = variants.gr
        if X.is_marked(X.base.act(a, (1, 2))):
            si, sj = 1, 0
        elif Y.is_marked(Y.base.act(b, (0, 1))):
            si, sj = 2, 1
        else:
            raise SSetError("no prescribed witness case applies")
    else:
        if cell in variants.minus.thin or cell not in variants.gr.thin:
            raise SSetError("triangle is not in T_gr - T_minus")
        smaller = variants.minus
        if degenerates_along(X.base, a, 1):
            si, sj = 1, 0
        elif degenerates_along(X.base, a, 0) and X.is_marked(X.base.act(a, (1, 2))):
            si, sj = 1, 2
        elif degenerates_along(Y.base, b, 0):
            si, sj = 2, 1
        elif degenerates_along(Y.base, b, 1) and Y.is_marked(Y.base.act(b, (0, 1))):
            si, sj = 0, 1
        else:
            raise SSetError("no prescribed witness case applies")
    rho = product_cell(
        variants.mp, (X.base.act(a, degeneracy_op(2, si)), Y.base.act(b, degeneracy_op(2, sj)))
    )
    dfaces = P.faces_of(rho)
    face_index = next((i for i in (1, 2) if dfaces[i] == top), None)
    if face_index is None:
        raise SSetError("prescribed 3-simplex does not recover the triangle")
    faces_thin = tuple(smaller.is_thin(f) for f in dfaces)
    w = Witness3(rho, si, sj, face_index, faces_thin)
    if not w.ok:
        raise SSetError(f"witness verification failed for {cell!r}")
    return w


# -- decorated join -----------------------------------------------------------------


class JoinMS(NamedTuple):
    scaled: Scaled
    incl1: SMap
    incl2: SMap
    mixed: dict[tuple[str, str], str]  # (cell of X, cell of Y) -> their join cell

    @property
    def ends(self) -> tuple[SMap, SMap]:
        return self.incl1, self.incl2


def join_ms(X: MarkedScaled, Y: MarkedScaled, dim_cap: int | None = None) -> JoinMS:
    """The join of marked-scaled simplicial sets (output is scaled only)."""
    J, i1, i2, mixed = join_sset(X.base, Y.base, dim_cap=dim_cap)
    thin = set()
    for t in X.thin:
        thin.add(i1.images[t].core)
    for t in Y.thin:
        thin.add(i2.images[t].core)
    for e in X.marked:
        for v in Y.base.level(0):
            thin.add(mixed[(e, v)])
    for v in X.base.level(0):
        for e in Y.marked:
            thin.add(mixed[(v, e)])
    return JoinMS(Scaled(J, frozenset(thin)), i1, i2, mixed)


# -- thick joins ---------------------------------------------------------------------


@dataclass
class ThickJoin:
    """A thick join with its pushout provenance.

    ``comp`` classifies every nondegenerate cell of the total as coming from
    the left end, the right end, or the middle Gray product (with the middle
    representative), which later constructions use for reindexing.
    """

    variance: str
    total: Scaled
    incl_left: SMap
    incl_right: SMap
    quotient: SMap  # middle Gray product -> total
    mid: GrayResult
    comp: dict
    proj_left: SMap  # middle -> left factor base
    proj_int: SMap
    proj_right: SMap  # middle -> right factor base

    @property
    def ends(self) -> tuple[SMap, SMap]:
        return self.incl_left, self.incl_right


def thick_join(variance: str, X: MarkedScaled, Y: MarkedScaled, dim_cap: int | None = None) -> ThickJoin:
    """The inner or outer thick join, computed as two literal pushouts."""
    interval = flat_ms(1)
    if check_mode("variance", variance, "inn", "out") == "inn":
        factors = [X, interval, Y]
        mid = gray_marked_n(factors, dim_cap=dim_cap)
        pX, pI, pY = mid.projections
    else:
        factors = [Y, interval, X]
        mid = gray_marked_n(factors, dim_cap=dim_cap)
        pY, pI, pX = mid.projections
    G = mid.scaled.base

    def end_cells(vertex: str):
        return [c for c in G.dim_of if pI.images[c].core == vertex]

    end0, incl0 = subcomplex(G, end_cells("0"))
    g0 = incl0.then(pX)
    G_ms = mid.scaled.flat_marked()
    X_sc = MarkedScaled(X.base, frozenset(), X.thin)
    P1_ms, leg_X1, leg_G1 = pushout_ms(incl0, g0, G_ms, X_sc)

    end1, incl1 = subcomplex(G, end_cells("1"))
    i2 = incl1.then(leg_G1)
    g1 = incl1.then(pY)
    Y_sc = MarkedScaled(Y.base, frozenset(), Y.thin)
    P2_ms, leg_Y2, leg_P2 = pushout_ms(i2, g1, P1_ms, Y_sc)

    total = Scaled(P2_ms.base, P2_ms.thin)
    incl_left = leg_X1.then(leg_P2)
    incl_right = leg_Y2
    quotient = leg_G1.then(leg_P2)

    comp: dict = {}
    for x in X.base.dim_of:
        comp[incl_left.images[x].core] = ("L", x)
    for y in Y.base.dim_of:
        comp[incl_right.images[y].core] = ("R", y)
    for m in G.dim_of:
        img = quotient.images[m]
        if img.is_nondeg() and img.core not in comp:
            comp[img.core] = ("M", m)
    if set(comp) != set(total.base.dim_of):
        raise SSetError("thick join bookkeeping failed")
    return ThickJoin(
        variance, total, incl_left, incl_right, quotient, mid, comp, pX, pI, pY
    )


def thick_join_map(src: ThickJoin, tgt: ThickJoin, f: SMap, g: SMap) -> SMap:
    """f and g on the left and right factors, between two thick joins of one variance.

    A middle cell of the total goes to the quotient of the target's middle
    cell whose components are f, the interval identity and g of its own.
    """
    ident = identity_map(src.proj_int.target)
    maps = (f, ident, g) if src.variance == "inn" else (g, ident, f)
    images = {}
    for c, (kind, payload) in src.comp.items():
        if kind == "L":
            images[c] = tgt.incl_left(f.images[payload])
        elif kind == "R":
            images[c] = tgt.incl_right(g.images[payload])
        else:
            top = EZ(payload, idop(src.mid.mp.sset.dim_of[payload]))
            comps = tuple(h(pr(top)) for h, pr in zip(maps, src.mid.projections))
            images[c] = tgt.quotient(product_cell(tgt.mid.mp, comps))
    return SMap(src.total.base, tgt.total.base, images)


# -- cones ------------------------------------------------------------------------------


class ConeResult(NamedTuple):
    ms: MarkedScaled
    tj: ThickJoin
    star: str  # the cone point in the total


def cone(variance: str, side: str, K: MarkedScaled) -> ConeResult:
    """The cone on K: a thick join with a point, edges through the point marked."""
    pt = point_ms()
    if check_mode("side", side, "left", "right") == "left":
        tj = thick_join(variance, pt, K)
        star = tj.incl_left.images["0"].core
        k_incl = tj.incl_right
    else:
        tj = thick_join(variance, K, pt)
        star = tj.incl_right.images["0"].core
        k_incl = tj.incl_left
    marked = set(push_cells(k_incl, K.marked))
    total = tj.total
    for e in total.base.level(1):
        if star in total.base.vertices_of(EZ(e, idop(1))):
            marked.add(e)
    return ConeResult(MarkedScaled(total.base, frozenset(marked), total.thin), tj, star)


class WeightedCone(NamedTuple):
    scaled: Scaled
    leg_base: SMap  # I -> cone
    leg_cone: SMap  # thick cone on the weight -> cone
    tj: ThickJoin


def weighted_cone(
    variance: str,
    p: SMap,
    tilde: MarkedScaled,
    base: Scaled,
    side: str = "left",
) -> WeightedCone:
    """The p-weighted cone: glue the cone on the marked total space along p."""
    check_scaled_map(p, tilde, base, "weight projection")
    if check_mode("side", side, "left", "right") == "left":
        tj = thick_join(variance, point_ms(), tilde)
        tilde_incl = tj.incl_right
    else:
        tj = thick_join(variance, tilde, point_ms())
        tilde_incl = tj.incl_left
    cone_ms = MarkedScaled(tj.total.base, frozenset(), tj.total.thin)
    base_ms = MarkedScaled(base.base, frozenset(), base.thin)
    P_ms, leg_base, leg_cone = pushout_ms(tilde_incl, p, cone_ms, base_ms)
    return WeightedCone(Scaled(P_ms.base, P_ms.thin), leg_base, leg_cone, tj)


# -- comparison with the ordinary join ------------------------------------------------


class CompareR(NamedTuple):
    tj: ThickJoin
    join: JoinMS
    r: SMap


def compare_r(X: MarkedScaled, Y: MarkedScaled, dim_cap: int | None = None) -> CompareR:
    """The canonical map from the outer thick join to the ordinary join.

    Built from the partition description: a middle simplex (rho_Y, tau, rho_X)
    goes to the join simplex cut at min(tau^{-1}(1)).
    """
    tj = thick_join("out", X, Y, dim_cap=dim_cap)
    jn = join_ms(X, Y, dim_cap=dim_cap)
    J = jn.scaled.base
    images = {}
    for c, n in tj.total.base.dim_of.items():
        kind, payload = tj.comp[c]
        if kind == "L":
            images[c] = jn.incl1.images[payload]
        elif kind == "R":
            images[c] = jn.incl2.images[payload]
        else:
            top = EZ(payload, idop(n))
            rho_y, rho_x = tj.proj_right(top), tj.proj_left(top)
            word = _word_components(tj, top)[1]
            if 1 not in word or 0 not in word:
                raise SSetError("middle simplex with constant interval component")
            k = word.index(1)
            a = X.base.act(rho_x, tuple(range(0, k)))
            b = Y.base.act(rho_y, tuple(range(k, n + 1)))
            images[c] = EZ(jn.mixed[(a.core, b.core)], op_join(a.op, b.op, a.op[-1] + 1))
    r = SMap(tj.total.base, J, images)
    if not is_scaled_map(r, tj.total, jn.scaled):
        raise SSetError("comparison map is not thin-preserving")
    for n in range(J.dim + 1):
        hit = {r(pair) for pair in tj.total.base.simplices(n)}
        if set(J.simplices(n)) - hit:
            raise SSetError(f"comparison map not surjective on {n}-simplices")
    missing = jn.scaled.thin - push_cells(r, tj.total.thin)
    if missing:
        raise SSetError(f"comparison map not surjective on thin triangles: {missing}")
    return CompareR(tj, jn, r)


# -- the join comparison lemma: witnesses and homotopies ------------------------------


class JoinEqData(NamedTuple):
    p: int
    q: int
    cmp: CompareR
    T: frozenset
    Tprime: frozenset


@dataclass(frozen=True)
class JoinEqWitness:
    sigma: str
    eta: EZ
    face_index: int
    strict: bool  # all side faces already in T (not just previously added)


@lru_cache(maxsize=1)
def join_eq_data(p: int, q: int) -> JoinEqData:
    """T and T' on Delta^p outer-join Delta^q, with the comparison map; the last
    pair is kept, so its witnesses and its homotopies share one comparison."""
    cap = max(DIM_CAP, p + q + 2)
    cmp = compare_r(flat_ms(p), flat_ms(q), dim_cap=cap)
    total = cmp.tj.total
    tprime = frozenset(
        t for t in total.base.level(2) if not cmp.r(EZ(t, idop(2))).is_nondeg()
    )
    if not total.thin <= tprime:
        raise SSetError("thick-join scaling is not contained in T'")
    return JoinEqData(p, q, cmp, total.thin, tprime)


def _join_eq_eta(data: JoinEqData, cell: str) -> tuple[EZ, int]:
    """The prescribed 3-simplex for a triangle in T' - T (two cases)."""
    tj = data.cmp.tj
    G = tj.mid.scaled.base
    total = tj.total.base
    kind, payload = tj.comp[cell]
    if kind != "M":
        raise SSetError("T' - T triangles live in the middle part")
    top = EZ(payload, idop(2))
    rho_y, tau, rho_x = tj.proj_right(top), tj.proj_int(top), tj.proj_left(top)
    d1_base = tj.proj_int.target
    if degenerates_along(d1_base, tau, 1) and degenerates_along(tj.proj_right.target, rho_y, 1):
        alpha, beta, gamma = (0, 1, 1, 2), (0, 1, 1, 2), (0, 0, 1, 2)
        face_index = 1
    elif degenerates_along(d1_base, tau, 0) and degenerates_along(tj.proj_left.target, rho_x, 0):
        alpha, beta, gamma = (0, 1, 2, 2), (0, 1, 1, 2), (0, 1, 1, 2)
        face_index = 2
    else:
        raise SSetError(f"triangle {cell!r} matches neither witness case")
    comps = (
        tj.proj_right.target.act(rho_y, alpha),
        d1_base.act(tau, beta),
        tj.proj_left.target.act(rho_x, gamma),
    )
    eta_mid = product_cell(tj.mid.mp, comps)
    eta = tj.quotient(eta_mid)
    return eta, face_index


def join_eq_witness(data: JoinEqData, cell: str, already: frozenset = frozenset()) -> JoinEqWitness:
    """Check the prescribed witness: one face is the triangle itself and the
    other three lie in T (or were already added)."""
    if cell in data.T or cell not in data.Tprime:
        raise SSetError(f"{cell!r} is not in T' - T")
    total = data.cmp.tj.total.base
    eta, face_index = _join_eq_eta(data, cell)
    dfaces = total.faces_of(eta)
    if dfaces[face_index] != EZ(cell, idop(2)):
        raise SSetError(f"witness for {cell!r} does not recover it")
    small = Scaled(total, data.T)
    strict = True
    for i, f in enumerate(dfaces):
        if i == face_index:
            continue
        if small.is_thin(f):
            continue
        strict = False
        if not (f.is_nondeg() and f.core in already):
            raise SSetError(f"witness face {i} of {cell!r} is not thin")
    return JoinEqWitness(cell, eta, face_index, strict)


def join_eq_witnesses(p: int, q: int) -> tuple[JoinEqData, list[JoinEqWitness]]:
    """A pushout order adding every T' - T triangle via its witness."""
    data = join_eq_data(p, q)
    remaining = set(data.Tprime - data.T)
    done: set = set()
    order: list[JoinEqWitness] = []
    while remaining:
        hit = None
        for cell in sorted(remaining):
            try:
                hit = join_eq_witness(data, cell, frozenset(done))
                break
            except SSetError:
                continue
        if hit is None:
            raise SSetError("no pushout order for the comparison witnesses")
        order.append(hit)
        done.add(hit.sigma)
        remaining.remove(hit.sigma)
    return data, order


class HomotopyReport(NamedTuple):
    data: JoinEqData
    s: SMap
    u: SMap
    retraction_ok: bool
    h_end1_ok: bool
    k_end1_ok: bool
    h_end0_ok: bool
    k_end0_ok: bool
    h_constant: bool
    k_constant: bool
    scaled_ok: bool

    @property
    def ok(self) -> bool:
        return all(
            (
                self.retraction_ok,
                self.h_end1_ok,
                self.k_end1_ok,
                self.h_end0_ok,
                self.k_end0_ok,
                self.h_constant,
                self.k_constant,
                self.scaled_ok,
            )
        )


def _word_components(tj: ThickJoin, pair: EZ):
    """Vertex words of a middle simplex in each Gray factor."""
    G = tj.mid.scaled.base
    verts = [G.act(pair, (t,)) for t in range(pair.deg + 1)]
    projs = (tj.proj_right, tj.proj_int, tj.proj_left)
    return tuple(tuple(int(proj(v).core) for v in verts) for proj in projs)


def _mid_from_words(tj: ThickJoin, yw, iw, xw) -> EZ:
    comps = (simplex_from_word(yw), simplex_from_word(iw), simplex_from_word(xw))
    return tj.quotient(product_cell(tj.mid.mp, comps))


def join_eq_homotopies(p: int, q: int) -> HomotopyReport:
    """The retraction s, the map u and the homotopies h and k of the
    comparison between the thick and ordinary joins, with all checks."""
    if p > 3 or q > 3:
        raise SSetError("join_eq_homotopies is size-guarded to p, q <= 3")
    data = join_eq_data(p, q)
    tj, jn, r = data.cmp
    total = tj.total.base
    J = jn.scaled.base
    TT = Scaled(total, data.Tprime)
    # The vertex words of each middle cell of the total, and the cell of a word
    # triple: the homotopies below ask for the same ones many times.
    words = {
        c: _word_components(tj, EZ(payload, idop(total.dim_of[c])))
        for c, (kind, payload) in tj.comp.items()
        if kind == "M"
    }

    @lru_cache(maxsize=None)
    def mid(yw: tuple, iw: tuple, xw: tuple) -> EZ:
        return _mid_from_words(tj, yw, iw, xw)

    def s_image(word) -> EZ:
        yw = tuple(0 if v <= p else v - p - 1 for v in word)
        iw = tuple(0 if v <= p else 1 for v in word)
        xw = tuple(v if v <= p else p for v in word)
        return mid(yw, iw, xw)

    s_images = {}
    for c, n in J.dim_of.items():
        word = [int(v) for v in _join_vertex_word(J, c, p)]
        s_images[c] = s_image(word)
    s = SMap(J, total, s_images)

    u_images = {}
    for c, n in total.dim_of.items():
        if c not in words:  # a cell of the left or right end
            u_images[c] = EZ(c, idop(n))
        else:
            yw, iw, xw = words[c]
            yw2 = tuple(0 if e == 0 else v for v, e in zip(yw, iw))
            u_images[c] = mid(yw2, iw, xw)
    u = SMap(total, total, u_images)

    PT, prT, prI = product(total, standard_simplex(1), dim_cap=total.dim + 1)

    def homotopy(endpoint1: str) -> SMap:
        images = {}
        for cell, n in PT.dim_of.items():
            top = EZ(cell, idop(n))
            cpair, wpair = prT(top), prI(top)
            if cpair.core not in words:  # a cell of the left or right end
                images[cell] = cpair
                continue
            yw0, iw0, xw0 = words[cpair.core]
            yw = [yw0[t] for t in cpair.op]
            iw = [iw0[t] for t in cpair.op]
            xw = [xw0[t] for t in cpair.op]
            tw = [int(v) for v in prI.target.vertices_of(wpair)]
            oy, oi, ox = [], [], []
            for t in range(n + 1):
                if tw[t] == 0:  # the map u
                    oy.append(0 if iw[t] == 0 else yw[t])
                    oi.append(iw[t])
                    ox.append(xw[t])
                elif endpoint1 == "sr":  # s after r
                    oy.append(0 if iw[t] == 0 else yw[t])
                    oi.append(iw[t])
                    ox.append(xw[t] if iw[t] == 0 else p)
                else:  # identity
                    oy.append(yw[t])
                    oi.append(iw[t])
                    ox.append(xw[t])
            images[cell] = mid(tuple(oy), tuple(oi), tuple(ox))
        return SMap(PT, total, images)

    h = homotopy("sr")
    k = homotopy("id")

    def restrict(hom: SMap, eps: str) -> SMap:
        images = {}
        for c, n in total.dim_of.items():
            pcell = pair_cell(PT, EZ(c, idop(n)), EZ(eps, const_op(n, 0)))
            images[c] = hom(pcell)
        return SMap(total, total, images, validate=False)

    sr = SMap(total, total, {c: s(r(EZ(c, idop(n)))) for c, n in total.dim_of.items()}, validate=False)
    rs = SMap(J, J, {c: r(s(EZ(c, idop(n)))) for c, n in J.dim_of.items()}, validate=False)
    ident_total = identity_map(total)

    retraction_ok = rs == identity_map(J)
    h_end1_ok = restrict(h, "1") == sr
    k_end1_ok = restrict(k, "1") == ident_total
    h_end0_ok = restrict(h, "0") == u
    k_end0_ok = restrict(k, "0") == u

    def constant_on_vertices(hom: SMap) -> bool:
        for v in total.level(0):
            edge = pair_cell(PT, EZ(v, (0, 0)), EZ("01", (0, 1)))
            if hom(edge).is_nondeg():
                return False
        return True

    h_constant = constant_on_vertices(h)
    k_constant = constant_on_vertices(k)

    prod_thin = frozenset(t for t in PT.level(2) if TT.is_thin(prT(EZ(t, idop(2)))))
    PT_scaled = Scaled(PT, prod_thin)
    scaled_ok = (
        is_scaled_map(h, PT_scaled, TT)
        and is_scaled_map(k, PT_scaled, TT)
        and is_scaled_map(u, TT, TT)
        and is_scaled_map(s, Scaled(J, frozenset()), TT)
    )

    report = HomotopyReport(
        data, s, u, retraction_ok, h_end1_ok, k_end1_ok, h_end0_ok, k_end0_ok,
        h_constant, k_constant, scaled_ok,
    )
    if not report.ok:
        raise SSetError(f"join comparison homotopy verification failed: {report}")
    return report


def _join_vertex_word(J: SSet, cell: str, p: int) -> list[int]:
    """Vertices of a join cell as labels in Delta^{p+q+1}."""
    out = []
    for v in J.vertices_of(EZ(cell, idop(J.dim_of[cell]))):
        if v.endswith("*"):
            out.append(int(v[:-1]))
        elif v.startswith("*"):
            out.append(int(v[1:]) + p + 1)
        else:
            raise SSetError(f"unexpected join vertex {v!r}")
    return out
