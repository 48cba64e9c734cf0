"""Gray products, decorated joins, thick joins, cones, and the explicit
comparison maps and homotopies between the thick and ordinary joins."""
from __future__ import annotations

from itertools import accumulate, compress
from typing import NamedTuple

from .core import (
    DIM_CAP,
    EZ,
    MultiProductResult,
    SMap,
    SSet,
    SSetError,
    check_mode,
    content_key,
    coproduct,
    first_missed_dim,
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
    pulled_back_thin,
    push_cells,
    pushout_ms,
    witness_face,
)
from .ops import degeneracy_op, epi_mono, idop, memo, op_join


def flat_ms(n: int) -> MarkedScaled:
    return decorate(standard_simplex(n), FLAT, FLAT)


def point_ms() -> MarkedScaled:
    return flat_ms(0)


def interval_sharp() -> MarkedScaled:
    """The marked interval (Delta^1)^sharp."""
    return decorate(standard_simplex(1), SHARP, FLAT)


def degenerates_along(X: SSet, pair: EZ, i: int) -> bool:
    """The paper's convention: the simplex is degenerate and so is its
    {i,i+1} edge (this includes factoring through a point)."""
    if pair.is_nondeg():
        return False
    return not X.act(pair, (i, i + 1)).is_nondeg()


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
    if not all(f.is_thin(c) for f, c in zip(factors, comps)):
        return False
    n = len(factors)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        # every other factor i degenerates the triangle, with its edge 01 (i > j) or 12 (i < j) marked
        if all(not comps[i].is_nondeg() for i in others) and all(
            factors[i].is_marked(factors[i].base.act(comps[i], (0, 1) if i > j else (1, 2))) for i in others
        ):
            return True
    return False


def gray_marked_n(factors: list[MarkedScaled], dim_cap: int | None = None) -> GrayResult:
    """The n-ary Gray product of marked-scaled simplicial sets (a scaled set)."""
    if len(factors) < 2:
        raise SSetError("Gray product needs at least two factors")
    mp = multi_product([f.base for f in factors], dim_cap=dim_cap)
    P, projs = mp.sset, mp.projections
    thin = frozenset(t for t in P.level(2) if gray_thin_predicate(factors, tuple(pr(EZ(t, idop(2))) for pr in projs)))
    return GrayResult(Scaled(P, thin), projs, mp)


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
            to_point = X.base.dim_of[a.core] == 0 or Y.base.dim_of[b.core] == 0
            if both_degenerate or to_point:
                minus.add(t)
        if X.is_thin(a) and Y.is_thin(b):
            if X.is_marked(X.base.act(a, (1, 2))) or Y.is_marked(Y.base.act(b, (0, 1))):
                plus.add(t)
    if not (minus <= gr.scaled.thin <= plus):
        raise SSetError("variant scalings are not nested")
    return VariantScalings(Scaled(P, frozenset(minus)), gr.scaled, Scaled(P, frozenset(plus)), gr.projections, gr.mp)


class Witness(NamedTuple):
    """A 3-simplex rho that makes a triangle thin: its face ``face`` is the
    triangle, and ``witness_face`` has found its other faces thin."""

    triangle: str
    rho: EZ
    face: int


def marked_variants_witness(
    variants: VariantScalings, X: MarkedScaled, Y: MarkedScaled, cell: str, which: str
) -> Witness:
    """The prescribed 3-simplex for a triangle in T_plus - T_gr or T_gr - T_minus,
    checked against the smaller scaling."""
    check_mode("which", which, "plus", "gr")
    pr1, pr2 = variants.projections
    if variants.gr.base.dim_of.get(cell) != 2:
        raise SSetError("witness wanted for a non-triangle")
    a, b = pr1.images[cell], pr2.images[cell]
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
    return Witness(cell, rho, witness_face(smaller, rho, cell))


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
    # the thin triangles of the ends, and the marked edges of one end joined with a vertex of the other
    thin = push_cells(i1, X.thin) | push_cells(i2, Y.thin)
    thin |= {mixed[(e, v)] for e in X.marked for v in Y.base.level(0)}
    thin |= {mixed[(v, e)] for v in X.base.level(0) for e in Y.marked}
    return JoinMS(Scaled(J, thin), i1, i2, mixed)


# -- thick joins ---------------------------------------------------------------------


class ThickJoin(NamedTuple):
    """A thick join with its pushout provenance: one pushout of the Gray
    product along both of its ends.

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


@memo(key=content_key)
def thick_join(variance: str, X: MarkedScaled, Y: MarkedScaled, dim_cap: int | None = None) -> ThickJoin:
    """The inner or outer thick join: one pushout of the Gray product
    X x Delta^1 x Y (Y x Delta^1 x X for ``out``) along both of its ends into
    Y + X, the cells over interval vertex 0 going to X and those over 1 to Y."""
    interval = flat_ms(1)
    if check_mode("variance", variance, "inn", "out") == "inn":
        mid = gray_marked_n([X, interval, Y], dim_cap=dim_cap)
        pX, pI, pY = mid.projections
    else:
        mid = gray_marked_n([Y, interval, X], dim_cap=dim_cap)
        pY, pI, pX = mid.projections
    G = mid.scaled.base
    ends, incl = subcomplex(G, [c for c in G.dim_of if pI.images[c].core != "01"])
    YX = coproduct(Y.base, X.base)
    to_ends = SMap(
        ends,
        YX.sset,
        {
            c: YX.incl2(pX.images[c]) if pI.images[c].core == "0" else YX.incl1(pY.images[c])
            for c in ends.dim_of
        },
    )
    YX_ms = MarkedScaled(YX.sset, frozenset(), push_cells(YX.incl1, Y.thin) | push_cells(YX.incl2, X.thin))
    total_ms, leg_ends, quotient = pushout_ms(incl, to_ends, mid.scaled.flat_marked(), YX_ms)
    total = total_ms.scaled()
    incl_left = YX.incl2.then(leg_ends)
    incl_right = YX.incl1.then(leg_ends)

    comp: dict = {incl_left.images[x].core: ("L", x) for x in X.base.dim_of}
    comp.update({incl_right.images[y].core: ("R", y) for y in Y.base.dim_of})
    for m in G.dim_of:
        img = quotient.images[m]
        if img.is_nondeg() and img.core not in comp:
            comp[img.core] = ("M", m)
    return ThickJoin(variance, total, incl_left, incl_right, quotient, mid, comp, pX, pI, pY)


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
    left = check_mode("side", side, "left", "right") == "left"
    tj = thick_join(variance, point_ms(), K) if left else thick_join(variance, K, point_ms())
    pt_incl, k_incl = (tj.incl_left, tj.incl_right) if left else (tj.incl_right, tj.incl_left)
    star = pt_incl.images["0"].core
    total = tj.total
    through = {e for e in total.base.level(1) if star in total.base.vertices_of(EZ(e, idop(1)))}
    return ConeResult(MarkedScaled(total.base, push_cells(k_incl, K.marked) | through, total.thin), tj, star)


class WeightedCone(NamedTuple):
    scaled: Scaled
    leg_base: SMap  # I -> cone
    leg_cone: SMap  # thick cone on the weight -> cone
    tj: ThickJoin


def weighted_cone(variance: str, p: SMap, tilde: MarkedScaled, base: Scaled, side: str = "left") -> WeightedCone:
    """The p-weighted cone: glue the cone on the marked total space along p."""
    check_scaled_map(p, tilde, base, "weight projection")
    tj = cone(variance, side, tilde).tj
    tilde_incl = tj.incl_right if side == "left" else tj.incl_left
    P_ms, leg_base, leg_cone = pushout_ms(tilde_incl, p, tj.total.flat_marked(), base.flat_marked())
    return WeightedCone(P_ms.scaled(), leg_base, leg_cone, tj)


# -- comparison with the ordinary join ------------------------------------------------


class CompareR(NamedTuple):
    tj: ThickJoin
    join: JoinMS
    r: SMap


@memo(key=content_key)
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
            word = _word(tj.proj_int(top))
            if 1 not in word or 0 not in word:
                raise SSetError("middle simplex with constant interval component")
            k = word.index(1)
            a = X.base.act(rho_x, tuple(range(0, k)))
            b = Y.base.act(rho_y, tuple(range(k, n + 1)))
            images[c] = EZ(jn.mixed[(a.core, b.core)], op_join(a.op, b.op, a.op[-1] + 1))
    r = SMap(tj.total.base, J, images)
    r._validate()
    if not is_scaled_map(r, tj.total, jn.scaled):
        raise SSetError("comparison map is not thin-preserving")
    n = first_missed_dim(r)
    if n is not None:
        raise SSetError(f"comparison map not surjective on {n}-simplices")
    missing = jn.scaled.thin - push_cells(r, tj.total.thin)
    if missing:
        raise SSetError(f"comparison map not surjective on thin triangles: {missing}")
    return CompareR(tj, jn, r)


# -- the join comparison lemma: witnesses and homotopies ------------------------------


class JoinEqData(NamedTuple):
    cmp: CompareR
    T: frozenset
    Tprime: frozenset


def join_eq_data(p: int, q: int) -> JoinEqData:
    """T and T' on Delta^p outer-join Delta^q, with the comparison map, which a
    pair's witnesses and homotopies share through the memo of ``compare_r``."""
    cap = max(DIM_CAP, p + q + 2)
    cmp = compare_r(flat_ms(p), flat_ms(q), dim_cap=cap)
    total = cmp.tj.total
    tprime = frozenset(
        t for t in total.base.level(2) if not cmp.r(EZ(t, idop(2))).is_nondeg()
    )
    if not total.thin <= tprime:
        raise SSetError("thick-join scaling is not contained in T'")
    return JoinEqData(cmp, total.thin, tprime)


def _join_eq_eta(data: JoinEqData, cell: str) -> tuple[EZ, int]:
    """The prescribed 3-simplex for a triangle in T' - T (two cases)."""
    tj = data.cmp.tj
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


def join_eq_witness(data: JoinEqData, cell: str) -> Witness:
    """Check the prescribed witness: one face is the triangle itself and the
    other three lie in T."""
    if cell in data.T or cell not in data.Tprime:
        raise SSetError(f"{cell!r} is not in T' - T")
    eta, face_index = _join_eq_eta(data, cell)
    return Witness(cell, eta, witness_face(Scaled(data.cmp.tj.total.base, data.T), eta, cell, (face_index,)))


def join_eq_witnesses(p: int, q: int) -> tuple[JoinEqData, list[Witness]]:
    """Every T' - T triangle with its witness, in sorted order; each witness has
    its other faces in T, so any order is a pushout order."""
    data = join_eq_data(p, q)
    return data, [join_eq_witness(data, cell) for cell in sorted(data.Tprime - data.T)]


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
        return all(self[3:])


def _word(pair: EZ) -> tuple[int, ...]:
    """The vertex word of a simplex of a standard simplex of dimension at most 9,
    whose cell names spell their vertices digit by digit."""
    return tuple(int(pair.core[v]) for v in pair.op)


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
    # A simplex of G = Delta^q x Delta^1 x Delta^p (the join is outer) is its
    # sequence of vertices (y, i, x), each coded as the int (2y + i)(p + 1) + x;
    # it is nondegenerate where no two neighbouring codes agree.
    def code(y: int, i: int, x: int) -> int:
        return (2 * y + i) * (p + 1) + x

    vertices = {m: tuple(zip(*map(_word, comps))) for comps, m in tj.mid.mp.index.items()}
    cell_of = {tuple(code(*v) for v in vs): m for m, vs in vertices.items()}
    image_of: dict[tuple[int, ...], EZ] = {}

    def image(codes: tuple[int, ...]) -> EZ:
        """The simplex of the total that G's simplex with these vertex codes goes to."""
        out = image_of.get(codes)
        if out is None:  # its distinct codes, and the epi that collapses codes onto them
            moves = [a != b for a, b in zip(codes, codes[1:])]
            cores = tuple(compress(codes, [True, *moves]))
            out = image_of[codes] = tj.quotient(EZ(cell_of[cores], tuple(accumulate(moves, initial=0))))
        return out

    # a cell x*y of J (x or y empty at an end) has the vertices of x in Delta^p, then
    # those of y in Delta^q; s puts the first over interval vertex 0, the rest over 1
    s_images = {}
    for c in J.dim_of:
        xs, ys = c.split("*")
        s_images[c] = image(tuple(code(0, 0, int(x)) for x in xs) + tuple(code(int(y), 1, p) for y in ys))
    s = SMap(J, total, s_images)

    # Over a middle cell of the total, its vertex (y, i, x) at time t of the prism
    # goes under h to (u(y), i, p if t = i = 1 else x), and under k to (y if t = 1
    # else u(y), i, x), where u(y) = y if i = 1 else 0; u is either at t = 0.  hv
    # and kv list these codes, vertex v at time t in place 2v + t.
    prism_codes, u_images = {}, {}
    for c, n in total.dim_of.items():
        kind, payload = tj.comp[c]
        if kind != "M":  # a cell of the left or right end
            u_images[c] = EZ(c, idop(n))
            continue
        hv, kv = [], []
        for y, i, x in vertices[payload]:
            uy = y if i else 0
            hv += (code(uy, i, x), code(uy, i, p if i else x))
            kv += (code(uy, i, x), code(y, i, x))
        prism_codes[c] = hv, kv
        u_images[c] = image(tuple(hv[::2]))
    u = SMap(total, total, u_images)
    del vertices, s_images, u_images

    PT, prT, prI = product(total, standard_simplex(1), dim_cap=total.dim + 1)
    # h and k are u at time 0; at time 1, h is s after r and k the identity
    h_images, k_images = {}, {}
    at_end = {}  # (cell c of the total, vertex e of Delta^1) -> the cell c x e of PT
    for cell, cpair in prT.images.items():
        tpair = prI.images[cell]
        if tpair.core != "01":
            at_end[(cpair.core, tpair.core)] = cell
        codes = prism_codes.get(cpair.core)
        if codes is None:  # a cell of the left or right end
            h_images[cell] = k_images[cell] = cpair
            continue
        # the word of a simplex of Delta^1: its op, or all ones over the vertex 1
        path = [2 * v + t for v, t in zip(cpair.op, tpair.op)] if tpair.core != "1" else [2 * v + 1 for v in cpair.op]
        hv, kv = codes
        h_images[cell] = image(tuple([hv[j] for j in path]))
        k_images[cell] = image(tuple([kv[j] for j in path]))
    h = SMap(PT, total, h_images)
    k = SMap(PT, total, k_images)
    del image_of, cell_of, prism_codes, h_images, k_images  # h and k hold copies; the validations need none
    for f in (s, u, h, k):
        f._validate()

    def restrict(hom: SMap, eps: str) -> SMap:
        return SMap(total, total, {c: hom.images[at_end[(c, eps)]] for c in total.dim_of})

    def constant_on_vertices(hom: SMap) -> bool:
        return not any(hom(pair_cell(PT, EZ(v, (0, 0)), EZ("01", (0, 1)))).is_nondeg() for v in total.level(0))

    PT_scaled = Scaled(PT, pulled_back_thin(PT, (prT,), (TT,)))
    report = HomotopyReport(
        data, s, u,
        retraction_ok=s.then(r) == identity_map(J),
        h_end1_ok=restrict(h, "1") == r.then(s),
        k_end1_ok=restrict(k, "1") == identity_map(total),
        h_end0_ok=restrict(h, "0") == u,
        k_end0_ok=restrict(k, "0") == u,
        h_constant=constant_on_vertices(h),
        k_constant=constant_on_vertices(k),
        scaled_ok=(
            is_scaled_map(h, PT_scaled, TT)
            and is_scaled_map(k, PT_scaled, TT)
            and is_scaled_map(u, TT, TT)
            and is_scaled_map(s, Scaled(J, frozenset()), TT)
        ),
    )
    if not report.ok:
        raise SSetError(f"join comparison homotopy verification failed: {report}")
    return report
