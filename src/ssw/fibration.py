"""The lifting engine: generator families, fibration predicates, the
cartesian-edge taxonomy, anodyne certificates, and the limit-cone checkers.

Verdicts are three-valued.  REFUTED always carries a concrete square with no
filler, a generator with its top and bottom; VERIFIED carries the dimension
bound up to which an inherently unbounded condition was checked.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    EZ,
    SMap,
    SSet,
    SSetError,
    check_mode,
    collapse,
    constant_map,
    boundary_inclusion,
    empty_sset,
    enumerate_maps,
    first_missed_dim,
    horn,
    horn_inclusion,
    identity_map,
    opposite,
    opposite_map,
    pair_cell,
    pullback,
    q_complex,
    q_marked_cells,
    simplex_cell,
    simplex_map,
    standard_simplex,
    subcomplex,
)
from .decor import (
    SHARP,
    MarkedScaled,
    Scaled,
    check_scaled_map,
    decorate,
    pulled_back_thin,
    push_cells,
    pushout_ms,
    restrict_ms,
    witness_face,
)
from .ops import Op, idop, injections, memo, op_reverse
from .tensor import (
    cone,
    gray_scaled,
    simplex_from_word,
)

VERIFIED, REFUTED, INCONCLUSIVE = "VERIFIED", "REFUTED", "INCONCLUSIVE"


class _VerdictFields(NamedTuple):
    status: str
    evidence: str
    bound: int | None


class Verdict(_VerdictFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _make and _replace check as __new__ does

    def __new__(cls, status: str, evidence: str = "", bound: int | None = None):
        if status == REFUTED and not evidence:
            raise SSetError("a refutation needs a concrete witness")
        return super().__new__(cls, status, evidence, bound)

    def render(self) -> str:
        if self.status == VERIFIED and self.bound is not None:
            return f"VERIFIED up to dimension {self.bound}"
        return self.status + (f": {self.evidence}" if self.evidence and self.status != VERIFIED else "")


def combine(verdicts) -> Verdict:
    """REFUTED dominates, then INCONCLUSIVE, then VERIFIED with minimum bound."""
    verdicts = list(verdicts)
    for status in (REFUTED, INCONCLUSIVE):
        for v in verdicts:
            if v.status == status:
                return v
    bounds = [v.bound for v in verdicts if v.bound is not None]
    return Verdict(VERIFIED, bound=min(bounds) if bounds else None)


# -- generators ------------------------------------------------------------------------


class Generator(NamedTuple):
    """A decorated mono with optional anchoring data for the top map."""

    name: str
    left: SMap
    A: MarkedScaled
    B: MarkedScaled
    top_pins: Mapping = MappingProxyType({})  # the empty defaults are read-only, as every instance shares them
    filler_pins: Mapping = MappingProxyType({})
    shape: _SimplexShape | None = None  # recorded by every family constructor, and by rescale_generator where it applies


class GeneratorFamily(NamedTuple):
    name: str
    generators: tuple
    bound: int  # the dimension bound the family was built to; a VERIFIED of has_rlp states it


def _cells(vertex_tuples) -> frozenset:
    """The cells of a standard simplex on the given vertex tuples."""
    return frozenset(simplex_cell(verts) for verts in vertex_tuples)


def simplex_generator(name, n: int, i: int | None, marked=(), thin=(), top_pins=None, filler_pins=None) -> Generator:
    """The horn Lambda^n_i in Delta^n, or the boundary if i is None, with
    Delta^n marked and scaled on the edges and triangles given as vertex
    tuples; the pins are keyed by vertex tuples too."""
    incl, shape = _simplex_horn(n, i)
    B = MarkedScaled(incl.target, _cells(marked), _cells(thin))

    def named(pins):
        return {simplex_cell(verts): pin for verts, pin in (pins or {}).items()}

    return Generator(name, incl, restrict_ms(B, incl), B, named(top_pins), named(filler_pins), shape)


@memo
def _simplex_horn(n: int, i: int | None) -> tuple:
    """The inclusion of Lambda^n_i (of the boundary if i is None) into Delta^n
    and its shape over q = id; built once per (n, i)."""
    incl = boundary_inclusion(n) if i is None else horn_inclusion(n, i)
    return incl, _simplex_shape(incl, identity_map(incl.target))


def rescale_generator(name, A: MarkedScaled, B: MarkedScaled) -> Generator:
    """The identity of the common base of A and B; it records a shape if the
    base is the image of its one top simplex, as Delta^n and Q are."""
    if A.base != B.base:
        raise SSetError("rescaling generators keep the underlying complex")
    base = A.base
    left, tops = identity_map(base), base.level(base.dim)
    q = None if len(tops) != 1 else simplex_map(base, EZ(tops[0], idop(base.dim)))
    shape = _simplex_shape(left, q) if q is not None and first_missed_dim(q) is None else None
    return Generator(name, left, A, B, shape=shape)


def _thin_triangle(name: str) -> Generator:
    """The rescaling of the flat 2-simplex to the thin one."""
    d2 = standard_simplex(2)
    return rescale_generator(name, MarkedScaled(d2), MarkedScaled(d2, thin=_cells([(0, 1, 2)])))


def scaled_inner_horn(n: int, i: int) -> Generator:
    return simplex_generator(f"scaled-inner-horn({n},{i})", n, i, thin=[(i - 1, i, i + 1)])


def edge_horn(flavor: str, n: int, anchor: EZ | None = None) -> Generator:
    """The n-dimensional horn of a cartesian-edge flavor, anchored at the last
    edge {n-1, n}: (Lambda^n_n, {0,n-1,n}) in (Delta^n, {0,n-1,n}) for
    "cartesian", the same with every {a,n-1,n} thin for "weak", and
    (Lambda^n_0)_flat in Delta^n_flat for "strong"; for n = 2 the strong
    edge is outside the horn, so the anchor pins the filler."""
    pins = {} if anchor is None else {(n - 1, n): anchor}
    if check_mode("flavor", flavor, "cartesian", "weak", "strong") == "cartesian":
        return simplex_generator(f"cartesian-horn({n})", n, n, thin=[(0, n - 1, n)], top_pins=pins)
    if flavor == "weak":
        thin = [(a, n - 1, n) for a in range(n - 1)]
        return simplex_generator(f"weak-cartesian-horn({n})", n, n, thin=thin, top_pins=pins)
    top_pins, filler_pins = (pins, None) if n >= 3 else (None, pins)
    return simplex_generator(f"strong-cartesian-horn({n})", n, 0, top_pins=top_pins, filler_pins=filler_pins)


def collapsed_horn_generator(name: str, n: int, edge: tuple, thin=()) -> Generator:
    """Lambda^n_e u_(edge) Delta^0 in Delta^n u_(edge) Delta^0, scaled on the
    images of the given triangles.  The edge is {0,1} (the horn at 0) or
    {n-1,n} (the horn at n); edge and triangles are vertex tuples."""
    i = 0 if 0 in edge else n
    res = collapse(standard_simplex(n), [simplex_cell([v]) for v in edge] + [simplex_cell(edge)])
    B = MarkedScaled(res.sset, frozenset(), push_cells(res.leg_big, _cells(thin)))
    incl = subcomplex(res.sset, {res.leg_big.images[c].core for c in horn(n, i).dim_of})[1]
    return Generator(name, incl, restrict_ms(B, incl), B, shape=_simplex_shape(incl, res.leg_big))


def _scaled_inner_horns(bound: int) -> tuple:
    return tuple(scaled_inner_horn(n, i) for n in range(2, bound + 1) for i in range(1, n))


@memo
def weak_fibration_family(bound: int) -> GeneratorFamily:
    gens = list(_scaled_inner_horns(bound))
    for n in range(2, bound + 1):
        gens.append(collapsed_horn_generator(f"collapsed-initial({n})", n, (0, 1), [(0, 1, n)]))
        gens.append(collapsed_horn_generator(f"collapsed-final({n})", n, (n - 1, n), [(0, n - 1, n)]))
    return GeneratorFamily(f"weak-fibration(bound {bound})", tuple(gens), bound)


@memo
def inner_horn_family(bound: int) -> GeneratorFamily:
    inner = [(n, i) for n in range(2, bound + 1) for i in range(1, n)]
    gens = tuple(simplex_generator(f"inner-horn({n},{i})", n, i) for n, i in inner)
    return GeneratorFamily(f"inner-horns(bound {bound})", gens, bound)


@memo
def outer_horn_family(bound: int) -> GeneratorFamily:
    """The collapsed outer horns of the underlying-simplicial outer condition."""
    gens = []
    for n in range(2, bound + 1):
        gens.append(collapsed_horn_generator(f"outer-initial({n})", n, (0, 1)))
        gens.append(collapsed_horn_generator(f"outer-final({n})", n, (n - 1, n)))
    return GeneratorFamily(f"outer-horns(bound {bound})", tuple(gens), bound)


@memo
def boundary_family(bound: int, marked_generator: bool = False, scaled_generator: bool = True) -> GeneratorFamily:
    """Trivial-fibration generators: flat boundary inclusions, the thin-triangle
    rescaling, and optionally the marked-edge rescaling."""
    gens = [simplex_generator(f"boundary({n})", n, None) for n in range(bound + 1)]
    if scaled_generator:
        gens.append(_thin_triangle("thin-detection"))
    if marked_generator:
        d1 = standard_simplex(1)
        gens.append(rescale_generator("marked-detection", MarkedScaled(d1), MarkedScaled(d1, _cells([(0, 1)]))))
    return GeneratorFamily(f"boundaries(bound {bound})", tuple(gens), bound)


# -- the RLP engine ---------------------------------------------------------------------


def _decorated(B: MarkedScaled, Z: MarkedScaled, b: str, cand: EZ) -> bool:
    """Whether cand is marked (thin) in Z wherever the cell b is marked (thin) in B."""
    n = B.base.dim_of[b]
    if n == 1 and b in B.marked and not Z.is_marked(cand):
        return False
    if n == 2 and b in B.thin and not Z.is_thin(cand):
        return False
    return True


def problems_for(gen: Generator, p: SMap, X: MarkedScaled, Y: MarkedScaled):
    """The (top, bottom) of every commuting square for a generator, in
    deterministic order: each decorated top A -> X that meets the top pins,
    with each decorated bottom B -> Y that is p of the top on A and p of the
    filler pins on theirs."""
    tops = enumerate_maps(gen.A.base, X.base, partial=gen.top_pins, image_ok=lambda a, c: _decorated(gen.A, X, a, c))
    for top in tops:
        bpins = {b: p(pin) for b, pin in gen.filler_pins.items()}
        if any(bpins.setdefault(img.core, p(top.images[a])) != p(top.images[a]) for a, img in gen.left.images.items()):
            continue  # the top and a filler pin disagree under p
        bottoms = enumerate_maps(gen.B.base, Y.base, partial=bpins, image_ok=lambda b, c: _decorated(gen.B, Y, b, c))
        for bottom in bottoms:
            yield top, bottom


def find_lift(gen: Generator, p: SMap, X: MarkedScaled, top: SMap, bottom: SMap) -> SMap | None:
    """Exhaustive search for a decorated filler B -> X of the square (gen, top,
    bottom) against p; deterministic first solution.  ``has_rlp`` calls it only
    for hand-built generators that record no shape."""
    pins = dict(gen.filler_pins)
    for a in gen.A.base.dim_of:
        pins[gen.left.images[a].core] = top.images[a]

    def image_ok(x, cand):
        return p(cand) == bottom.images[x] and _decorated(gen.B, X, x, cand)

    found = enumerate_maps(gen.B.base, X.base, partial=pins, image_ok=image_ok, first_only=True)
    return found[0] if found else None


def _first_in_search_order(Xb: SSet, failed: list):
    """The payload of the failing top first in the order of ``problems_for``, of
    entries (images of the cells of A in the order of ``A.dim_of``, payload):
    ``enumerate_maps`` ranks maps on the positions of those images in
    ``Xb.simplices``."""
    positions: dict[EZ, int] = {}

    def position(c):
        if c not in positions:
            positions.update((s, k) for k, s in enumerate(Xb.simplices(c.deg)))
        return positions[c]

    return min(failed, key=lambda top: [position(c) for c in top[0]])[1]


class _SimplexShape(NamedTuple):
    """A generator A -> B whose B is the image of a simplex q: Delta^n -> B,
    with B outside A at most q(Delta^n) and q(d_i Delta^n): a horn leaves out
    both, a boundary the top only, and a rescaling neither."""

    q: SMap
    i: int | None  # q(d_i Delta^n) is outside A; None if no facet is
    top_in_a: bool  # q(Delta^n) is in A: a top A -> X is one n-simplex of X, its one slot
    facets: tuple[int, ...]  # else the j of the facets d_j in A; a top is the tuple of its slots y_j, their images
    route: dict[str, tuple[int, Op]]  # cell a of A -> (k, op) with top(a) = slot k after op
    equal: tuple  # (route, a, sigma) for each other cell of Delta^n that q sends to a after sigma


def _simplex_shape(left: SMap, q: SMap) -> _SimplexShape:
    """The shape of the generator ``left``: A -> B over q: Delta^n -> B onto B.

    Where the top is outside A, a map A -> X is a tuple (y_j) of
    (n-1)-simplices with d_j y_k = d_{k-1} y_j for j < k (Goerss-Jardine
    I.3); where it is in A, an n-simplex.  Either meets the equalities q
    forces: for a collapsed horn, vertices 0 and 1 go to one v and the edge
    01 to s_0 v.
    """
    n = q.source.dim
    source = {img.core: a for a, img in left.images.items()}
    top = q.source.level(n)[0]
    top_in_a = q.images[top].core in source
    # the facet outside A is q(d_i); the faces of a vertex are none
    inside = [] if top_in_a else [q.images[c.core].core in source for c in q.source.faces.get(top, ())]
    i = inside.index(False) if False in inside else None
    facets = tuple(j for j, kept in enumerate(inside) if kept)
    route, equal = {}, []
    for k in reversed(range(n + 1)):
        # Delta^n lists its level-k cells in the order of injections(k, n)
        for verts, cell in zip(injections(k, n), q.source.level(k)):
            img = q.images[cell]
            if img.core not in source:
                continue  # outside A
            # read the cell off the top if it is in A, else off the first facet that contains it
            m = 0 if top_in_a else next(m for m, j in enumerate(facets) if j not in verts)
            r = (m, verts if top_in_a else tuple(v - (v > facets[m]) for v in verts))
            a = source[img.core]
            if img.is_nondeg() and a not in route:
                route[a] = r
            else:
                equal.append((r, a, img.op))
    return _SimplexShape(q, i, top_in_a, facets, route, tuple(equal))


def _first_unfilled(gen: Generator, p: SMap, X: MarkedScaled, Y: MarkedScaled) -> SMap | None:
    """The bottom of the first square with no filler, decided on the slots of
    the tops of the generator's shape, one slot at a time.

    A facet y_k of a top comes from the ``X.by_faces(n - 1, keep)`` bucket of
    its faces d_j y_k = d_{k-1} y_j, read off the slots chosen before; a top
    in A is one n-simplex of X.  Decided once per (slot, simplex): the pins
    and decorations of A on the cells read off the slot, whether p of them
    meets B's pins and decorations in Y (else no top through it has a
    square) and whether they meet B's decorations in X, and p of the slot.
    Equalities across slots are checked per top.  Outside A, the top t has
    its fillers in its ``X.by_faces(n, facets)`` bucket, and the bottom's
    images of d_i t and t come from ``Y.by_faces`` buckets keyed on p of the
    facets, once per tuple of p-images; in A, t is its own only filler.  The
    filters are those ``enumerate_maps`` and ``find_lift`` apply; only the
    bottom of the first failing top (``_first_in_search_order``) is an SMap.
    """
    B, Xb, Yb = gen.B.base, X.base, Y.base
    q, i, top_in_a, facets, route, equal = gen.shape
    n = q.source.dim
    t = q.images[q.source.level(n)[0]].core
    f = None if i is None else B.faces[t][i].core
    source = {a: img.core for a, img in gen.left.images.items()}
    bpins = {b: p(pin) for b, pin in gen.filler_pins.items()}
    # find_lift lets the top override a filler pin on a cell of A
    xpin_t, xpin_f = gen.filler_pins.get(t), gen.filler_pins.get(f)

    def at(a, ys):
        k, op = route[a]
        return Xb.act(ys[k], op)

    # the number of a top's slots and their dimension
    nslots, d = (1, n) if top_in_a else (len(facets), n - 1)
    # per slot: the cells a of A read off it that A or B (on a) pins or decorates, the equalities ending there
    checks, equalities = [[] for _ in range(nslots)], [[] for _ in range(nslots)]
    held_a, held_b = set(gen.top_pins) | gen.A.marked | gen.A.thin, set(bpins) | gen.B.marked | gen.B.thin
    for a, b in sorted(source.items()):  # in a fixed order, so that the work done repeats
        if a in held_a or b in held_b:
            checks[route[a][0]].append((a, b, route[a][1]))
    for r, a, sigma in equal:
        equalities[max(r[0], route[a][0])].append((r, a, sigma))

    def ok_bottom(b, cand):
        return bpins.get(b, cand) == cand and _decorated(gen.B, Y, b, cand)

    @lru_cache(maxsize=None)
    def slot(k, y):
        """For y in slot k: (its faces if a later slot reads them, p(y), whether
        the cells read off y meet B's decorations in X), or False if one misses
        a pin or decoration of A, or p of one misses B's in Y."""
        lifts = True
        for a, b, op in checks[k]:
            c = Xb.act(y, op)
            if gen.top_pins.get(a, c) != c or not _decorated(gen.A, X, a, c) or not ok_bottom(b, p(c)):
                return False
            lifts = lifts and _decorated(gen.B, X, b, c)
        return Xb.faces_of(y) if k + 1 < nslots else (), p(y), lifts

    # the tops with the faces, p-images and lifts of their slots, in search order
    tops = [((), (), (), True)]
    for k in range(nslots):
        # a vertex has no faces, so slots of dimension 0 do not constrain one another
        index, grown, eqs = Xb.by_faces(d, facets[:k] if d > 0 else ()), [], equalities[k]
        for ys, faces, pys, lifts in tops:
            key = tuple(fs[facets[k] - 1] for fs in faces) if d > 0 else ()
            for y in index.get(key, ()):
                fact, top = slot(k, y), (*ys, y)
                if fact and (not eqs or all(Xb.act(top[r[0]], r[1]) == Xb.act(at(a, top), s) for r, a, s in eqs)):
                    grown.append((top, (*faces, fact[0]), (*pys, fact[1]), lifts and fact[2]))
        tops = grown

    def ok_filler(sigma):
        # p(d_i sigma) is d_i p(sigma), the bottom on d_i t, once p(sigma) is right
        face = None if f is None else Xb.faces_of(sigma)[i]
        return xpin_t in (None, sigma) and _decorated(gen.B, X, t, sigma) and (
            f is None or (xpin_f in (None, face) and _decorated(gen.B, X, f, face))
        )

    fillers, ytops = Xb.by_faces(n, facets), None if top_in_a else Yb.by_faces(n)
    yfaces, bottoms, failed = None if f is None else Yb.by_faces(n - 1), {}, []
    for ys, _, pys, lifts in tops:
        if top_in_a:
            bottom = None if lifts else {}
        else:
            filled = {p(sigma) for sigma in fillers.get(ys, ()) if ok_filler(sigma)} if lifts else ()
            if pys not in bottoms:
                # the bottoms (on d_i t, on t) whose facets are pys, in search order
                fcands = [None]
                if f is not None:
                    # face k of d_i t is face i - 1 of d_k t (k < i) or face i of d_(k+1) t
                    fkey = tuple(Yb.face(py, i - 1 if k < i else i) for k, py in enumerate(pys)) if n > 1 else ()
                    fcands = [c for c in yfaces.get(fkey, ()) if ok_bottom(f, c)]
                tkeys = [(cf, pys if f is None else (*pys[:i], cf, *pys[i:])) for cf in fcands]
                bottoms[pys] = [(cf, ct) for cf, tkey in tkeys for ct in ytops.get(tkey, ()) if ok_bottom(t, ct)]
            bottom = next(({t: ct} if f is None else {f: cf, t: ct} for cf, ct in bottoms[pys] if ct not in filled), None)
        if bottom is not None:
            failed.append(([at(a, ys) for a in gen.A.base.dim_of], (ys, bottom)))
    if not failed:
        return None
    ys, bottom = _first_in_search_order(Xb, failed)
    return SMap(B, Yb, {**bpins, **{b: p(at(a, ys)) for a, b in source.items()}, **bottom})


def has_rlp(p: SMap, X: MarkedScaled, Y: MarkedScaled, family: GeneratorFamily) -> Verdict:
    """Exhaustively test the right lifting property against a family.

    A generator with a recorded shape, as every generator of ssw's family
    constructors has, is decided by ``_first_unfilled`` without map search;
    a hand-built one without a shape goes through ``problems_for`` and
    ``find_lift``.  Both report the first square without a filler in the
    order of ``problems_for``, so REFUTED names the same bottom.  VERIFIED
    states the family's bound.
    """
    for gen in family.generators:
        if gen.shape is not None:
            bottom = _first_unfilled(gen, p, X, Y)
        else:
            squares = problems_for(gen, p, X, Y)
            bottom = next((bottom for top, bottom in squares if find_lift(gen, p, X, top, bottom) is None), None)
        if bottom is not None:
            return Verdict(REFUTED, f"no filler for {gen.name} with bottom {sorted(bottom.images.items())}")
    return Verdict(VERIFIED, bound=family.bound)


# -- fibration predicates ------------------------------------------------------------------


def detects_thin(p: SMap, X: Scaled, Y: Scaled) -> Verdict:
    for t in X.base.level(2):
        lhs = t in X.thin
        rhs = Y.is_thin(p(EZ(t, idop(2))))
        if lhs != rhs:
            return Verdict(REFUTED, f"thin detection fails at triangle {t!r}")
    return Verdict(VERIFIED)


def is_weak_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int = 4) -> Verdict:
    return has_rlp(p, X.sharp_marked(), Y.sharp_marked(), weak_fibration_family(bound))


def _horn_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int, horns) -> Verdict:
    """Thin detection, the weak-fibration generators, then the given horn family."""
    detect = detects_thin(p, X, Y)
    if detect.status == REFUTED:
        return detect
    return combine([detect, is_weak_fibration(p, X, Y, bound), has_rlp(p, X.sharp_marked(), Y.sharp_marked(), horns(bound))])


def is_inner_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int = 4) -> Verdict:
    return _horn_fibration(p, X, Y, bound, inner_horn_family)


def is_outer_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int = 4) -> Verdict:
    return _horn_fibration(p, X, Y, bound, outer_horn_family)


# -- edge classification ----------------------------------------------------------------------


def _edge_family(flavor: str, e: EZ, bound: int) -> GeneratorFamily:
    gens = tuple(edge_horn(flavor, n, e) for n in range(2, bound + 1))
    return GeneratorFamily(f"{flavor}-edge(bound {bound})", gens, bound)


# The cocartesian flavors, each with the cartesian flavor of the opposite map.
_CO_FLAVORS = {"cocartesian": "cartesian", "weak_co": "weak", "strong_co": "strong"}


def classify_edge(p: SMap, X: Scaled, Y: Scaled, e: EZ, flavor: str, bound: int = 4) -> Verdict:
    """Run the lifting family of a cartesian-edge flavor anchored at e.

    Cocartesian flavors are checked through the opposite map.
    """
    if check_mode("flavor", flavor, "cartesian", "weak", "strong", *_CO_FLAVORS) in _CO_FLAVORS:
        eop = EZ(e.core, op_reverse(e.op))
        return classify_edge(opposite_map(p), X.op(), Y.op(), eop, _CO_FLAVORS[flavor], bound)
    fam = _edge_family(flavor, e, bound)
    return has_rlp(p, X.sharp_marked(), Y.sharp_marked(), fam)


def edge_table(p: SMap, X: Scaled, Y: Scaled, flavor: str, bound: int = 4) -> dict[str, Verdict]:
    return {e: classify_edge(p, X, Y, EZ(e, (0, 1)), flavor, bound) for e in X.base.level(1)}


def is_var_cartesian_fibration(p: SMap, X: Scaled, Y: Scaled, variance: str, co: bool = False, bound: int = 4):
    """The full fibration predicate plus the table of (co)cartesian edges."""
    if co:
        return is_var_cartesian_fibration(opposite_map(p), X.op(), Y.op(), variance, False, bound)
    if check_mode("variance", variance, "inn", "out") == "inn":
        fib = is_inner_fibration(p, X, Y, bound)
    else:
        fib = is_outer_fibration(p, X, Y, bound)
    if fib.status == REFUTED:
        return fib, {}
    table = edge_table(p, X, Y, "cartesian", bound)
    lift_verdicts = []
    for x in X.base.level(0):
        px = p.images[x].core
        for ebar in Y.base.simplices(1):
            if Y.base.act(ebar, (1,)).core != px:
                continue
            candidates = [pair for pair in X.base.simplices(1) if X.base.act(pair, (1,)).core == x and p(pair) == ebar]
            good, failures = None, []
            for cand in candidates:
                if cand.is_nondeg():
                    v = table[cand.core]
                else:
                    v = classify_edge(p, X, Y, cand, "cartesian", bound)
                if v.status == VERIFIED:
                    good = cand
                    break
                failures.append((cand, v))
            if good is None:
                refuted = f"candidates all refuted: {[c for c, _ in failures]}"
                lift_verdicts.append(Verdict(REFUTED, f"no cartesian lift of {ebar} at vertex {x!r}; {refuted}"))
    cart = frozenset(e for e, v in table.items() if v.status == VERIFIED)
    return combine([fib] + lift_verdicts + [Verdict(VERIFIED, bound=bound)]), cart


def weak_cartesian_via_slice(p: SMap, X: Scaled, Y: Scaled, e: EZ, cap: int = 3) -> Verdict:
    """Lemma-style criterion: e is weakly p-cartesian iff the comparison map
    from the slice over the marked arrow to the pullback of vertex slices is a
    trivial fibration (tested against boundary and rescaling generators)."""
    # imported here so that start-up (import ssw, the catalog, the CLI) does not load slices
    from .slices import reindex_map, slice_over_marked_arrow, slice_over_vertex

    y = X.base.act(e, (1,)).core
    fy = p.images[y].core
    sl_e = slice_over_marked_arrow(X, e, cap)
    sl_y = slice_over_vertex(X, y, cap)
    sl_fe = slice_over_marked_arrow(Y, p(e), cap)
    sl_fy = slice_over_vertex(Y, fy, cap)
    one = simplex_map(sl_e.shape.K.base, EZ("1", (0,)))  # the vertex 1 of the arrow
    to_y = reindex_map(sl_e, sl_y, g=one)
    fe_to_fy = reindex_map(sl_fe, sl_fy, g=one)
    e_to_fe = reindex_map(sl_e, sl_fe, p=p)
    y_to_fy = reindex_map(sl_y, sl_fy, p=p)
    if to_y.then(y_to_fy) != e_to_fe.then(fe_to_fy):
        raise SSetError("slice comparison square does not commute")
    pb, pr1, pr2 = pullback(y_to_fy, fe_to_fy, dim_cap=max(cap, sl_y.total.base.dim + sl_fe.total.base.dim))
    # the pullback is a subcomplex of the product, so its cells keep their product names
    images = {c: pair_cell(pb, to_y.images[c], e_to_fe.images[c]) for c in sl_e.total.base.dim_of}
    cmpmap = SMap(sl_e.total.base, pb, images)
    Xside = MarkedScaled(sl_e.total.base, frozenset(sl_e.total.base.level(1)), sl_e.total.thin)
    Yside = MarkedScaled(pb, frozenset(pb.level(1)), pulled_back_thin(pb, (pr1, pr2), (sl_y.total, sl_fe.total)))
    fam = boundary_family(cap, marked_generator=False, scaled_generator=True)
    return has_rlp(cmpmap, Xside, Yside, fam)


# -- B_S-fibered objects -------------------------------------------------------------------


def _classical_cocartesian(q: SMap, e: EZ, bound: int) -> Verdict:
    """Classical quasicategory test: initial-edge left-horn fillers for e."""
    pins = {(0, 1): e}
    gens = tuple(simplex_generator(f"initial-horn({m})", m, 0, top_pins=pins) for m in range(2, bound + 1))
    fam = GeneratorFamily(f"classical-cocartesian(bound {bound})", gens, bound)
    return has_rlp(q, decorate(q.source, SHARP, SHARP), decorate(q.target, SHARP, SHARP), fam)


def _pulled_back(f: SMap, base: SSet, sigma: EZ, bound: int) -> tuple:
    """The pullback P of f along the simplex sigma of the base, its projections
    to X and to the simplex, and the classical cocartesian verdict of an edge
    of P, computed once per edge."""
    P, prX, q = pullback(f, simplex_map(base, sigma), dim_cap=f.source.dim + sigma.deg)
    return P, prX, q, lru_cache(maxsize=None)(lambda e: _classical_cocartesian(q, e, bound))


def is_P_fibered(f: SMap, X: MarkedScaled, S: Scaled, bound: int = 4) -> Verdict:
    """The three clauses of the fibered condition over a scaled base."""
    sharp_source, sharp_target = decorate(f.source, SHARP, SHARP), decorate(f.target, SHARP, SHARP)
    inner = has_rlp(f, sharp_source, sharp_target, inner_horn_family(bound))
    if inner.status == REFUTED:
        return Verdict(REFUTED, f"clause (i): {inner.evidence}")
    verdicts = [inner]
    base = S.base
    # clause (ii): each edge pullback is a cocartesian fibration with the
    # marked edges exactly the cocartesian ones
    for ebar in base.simplices(1):
        P, prX, q, cocartesian = _pulled_back(f, base, ebar, bound)
        edges = [top for top in (EZ(cand, idop(1)) for cand in P.level(1)) if q(top).is_nondeg()]
        for x in P.level(0):
            if q.images[x].core == "1":
                continue
            # a cocartesian lift of 01 starting at x must exist among marked edges
            if not any(
                P.face(top, 1) == EZ(x, (0,))
                and X.is_marked(prX(top))
                and cocartesian(top).status == VERIFIED
                for top in edges
            ):
                return Verdict(REFUTED, f"clause (ii): no marked cocartesian lift of {ebar} at {x!r}")
        # marked edges over ebar must be cocartesian, unmarked must not be
        for top in edges:
            upstairs = prX(top)
            v = cocartesian(top)
            if X.is_marked(upstairs) and v.status == REFUTED:
                return Verdict(REFUTED, f"clause (ii): marked edge {upstairs} over {ebar} is not cocartesian: {v.evidence}")
            if not X.is_marked(upstairs) and v.status == VERIFIED:
                return Verdict(REFUTED, f"clause (ii): unmarked edge {upstairs} over {ebar} is cocartesian up to bound {bound}")
        verdicts.append(Verdict(VERIFIED, bound=bound))
    # clause (iii): marked edges over the initial edge of a thin triangle are
    # cocartesian in the pullback to the triangle
    for t in S.thin:
        P, prX, q, cocartesian = _pulled_back(f, base, EZ(t, idop(2)), bound)
        for cand in P.level(1):
            top = EZ(cand, idop(1))
            if q(top) != EZ("01", (0, 1)):
                continue
            upstairs = prX(top)
            if X.is_marked(upstairs) and cocartesian(top).status == REFUTED:
                return Verdict(
                    REFUTED,
                    f"clause (iii): marked edge {upstairs} over {t!r} not cocartesian in the triangle pullback",
                )
        verdicts.append(Verdict(VERIFIED, bound=bound))
    return combine(verdicts)


def locally_cocartesian_edges(f: SMap, S: Scaled, bound: int = 4) -> frozenset:
    """Edges of the source that are cocartesian in the pullback over their image."""
    out = set()
    pullbacks = {}
    for e in f.source.level(1):
        top = EZ(e, idop(1))
        image = f(top)
        if image not in pullbacks:
            pullbacks[image] = _pulled_back(f, S.base, image, bound)
        P, prX, q, cocartesian = pullbacks[image]
        lift = None
        for cand in P.level(1):
            ctop = EZ(cand, idop(1))
            if prX(ctop) == top and q(ctop) == EZ("01", (0, 1)):
                lift = ctop
                break
        if lift is None:
            raise SSetError("edge missing from its own pullback")
        if cocartesian(lift).status == VERIFIED:
            out.add(e)
    return frozenset(out)


# -- outer cartesian anodyne generators ---------------------------------------------------------


@memo
def outer_anodyne_family(bound: int) -> GeneratorFamily:
    """The six generating families of outer cartesian anodyne maps."""
    # (1) scaled inner horns
    gens = list(_scaled_inner_horns(bound))
    # (2) marked right horns; at n = 1 this is {1} in (Delta^1)^sharp
    for n in range(1, max(bound, 1) + 1):
        gens.append(simplex_generator(f"marked-horn({n})", n, n, marked=[(n - 1, n)]))
    # (3) collapsed initial horns, no scaling
    for n in range(2, bound + 1):
        gens.append(collapsed_horn_generator(f"anodyne-outer({n})", n, (0, 1)))
    # (4) thin-triangle rescaling over a thin base triangle
    gens.append(_thin_triangle("thin-rescale"))
    # (5) the Q-marking extension
    Q = q_complex()
    qthin = frozenset(Q.level(2))
    gens.append(rescale_generator("q-marking", MarkedScaled(Q, frozenset(), qthin), MarkedScaled(Q, q_marked_cells(Q), qthin)))
    # (6) composite marking on a thin triangle
    d2, t012 = standard_simplex(2), _cells([(0, 1, 2)])
    before, after = MarkedScaled(d2, _cells([(0, 1), (1, 2)]), t012), MarkedScaled(d2, _cells([(0, 1), (0, 2), (1, 2)]), t012)
    gens.append(rescale_generator("composite-marking", before, after))
    return GeneratorFamily(f"outer-cartesian-anodyne(bound {bound})", tuple(gens), bound)


def has_outer_anodyne_rlp(p: SMap, X: MarkedScaled, Y: Scaled, bound: int = 4) -> Verdict:
    """Prop-char style test: RLP against all six families over the base."""
    return has_rlp(p, X, Y.sharp_marked(), outer_anodyne_family(bound))


# -- infinity-bicategories ---------------------------------------------------------------------


@memo
def scaled_anodyne_family(bound: int) -> GeneratorFamily:
    """The generating scaled anodyne maps: inner horns, the Delta^4 scaling
    saturation (exact), and the collapsed initial horns with their scaling."""
    gens = list(_scaled_inner_horns(bound))
    d4 = standard_simplex(4)
    T = _cells([(0, 2, 4), (1, 2, 3), (0, 1, 3), (1, 3, 4), (0, 1, 2)])
    saturated = T | _cells([(0, 3, 4), (0, 1, 4)])
    gens.append(rescale_generator("saturation-4", MarkedScaled(d4, frozenset(), T), MarkedScaled(d4, frozenset(), saturated)))
    for n in range(3, bound + 1):
        gens.append(collapsed_horn_generator(f"scaled-outer({n})", n, (0, 1), [(0, 1, n)]))
    return GeneratorFamily(f"scaled-anodyne(bound {bound})", tuple(gens), bound)


def is_infty_bicategory(X: Scaled, bound: int = 4) -> Verdict:
    pt = standard_simplex(0)
    p = constant_map(X.base, pt, "0")
    Y = Scaled(pt, frozenset())
    return has_rlp(p, X.sharp_marked(), Y.sharp_marked(), scaled_anodyne_family(bound))


# -- certificates ----------------------------------------------------------------------------


class CertificateStep(NamedTuple):
    generator: Generator
    attach: SMap  # A -> current stage


def certificate_check(start: MarkedScaled, steps: list, claimed: MarkedScaled) -> Verdict:
    """Replay a sequence of generator pushouts and compare with the claim."""
    cur = start
    for k, (gen, attach) in enumerate(steps):
        if attach.source != gen.A.base or attach.target != cur.base:
            return Verdict(REFUTED, f"step {k}: attaching map does not match")
        for e in gen.A.marked:
            if not cur.is_marked(attach(EZ(e, idop(1)))):
                return Verdict(REFUTED, f"step {k}: attaching map not marked at {e!r}")
        for t in gen.A.thin:
            if not cur.is_thin(attach(EZ(t, idop(2)))):
                return Verdict(REFUTED, f"step {k}: attaching map not scaled at {t!r}")
        cur, _, _ = pushout_ms(gen.left, attach, gen.B, cur)
    if cur != claimed:
        return Verdict(REFUTED, f"replayed object differs from the claim after {len(steps)} steps")
    return Verdict(VERIFIED)


# -- horn filtrations ---------------------------------------------------------------------------


def horn_filtration(B: Scaled, stage, rule) -> list:
    """A filtration of the sub-complex ``stage`` (cell names) of B by pushouts of
    horns, found greedily: the (cell, horn index) of each step, which adds the
    cell sigma and its face d_i sigma.

    Each step takes the first cell in (dimension, name) order with exactly one
    face d_i outside the stage, that face nondegenerate with its faces in the
    stage, for which ``rule(dim sigma, i)`` gives the thin vertex triples of a
    generator (None: no generator) whose images are thin in B.  The thin
    triangles of B in the grown stage must be the old ones plus those images.
    Raises at the step where no cell qualifies or that check fails."""
    X = B.base
    stage, steps = set(stage), []
    while len(stage) < len(X.dim_of):
        for sigma in sorted(X.dim_of.keys() - stage, key=lambda c: (X.dim_of[c], c)):
            top = EZ(sigma, idop(X.dim_of[sigma]))
            out = [i for i, f in enumerate(X.faces_of(top)) if f.core not in stage]
            triples = rule(top.deg, out[0]) if len(out) == 1 else None
            if triples is None:
                continue
            face = X.faces_of(top)[out[0]]
            images = {img.core for img in (X.act(top, t) for t in triples) if img.is_nondeg()}
            if face.is_nondeg() and all(f.core in stage for f in X.faces_of(face)) and images <= B.thin:
                break
        else:
            raise SSetError(f"filtration step {len(steps)}: no cell is a pushout of a horn")
        grown = stage | {sigma, face.core}
        if B.thin & grown != (B.thin & stage) | images:
            raise SSetError(f"filtration step {len(steps)} does not scale as its horn")
        stage = grown
        steps.append((sigma, out[0]))
    return steps


# -- the cocartesian witness of the inner-slice lemma ---------------------------------------------


def cocar_witness_check(perturb: bool = False, use_opposite: bool = False) -> Verdict:
    """In Delta^1 x Delta^2: the prescribed 3-simplex adds the one missing thin
    triangle of the sharp-scaled Gray product to T."""
    d1 = Scaled(standard_simplex(1))
    d2f = Scaled(standard_simplex(2))
    g = gray_scaled(d1, d2f, dim_cap=3)
    P = g.scaled.base
    pr1, pr2 = g.projections
    d2s = Scaled(standard_simplex(2), frozenset({"012"}))
    gs = gray_scaled(d1, d2s, dim_cap=3)
    T = set(g.scaled.thin)
    for c, nd in P.dim_of.items():
        topc = EZ(c, idop(nd))
        if pr1(topc).core in ("0", "1") and nd == 2:
            T.add(c)
    # the negative control drops the witness's face d_2, (0,0)(1,0)(1,2), from both scalings
    dropped = {pair_cell(P, simplex_from_word([0, 1, 1]), simplex_from_word([0, 0, 2])).core} if perturb else set()
    T -= dropped
    diff = gs.scaled.thin - dropped - T
    sigma_expect = pair_cell(P, simplex_from_word([0, 1, 1]), simplex_from_word([0, 1, 2]))
    if len(diff) != 1 or EZ(next(iter(diff)), idop(2)) != sigma_expect:
        return Verdict(
            REFUTED,
            f"difference set is {sorted(diff)}, expected exactly the (0,0)(1,1)(1,2) triangle",
        )
    sigma = next(iter(diff))
    rho = pair_cell(P, simplex_from_word([0, 1, 1, 1]), simplex_from_word([0, 0, 1, 2]))
    try:
        witness_face(Scaled(P, T), rho, sigma, (1,))
        if use_opposite:
            # transport the whole statement through the opposite and recheck
            witness_face(Scaled(opposite(P), T), EZ(rho.core, op_reverse(rho.op)), sigma, (2,))
    except SSetError as err:
        return Verdict(REFUTED, str(err))
    return Verdict(VERIFIED)


# -- limit cones and coinitiality -------------------------------------------------------------


def _component_classes(base: SSet) -> dict[str, int]:
    parent = {v: v for v in base.level(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in base.level(1):
        a = base.vertices_of(EZ(e, idop(1)))
        ra, rb = find(a[0]), find(a[1])
        if ra != rb:
            parent[ra] = rb
    return {v: find(v) for v in base.level(0)}


def _restriction_verdict(A, B, rmap: SMap, cap: int) -> tuple[str, str]:
    """Classify a restriction map: iso / trivial fibration / refuted / unclear."""
    levels = [(A.total.base.level(n), B.total.base.level(n)) for n in range(cap + 1)]
    if all(
        len({rmap.images[c] for c in a}) == len(a) == len(b) and all(rmap.images[c].is_nondeg() for c in a)
        for a, b in levels
    ):
        return VERIFIED, "restriction is an isomorphism at cap"
    comps = _component_classes(B.total.base)
    hit = {comps[rmap.images[v].core] for v in A.total.base.level(0)}
    missing = [v for v in B.total.base.level(0) if comps[v] not in hit]
    if missing:
        return REFUTED, f"target vertex {missing[0]!r} lies in a component not hit by the restriction"
    Ym = decorate(B.total.base, SHARP, SHARP)
    fam = boundary_family(cap, marked_generator=True, scaled_generator=False)
    v = has_rlp(rmap, A.total, Ym, fam)
    if v.status == VERIFIED:
        return VERIFIED, "restriction is a trivial fibration at cap"
    # an RLP failure refutes only for genuine inclusions K into the cone,
    # where the restriction is a categorical fibration
    return REFUTED, f"restriction fails a boundary filler: {v.evidence}"


def empty_cone(C: Scaled, vertex: str, variance: str) -> tuple[MarkedScaled, SMap]:
    """The empty diagram K and the cone on it with its point at a vertex of C,
    as ``check_limit_cone`` takes them."""
    if vertex not in C.base.level(0):
        raise SSetError(f"no vertex {vertex!r}")
    K = MarkedScaled(empty_sset())
    cn = cone(variance, "left", K)
    return K, SMap(cn.ms.base, C.base, {cn.star: EZ(vertex, (0,))})


def check_limit_cone(
    C: Scaled,
    K: MarkedScaled,
    g: SMap,
    variance: str,
    cap: int = 3,
    bound: int = 3,
) -> Verdict:
    """The local criterion: for every vertex x, restriction from cone sections
    to diagram sections of the slice under x must be an equivalence.  VERIFIED
    holds up to the smaller of the cap and the bound of the ambient check."""
    # imported here so that start-up (import ssw, the catalog, the CLI) does not load slices
    from .slices import check_cap, fun_coc_subcat, reindex_map, thick_slice_over_vertex

    check_cap(cap)
    bic = is_infty_bicategory(C, bound)
    if bic.status == REFUTED:
        return Verdict(REFUTED, f"ambient is not an infinity-bicategory: {bic.evidence}")
    cn = cone(variance, "left", K)
    check_scaled_map(g, cn.ms, C, "cone diagram")
    f = cn.tj.incl_right.then(g)
    statuses = []
    unsaturated = False
    for x in sorted(C.base.level(0)):
        slice_x = thick_slice_over_vertex(C, x, variance, cap, side="under")
        q = slice_x.projection
        good = frozenset(slice_x.total.marked)
        A = fun_coc_subcat(cn.ms, q, slice_x.scaled, g, good, cap)
        B = fun_coc_subcat(K, q, slice_x.scaled, f, good, cap)
        rmap = reindex_map(A, B, g=cn.tj.incl_right)
        status, evidence = _restriction_verdict(A, B, rmap, cap)
        unsaturated = unsaturated or not (slice_x.saturated and A.saturated and B.saturated)
        statuses.append(f"{x}: {status}")
        if status == REFUTED:
            return Verdict(REFUTED, f"at vertex {x!r}: {evidence}")
    if unsaturated:
        return Verdict(INCONCLUSIVE, f"cap {cap} not saturated ({'; '.join(statuses)})")
    return Verdict(VERIFIED, bound=min(cap, bound))


def refute_coinitial(
    h: SMap,
    K: MarkedScaled,
    L: MarkedScaled,
    fibrations: list,
    cap: int = 3,
) -> Verdict:
    """Refutation-style cofinality check against user-supplied fibrations.

    Each fibration is (p, X_scaled, good_edges) over the underlying scaled set
    of L.  The check can refute, never verify (the definition quantifies over
    all fibrations)."""
    # imported here so that start-up (import ssw, the catalog, the CLI) does not load slices
    from .slices import fun_coc_subcat, reindex_map

    evidence = []
    for idx, (p, X_scaled, good) in enumerate(fibrations):
        A = fun_coc_subcat(L, p, X_scaled, identity_map(L.base), good, cap)
        B = fun_coc_subcat(K, p, X_scaled, h, good, cap)
        rmap = reindex_map(A, B, g=h)
        compsB = _component_classes(B.total.base)
        compsA = _component_classes(A.total.base)
        hit = {compsB[rmap.images[v].core] for v in A.total.base.level(0)}
        all_b = set(compsB.values())
        if all_b - hit:
            return Verdict(
                REFUTED,
                f"fibration {idx}: a component of the restricted sections is not reached",
            )
        # the map induced on components must be well defined and injective
        pairs = {(compsA[v], compsB[rmap.images[v].core]) for v in A.total.base.level(0)}
        if not len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs}):
            return Verdict(REFUTED, f"fibration {idx}: restriction is not injective on components")
        evidence.append(f"fibration {idx}: components match ({len(all_b)})")
    return Verdict(INCONCLUSIVE, "; ".join(evidence) if evidence else "no fibrations supplied")
