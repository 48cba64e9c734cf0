"""The lifting engine: generator families, fibration predicates, the
cartesian-edge taxonomy, anodyne certificates, and the limit-cone checkers.

Verdicts are three-valued.  REFUTED always carries a concrete failing lifting
problem; VERIFIED carries the dimension bound up to which an inherently
unbounded condition was checked.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .core import (
    EZ,
    SMap,
    SSet,
    SSetError,
    check_mode,
    constant_map,
    boundary_inclusion,
    empty_sset,
    enumerate_maps,
    horn,
    horn_inclusion,
    identity_map,
    opposite,
    opposite_map,
    pair_cell,
    pullback,
    pushout_mono,
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
    push_cells,
    pushout_ms,
    restrict_ms,
)
from .ops import compose, idop, op_reverse
from .tensor import (
    cone,
    gray_scaled,
    simplex_from_word,
)

VERIFIED, REFUTED, INCONCLUSIVE = "VERIFIED", "REFUTED", "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    status: str
    evidence: str = ""
    bound: int | None = None

    def __post_init__(self):
        if self.status == REFUTED and not self.evidence:
            raise SSetError("a refutation needs a concrete witness")

    def render(self) -> str:
        if self.status == VERIFIED and self.bound is not None:
            return f"VERIFIED up to dimension {self.bound}"
        return self.status + (f": {self.evidence}" if self.evidence and self.status != VERIFIED else "")


def combine(verdicts) -> Verdict:
    """REFUTED dominates, then INCONCLUSIVE, then VERIFIED with minimum bound."""
    verdicts = list(verdicts)
    for v in verdicts:
        if v.status == REFUTED:
            return v
    for v in verdicts:
        if v.status == INCONCLUSIVE:
            return v
    bounds = [v.bound for v in verdicts if v.bound is not None]
    return Verdict(VERIFIED, bound=min(bounds) if bounds else None)


# -- lifting problems -----------------------------------------------------------------


@dataclass
class LiftingProblem:
    """A commuting square with a decorated mono on the left."""

    left: SMap  # A -> B, mono
    right: SMap  # X -> Y
    top: SMap  # A -> X
    bottom: SMap  # B -> Y
    A: MarkedScaled
    B: MarkedScaled
    X: MarkedScaled
    Y: MarkedScaled
    filler_pins: dict = field(default_factory=dict)
    label: str = ""

    def validate(self) -> None:
        if not self.left.is_mono():
            raise SSetError("left map must be mono")
        if self.left.then(self.bottom) != self.top.then(self.right):
            raise SSetError("lifting square does not commute")


def find_lift(P: LiftingProblem) -> SMap | None:
    """Exhaustive search for a decorated filler; deterministic first solution.

    This is the backtracking filler search.  ``has_rlp`` uses it only for the
    generators that are not a horn or boundary of one simplex (the rescaling
    generators, such as the Q-marking); the others it decides by index lookups.
    """
    pins = dict(P.filler_pins)
    for a in P.A.base.dim_of:
        img = P.left.images[a]
        pins[img.core] = P.top.images[a]

    def image_ok(x, cand):
        return P.right(cand) == P.bottom.images[x] and _decorated(P.B, P.X, x, cand)

    found = enumerate_maps(P.B.base, P.X.base, partial=pins, image_ok=image_ok, first_only=True)
    return found[0] if found else None


def _decorated(B: MarkedScaled, Z: MarkedScaled, b: str, cand: EZ) -> bool:
    """Whether cand is marked (thin) in Z wherever the cell b is marked (thin) in B."""
    n = B.base.dim_of[b]
    if n == 1 and b in B.marked and not Z.is_marked(cand):
        return False
    if n == 2 and b in B.thin and not Z.is_thin(cand):
        return False
    return True


# -- generators ------------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    """A decorated mono with optional anchoring data for the top map."""

    name: str
    left: SMap
    A: MarkedScaled
    B: MarkedScaled
    top_pins: dict = field(default_factory=dict)
    filler_pins: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GeneratorFamily:
    name: str
    generators: tuple

    def __iter__(self):
        return iter(self.generators)


def inclusion_generator(name, B: MarkedScaled, incl: SMap, top_pins=None, filler_pins=None) -> Generator:
    """The inclusion of a subcomplex of B, with the decorations of B restricted to it."""
    if incl.target is not B.base and incl.target != B.base:
        raise SSetError("a generator's inclusion must land in its B")
    return Generator(name, incl, restrict_ms(B, incl), B, dict(top_pins or {}), dict(filler_pins or {}))


def _cells(vertex_tuples) -> frozenset:
    """The cells of a standard simplex on the given vertex tuples."""
    return frozenset(simplex_cell(verts) for verts in vertex_tuples)


def simplex_generator(name, incl: SMap, marked=(), thin=(), top_pins=None, filler_pins=None) -> Generator:
    """The inclusion of a subcomplex of the simplex B = incl.target, with B
    marked and scaled on the edges and triangles given as vertex tuples; the
    pins are keyed by vertex tuples too."""
    B = MarkedScaled(incl.target, _cells(marked), _cells(thin))

    def named(pins):
        return {simplex_cell(verts): pin for verts, pin in (pins or {}).items()}

    return inclusion_generator(name, B, incl, named(top_pins), named(filler_pins))


def rescale_generator(name, A: MarkedScaled, B: MarkedScaled) -> Generator:
    if A.base != B.base:
        raise SSetError("rescaling generators keep the underlying complex")
    return Generator(name, identity_map(A.base), A, B)


def _thin_triangle(name: str) -> Generator:
    """The rescaling of the flat 2-simplex to the thin one."""
    d2 = standard_simplex(2)
    return rescale_generator(name, MarkedScaled(d2), MarkedScaled(d2, thin=_cells([(0, 1, 2)])))


def scaled_inner_horn(n: int, i: int) -> Generator:
    return simplex_generator(f"scaled-inner-horn({n},{i})", horn_inclusion(n, i), thin=[(i - 1, i, i + 1)])


def edge_horn(flavor: str, n: int, anchor: EZ | None = None) -> Generator:
    """The n-dimensional horn of a cartesian-edge flavor, anchored at the last
    edge {n-1, n}: (Lambda^n_n, {0,n-1,n}) in (Delta^n, {0,n-1,n}) for
    "cartesian", the same with every {a,n-1,n} thin for "weak", and
    (Lambda^n_0)_flat in Delta^n_flat for "strong"; for n = 2 the strong
    edge is outside the horn, so the anchor pins the filler."""
    pins = {} if anchor is None else {(n - 1, n): anchor}
    if check_mode("flavor", flavor, "cartesian", "weak", "strong") == "cartesian":
        return simplex_generator(f"cartesian-horn({n})", horn_inclusion(n, n), thin=[(0, n - 1, n)], top_pins=pins)
    if flavor == "weak":
        thin = [(a, n - 1, n) for a in range(n - 1)]
        return simplex_generator(f"weak-cartesian-horn({n})", horn_inclusion(n, n), thin=thin, top_pins=pins)
    top_pins, filler_pins = (pins, None) if n >= 3 else (None, pins)
    return simplex_generator(
        f"strong-cartesian-horn({n})", horn_inclusion(n, 0), top_pins=top_pins, filler_pins=filler_pins
    )


def collapsed_horn_generator(name: str, n: int, edge: tuple, thin=()) -> Generator:
    """Lambda^n_e u_(edge) Delta^0 in Delta^n u_(edge) Delta^0, scaled on the
    images of the given triangles.  The edge is {0,1} (the horn at 0) or
    {n-1,n} (the horn at n); edge and triangles are vertex tuples."""
    full = standard_simplex(n)
    edge_sub, edge_incl = subcomplex(full, [simplex_cell([v]) for v in edge] + [simplex_cell(edge)])
    res = pushout_mono(edge_incl, constant_map(edge_sub, standard_simplex(0), "0"))
    Bq = res.sset
    B = MarkedScaled(Bq, frozenset(), push_cells(res.leg_big, _cells(thin)))
    keep = {res.leg_big.images[c].core for c in horn(n, 0 if 0 in edge else n).dim_of}
    keep.add(res.leg_target.images["0"].core)
    return inclusion_generator(name, B, subcomplex(Bq, keep)[1])


def _scaled_inner_horns(bound: int) -> tuple:
    return tuple(scaled_inner_horn(n, i) for n in range(2, bound + 1) for i in range(1, n))


@lru_cache(maxsize=None)
def weak_fibration_family(bound: int) -> GeneratorFamily:
    gens = list(_scaled_inner_horns(bound))
    for n in range(2, bound + 1):
        gens.append(collapsed_horn_generator(f"collapsed-initial({n})", n, (0, 1), [(0, 1, n)]))
        gens.append(collapsed_horn_generator(f"collapsed-final({n})", n, (n - 1, n), [(0, n - 1, n)]))
    return GeneratorFamily(f"weak-fibration(bound {bound})", tuple(gens))


@lru_cache(maxsize=None)
def inner_horn_family(bound: int) -> GeneratorFamily:
    inner = [(n, i) for n in range(2, bound + 1) for i in range(1, n)]
    gens = tuple(simplex_generator(f"inner-horn({n},{i})", horn_inclusion(n, i)) for n, i in inner)
    return GeneratorFamily(f"inner-horns(bound {bound})", gens)


@lru_cache(maxsize=None)
def outer_horn_family(bound: int) -> GeneratorFamily:
    """The collapsed outer horns of the underlying-simplicial outer condition."""
    gens = []
    for n in range(2, bound + 1):
        gens.append(collapsed_horn_generator(f"outer-initial({n})", n, (0, 1)))
        gens.append(collapsed_horn_generator(f"outer-final({n})", n, (n - 1, n)))
    return GeneratorFamily(f"outer-horns(bound {bound})", tuple(gens))


@lru_cache(maxsize=None)
def boundary_family(bound: int, marked_generator: bool = False, scaled_generator: bool = True) -> GeneratorFamily:
    """Trivial-fibration generators: flat boundary inclusions, the thin-triangle
    rescaling, and optionally the marked-edge rescaling."""
    gens = [simplex_generator(f"boundary({n})", boundary_inclusion(n)) for n in range(bound + 1)]
    if scaled_generator:
        gens.append(_thin_triangle("thin-detection"))
    if marked_generator:
        d1 = standard_simplex(1)
        gens.append(rescale_generator("marked-detection", MarkedScaled(d1), MarkedScaled(d1, _cells([(0, 1)]))))
    return GeneratorFamily(f"boundaries(bound {bound})", tuple(gens))


# -- the RLP engine ---------------------------------------------------------------------


def as_base(S: Scaled) -> MarkedScaled:
    """The base of a fibration, with marking made vacuous."""
    return S.sharp_marked()


def _tops(gen: Generator, X: MarkedScaled) -> list[SMap]:
    """The decorated maps A -> X that satisfy the generator's top pins, in order."""
    return enumerate_maps(
        gen.A.base, X.base, partial=gen.top_pins, image_ok=lambda a, c: _decorated(gen.A, X, a, c)
    )


def _bottom_pins(gen: Generator, p: SMap, top: SMap) -> dict[str, EZ] | None:
    """What a bottom B -> Y must be on the image of A and on the filler pins,
    or None when the two disagree."""
    # anchors on the filler constrain the bottom through p as well
    bpins = {b: p(pin) for b, pin in gen.filler_pins.items()}
    for a in gen.A.base.dim_of:
        img = gen.left.images[a]
        target = p(top.images[a])
        prev = bpins.get(img.core)
        if prev is not None and prev != target:
            return None
        bpins[img.core] = target
    return bpins


def problems_for(gen: Generator, p: SMap, X: MarkedScaled, Y: MarkedScaled):
    """All commuting squares for a generator, in deterministic order."""

    def bottom_ok(b, cand):
        return _decorated(gen.B, Y, b, cand)

    for top in _tops(gen, X):
        bpins = _bottom_pins(gen, p, top)
        if bpins is None:
            continue
        for bottom in enumerate_maps(gen.B.base, Y.base, partial=bpins, image_ok=bottom_ok):
            yield LiftingProblem(
                gen.left, p, top, bottom, gen.A, gen.B, X, Y,
                dict(gen.filler_pins), gen.name,
            )


class _HornShape(NamedTuple):
    """A generator whose B is one simplex t over A, up to one missing face of t."""

    top: str  # t, the one top-dimensional cell of B
    face: int | None  # i with d_i t the one missing face, or None if only t is missing
    source: dict[str, str]  # each cell of B in the image of A -> its cell of A


def _horn_shape(gen: Generator) -> _HornShape | None:
    """The horn shape of a generator, or None if only the backtracker can decide it.

    The shape needs B to have exactly one top cell t of dimension n >= 1, and
    the cells of B outside A to be t alone or t and one nondegenerate face
    d_i t met once among the faces of t.  That covers the horns, boundaries
    and collapsed horns of every family here; the rescalings (A = B), the
    Q-marking among them, have no such shape.
    """
    B = gen.B.base
    n = B.dim
    if n < 1 or len(B.level(n)) != 1:
        return None
    source = {}
    for a, img in gen.left.images.items():
        if not img.is_nondeg():
            return None
        source[img.core] = a
    t = B.level(n)[0]
    missing = [b for b in B.dim_of if b not in source]
    if missing == [t]:
        return _HornShape(t, None, source)
    if len(missing) != 2 or missing[1] != t:
        return None
    hits = [i for i, face in enumerate(B.faces[t]) if face.core == missing[0]]
    if len(hits) != 1 or not B.faces[t][hits[0]].is_nondeg():
        return None
    return _HornShape(t, hits[0], source)


def _first_unfilled_horn(
    gen: Generator, shape: _HornShape, p: SMap, X: MarkedScaled, Y: MarkedScaled
) -> SMap | None:
    """The bottom of the first square with no filler, decided by index lookups.

    The tops and the order of the squares are those of ``problems_for``.  A
    square is the top plus the bottom's images of d_i t and t, which come
    from ``Y.by_faces`` buckets under the filters ``enumerate_maps`` applies.
    Its fillers are the n-simplices of X in one ``X.by_horn(n, i)`` bucket
    (``X.by_faces(n)`` if no face is missing) with the right image under p,
    filler pins and decorations: the filler's missing face is its d_i.
    """
    B, Xb, Yb = gen.B.base, X.base, Y.base
    t, i, source = shape
    n = B.dim
    tfaces = B.faces[t]
    f = None if i is None else tfaces[i].core
    # find_lift lets the top override a filler pin on a cell of A
    xpin_t, xpin_f = gen.filler_pins.get(t), gen.filler_pins.get(f)
    index = Xb.by_faces(n) if i is None else Xb.by_horn(n, i)

    def along(images, face):
        img = images[face.core]
        return EZ(img.core, compose(img.op, face.op))

    def ok_filler(sigma):
        if (xpin_t is not None and sigma != xpin_t) or not _decorated(gen.B, X, t, sigma):
            return False
        if f is None:
            return True
        # p(d_i sigma) is d_i p(sigma), the bottom on d_i t, once p(sigma) is right
        face = Xb.face(sigma, i)
        return (xpin_f is None or face == xpin_f) and _decorated(gen.B, X, f, face)

    for top in _tops(gen, X):
        bpins = _bottom_pins(gen, p, top)
        if bpins is None or not all(_decorated(gen.B, Y, b, bpins[b]) for b in source):
            continue

        def ok_bottom(b, cand):
            pin = bpins.get(b)
            return (pin is None or cand == pin) and _decorated(gen.B, Y, b, cand)

        timages = {b: top.images[a] for b, a in source.items()}
        filled = set()
        if all(_decorated(gen.B, X, b, img) for b, img in timages.items()):
            key = tuple(along(timages, face) for j, face in enumerate(tfaces) if j != i)
            filled = {p(sigma) for sigma in index.get(key, ()) if ok_filler(sigma)}
        if f is None:
            fcands = [None]
        elif B.dim_of[f] == 0:
            fcands = [c for c in Yb.simplices(0) if ok_bottom(f, c)]
        else:
            fkey = tuple(along(bpins, face) for face in B.faces[f])
            fcands = [c for c in Yb.by_faces(B.dim_of[f]).get(fkey, ()) if ok_bottom(f, c)]
        for cf in fcands:
            tkey = tuple(cf if j == i else along(bpins, face) for j, face in enumerate(tfaces))
            for ct in Yb.by_faces(n).get(tkey, ()):
                if ok_bottom(t, ct) and ct not in filled:
                    images = dict(bpins)
                    if f is not None:
                        images[f] = cf
                    images[t] = ct
                    return SMap(B, Yb, images, validate=False)
    return None


def has_rlp(p: SMap, X: MarkedScaled, Y: MarkedScaled, family: GeneratorFamily, bound: int | None = None) -> Verdict:
    """Exhaustively test the right lifting property against a family.

    Generators of horn shape (B one simplex t of dimension n >= 1 over A, up
    to one missing face d_i t: the horns, boundaries and collapsed horns) are
    decided by index lookups, ``X.by_horn(n, i)`` or ``X.by_faces(n)``.  The
    others (rescalings such as the Q-marking, where A = B) go through
    ``problems_for`` and the backtracking ``find_lift``.  Both visit the
    squares in the same order, so REFUTED names the same first bottom.
    """
    for gen in family:
        shape = _horn_shape(gen)
        if shape is None:
            bottom = next(
                (prob.bottom for prob in problems_for(gen, p, X, Y) if find_lift(prob) is None), None
            )
        else:
            bottom = _first_unfilled_horn(gen, shape, p, X, Y)
        if bottom is not None:
            return Verdict(
                REFUTED,
                f"no filler for {gen.name} with bottom {sorted(bottom.images.items())}",
            )
    return Verdict(VERIFIED, bound=bound)


# -- fibration predicates ------------------------------------------------------------------


def detects_thin(p: SMap, X: Scaled, Y: Scaled) -> Verdict:
    for t in X.base.level(2):
        lhs = t in X.thin
        rhs = Y.is_thin(p(EZ(t, idop(2))))
        if lhs != rhs:
            return Verdict(REFUTED, f"thin detection fails at triangle {t!r}")
    return Verdict(VERIFIED)


def is_weak_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int = 4) -> Verdict:
    return has_rlp(p, X.sharp_marked(), as_base(Y), weak_fibration_family(bound), bound)


def _horn_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int, horns) -> Verdict:
    """Thin detection, the weak-fibration generators, then the given horn family."""
    detect = detects_thin(p, X, Y)
    if detect.status == REFUTED:
        return detect
    return combine(
        [
            detect,
            is_weak_fibration(p, X, Y, bound),
            has_rlp(p, X.sharp_marked(), as_base(Y), horns(bound), bound),
        ]
    )


def is_inner_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int = 4) -> Verdict:
    return _horn_fibration(p, X, Y, bound, inner_horn_family)


def is_outer_fibration(p: SMap, X: Scaled, Y: Scaled, bound: int = 4) -> Verdict:
    return _horn_fibration(p, X, Y, bound, outer_horn_family)


# -- edge classification ----------------------------------------------------------------------


def _edge_family(flavor: str, e: EZ, bound: int) -> GeneratorFamily:
    gens = tuple(edge_horn(flavor, n, e) for n in range(2, bound + 1))
    return GeneratorFamily(f"{flavor}-edge(bound {bound})", gens)


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
    return has_rlp(p, X.sharp_marked(), as_base(Y), fam, bound)


def edge_table(p: SMap, X: Scaled, Y: Scaled, flavor: str, bound: int = 4) -> dict[str, Verdict]:
    return {
        e: classify_edge(p, X, Y, EZ(e, (0, 1)), flavor, bound)
        for e in X.base.level(1)
    }


def is_var_cartesian_fibration(
    p: SMap, X: Scaled, Y: Scaled, variance: str, co: bool = False, bound: int = 4
):
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
            candidates = [
                pair
                for pair in X.base.simplices(1)
                if X.base.act(pair, (1,)).core == x and p(pair) == ebar
            ]
            good = None
            failures = []
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
                lift_verdicts.append(
                    Verdict(
                        REFUTED,
                        f"no cartesian lift of {ebar} at vertex {x!r}; "
                        f"candidates all refuted: {[c for c, _ in failures]}",
                    )
                )
    cart = frozenset(e for e, v in table.items() if v.status == VERIFIED)
    return combine([fib] + lift_verdicts + [Verdict(VERIFIED, bound=bound)]), cart


def weak_cartesian_via_slice(p: SMap, X: Scaled, Y: Scaled, e: EZ, cap: int = 3) -> Verdict:
    """Lemma-style criterion: e is weakly p-cartesian iff the comparison map
    from the slice over the marked arrow to the pullback of vertex slices is a
    trivial fibration (tested against boundary and rescaling generators)."""
    from .slices import reindex_map, slice_construction, slice_over_vertex
    from .tensor import interval_sharp

    def arrow_slice(S: Scaled, arrow: EZ):
        return slice_construction(S, interval_sharp(), simplex_map(S.base, arrow), "over", cap)

    y = X.base.act(e, (1,)).core
    fy = p.images[y].core
    sl_e = arrow_slice(X, e)
    sl_y = slice_over_vertex(X, y, cap)
    sl_fe = arrow_slice(Y, p(e))
    sl_fy = slice_over_vertex(Y, fy, cap)

    def vertex_one_map(vertex_shape, arrow_shape):
        g = simplex_map(arrow_shape.K.base, EZ("1", (0,)))
        return lambda n, m: vertex_shape.k_induced(arrow_shape, g, n).then(m)

    def then_p(n, m):
        return m.then(p)

    to_y = reindex_map(sl_e, sl_y, vertex_one_map(sl_y.shape, sl_e.shape))
    fe_to_fy = reindex_map(sl_fe, sl_fy, vertex_one_map(sl_fy.shape, sl_fe.shape))
    e_to_fe = reindex_map(sl_e, sl_fe, then_p)
    y_to_fy = reindex_map(sl_y, sl_fy, then_p)
    if to_y.then(y_to_fy) != e_to_fe.then(fe_to_fy):
        raise SSetError("slice comparison square does not commute")
    pb, pr1, pr2 = pullback(y_to_fy, fe_to_fy, dim_cap=max(cap, sl_y.total.base.dim + sl_fe.total.base.dim))
    # the pullback is a subcomplex of the product, so its cells keep their product names
    images = {c: pair_cell(pb, to_y.images[c], e_to_fe.images[c]) for c in sl_e.total.base.dim_of}
    cmpmap = SMap(sl_e.total.base, pb, images)
    Xside = MarkedScaled(sl_e.total.base, frozenset(sl_e.total.base.level(1)), sl_e.total.thin)
    pb_thin = set()
    for t in pb.level(2):
        top = EZ(t, idop(2))
        a, b = pr1(top), pr2(top)
        if sl_y.scaled.is_thin(a) and sl_fe.scaled.is_thin(b):
            pb_thin.add(t)
    Yside = MarkedScaled(pb, frozenset(pb.level(1)), frozenset(pb_thin))
    fam = boundary_family(cap, marked_generator=False, scaled_generator=True)
    return has_rlp(cmpmap, Xside, Yside, fam, cap)


# -- B_S-fibered objects -------------------------------------------------------------------


def _classical_cocartesian(q: SMap, e: EZ, bound: int) -> Verdict:
    """Classical quasicategory test: initial-edge left-horn fillers for e."""
    pins = {(0, 1): e}
    gens = tuple(simplex_generator(f"initial-horn({m})", horn_inclusion(m, 0), top_pins=pins) for m in range(2, bound + 1))
    fam = GeneratorFamily(f"classical-cocartesian(bound {bound})", gens)
    return has_rlp(q, decorate(q.source, SHARP, SHARP), decorate(q.target, SHARP, SHARP), fam, bound)


def _pulled_back(f: SMap, base: SSet, sigma: EZ, bound: int) -> tuple:
    """The pullback P of f along the simplex sigma of the base, its projections
    to X and to the simplex, and the classical cocartesian verdict of an edge
    of P, computed once per edge."""
    P, prX, q = pullback(f, simplex_map(base, sigma), dim_cap=f.source.dim + sigma.deg)
    return P, prX, q, lru_cache(maxsize=None)(lambda e: _classical_cocartesian(q, e, bound))


def is_P_fibered(f: SMap, X: MarkedScaled, S: Scaled, bound: int = 4) -> Verdict:
    """The three clauses of the fibered condition over a scaled base."""
    sharp_source, sharp_target = decorate(f.source, SHARP, SHARP), decorate(f.target, SHARP, SHARP)
    inner = has_rlp(f, sharp_source, sharp_target, inner_horn_family(bound), bound)
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


@lru_cache(maxsize=None)
def q_complex() -> SSet:
    """Q = Delta^0 u_{02} Delta^3 u_{13} Delta^0."""
    d3 = standard_simplex(3)
    pt = standard_simplex(0)
    e02, i02 = subcomplex(d3, ["0", "2", "02"])
    first = pushout_mono(i02, constant_map(e02, pt, "0"))
    cells_13 = [first.leg_big.images[x].core for x in ("1", "3", "13")]
    sub13, incl13 = subcomplex(first.sset, cells_13)
    return pushout_mono(incl13, constant_map(sub13, pt, "0")).sset


def q_marked_cells(Q: SSet) -> frozenset:
    """The edges 01 and 03 of the 3-simplex of Q, where they are nondegenerate."""
    (top,) = Q.level(3)
    edges = [Q.act(EZ(top, idop(3)), e) for e in ((0, 1), (0, 3))]
    return frozenset(e.core for e in edges if e.is_nondeg())


@lru_cache(maxsize=None)
def outer_anodyne_family(bound: int) -> GeneratorFamily:
    """The six generating families of outer cartesian anodyne maps."""
    # (1) scaled inner horns
    gens = list(_scaled_inner_horns(bound))
    # (2) marked right horns; at n = 1 this is {1} in (Delta^1)^sharp
    for n in range(1, max(bound, 1) + 1):
        gens.append(simplex_generator(f"marked-horn({n})", horn_inclusion(n, n), marked=[(n - 1, n)]))
    # (3) collapsed initial horns, no scaling
    for n in range(2, bound + 1):
        gens.append(collapsed_horn_generator(f"anodyne-outer({n})", n, (0, 1)))
    # (4) thin-triangle rescaling over a thin base triangle
    gens.append(_thin_triangle("thin-rescale"))
    # (5) the Q-marking extension
    Q = q_complex()
    qthin = frozenset(Q.level(2))
    gens.append(
        rescale_generator(
            "q-marking", MarkedScaled(Q, frozenset(), qthin), MarkedScaled(Q, q_marked_cells(Q), qthin)
        )
    )
    # (6) composite marking on a thin triangle
    d2 = standard_simplex(2)
    gens.append(
        rescale_generator(
            "composite-marking",
            MarkedScaled(d2, _cells([(0, 1), (1, 2)]), _cells([(0, 1, 2)])),
            MarkedScaled(d2, _cells([(0, 1), (0, 2), (1, 2)]), _cells([(0, 1, 2)])),
        )
    )
    return GeneratorFamily(f"outer-cartesian-anodyne(bound {bound})", tuple(gens))


def has_outer_anodyne_rlp(p: SMap, X: MarkedScaled, Y: Scaled, bound: int = 4) -> Verdict:
    """Prop-char style test: RLP against all six families over the base."""
    return has_rlp(p, X, as_base(Y), outer_anodyne_family(bound), bound)


# -- infinity-bicategories ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def scaled_anodyne_family(bound: int) -> GeneratorFamily:
    """The generating scaled anodyne maps: inner horns, the Delta^4 scaling
    saturation (exact), and the collapsed initial horns with their scaling."""
    gens = list(_scaled_inner_horns(bound))
    d4 = standard_simplex(4)
    T = _cells([(0, 2, 4), (1, 2, 3), (0, 1, 3), (1, 3, 4), (0, 1, 2)])
    gens.append(
        rescale_generator(
            "saturation-4",
            MarkedScaled(d4, frozenset(), T),
            MarkedScaled(d4, frozenset(), T | _cells([(0, 3, 4), (0, 1, 4)])),
        )
    )
    for n in range(3, bound + 1):
        gens.append(collapsed_horn_generator(f"scaled-outer({n})", n, (0, 1), [(0, 1, n)]))
    return GeneratorFamily(f"scaled-anodyne(bound {bound})", tuple(gens))


def is_infty_bicategory(X: Scaled, bound: int = 4) -> Verdict:
    pt = standard_simplex(0)
    p = constant_map(X.base, pt, "0") if X.base.dim >= 0 else SMap(X.base, pt, {})
    Y = Scaled(pt, frozenset())
    return has_rlp(p, X.sharp_marked(), as_base(Y), scaled_anodyne_family(bound), bound)


# -- certificates ----------------------------------------------------------------------------


@dataclass
class CertificateStep:
    generator: Generator
    attach: SMap  # A -> current stage


def certificate_check(start: MarkedScaled, steps: list, claimed: MarkedScaled) -> Verdict:
    """Replay a sequence of generator pushouts and compare with the claim."""
    cur = start
    for k, step in enumerate(steps):
        gen, attach = step.generator, step.attach
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


# -- the lax-lift filtration -------------------------------------------------------------------


@dataclass
class FiltrationStep:
    index: int
    horn_vertex: int
    new_cells: tuple
    pushout_ok: bool
    scaling_ok: bool


def lax_lift_filtration(n: int) -> list:
    """The filtration of (flat Delta^1) Gray (flat Delta^n): each middle step a
    pushout of a scaled inner horn, the last of a flat outer horn."""
    if n > 4:
        raise SSetError("filtration is size-guarded to n <= 4")
    d1 = Scaled(standard_simplex(1))
    dn = Scaled(standard_simplex(n))
    g = gray_scaled(d1, dn, dim_cap=n + 1)
    P = g.scaled.base
    pr1, pr2 = g.projections
    top_dn = "".join(str(i) for i in range(n + 1))

    def x0_cells():
        keep = set()
        for c, nd in P.dim_of.items():
            topc = EZ(c, idop(nd))
            a, b = pr1(topc), pr2(topc)
            if b.core != top_dn or a.core == "1":
                keep.add(c)
        return keep

    stages = [x0_cells()]
    steps = []
    for i in range(n + 1):
        a_word = [0] * (i + 1) + [1] * (n + 1 - i)
        b_word = list(range(i + 1)) + list(range(i, n + 1))
        tau = pair_cell(P, simplex_from_word(a_word), simplex_from_word(b_word))
        if not tau.is_nondeg() or tau.deg != n + 1:
            raise SSetError("filtration simplex is degenerate")
        tau_map = simplex_map(P, tau)
        dnp1 = tau_map.source
        tplus = set()
        for t in dnp1.level(2):
            verts = tuple(int(v) for v in t)
            if verts[0] == i and verts[1] == i + 1 and verts[2] > i + 1:
                tplus.add(t)
        prev = stages[-1]
        new = set()
        for c in dnp1.dim_of:
            img = tau_map.images[c]
            if img.is_nondeg() and img.core not in prev:
                new.add(img.core)
        horn_vertex = i + 1
        opp = "".join(str(v) for v in range(n + 2) if v != horn_vertex)
        expected_new = {tau_map.images[opp].core, tau.core}
        pushout_ok = new == expected_new
        # the preimage of the previous stage must be exactly the horn
        for c in dnp1.dim_of:
            in_prev = tau_map.images[c].core in prev or not tau_map.images[c].is_nondeg()
            in_horn = c != opp and c != "".join(str(v) for v in range(n + 2))
            if in_prev != in_horn:
                pushout_ok = False
        # scaling: images of T+ are thin; new thin cells are exactly those images
        thin_prev = {t for t in g.scaled.thin if t in prev}
        thin_next = {t for t in g.scaled.thin if t in prev | new}
        images_tplus = set()
        scaling_ok = True
        for t in tplus:
            img = tau_map(EZ(t, idop(2)))
            if img.is_nondeg():
                if img.core not in g.scaled.thin:
                    scaling_ok = False
                images_tplus.add(img.core)
        if i < n:
            if thin_next != thin_prev | images_tplus:
                scaling_ok = False
        else:
            # last step: flat horn, no new thin cells
            if thin_next != thin_prev:
                scaling_ok = False
        steps.append(FiltrationStep(i, horn_vertex, tuple(sorted(new)), pushout_ok, scaling_ok))
        stages.append(prev | new)
    if stages[-1] != set(P.dim_of):
        raise SSetError("filtration does not exhaust the Gray product")
    if not all(s.pushout_ok and s.scaling_ok for s in steps):
        raise SSetError(f"filtration verification failed: {steps}")
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
    if perturb:
        T = set(sorted(T)[1:])
    diff = gs.scaled.thin - frozenset(T)
    sigma_expect = pair_cell(P, simplex_from_word([0, 1, 1]), simplex_from_word([0, 1, 2]))
    if len(diff) != 1 or EZ(next(iter(diff)), idop(2)) != sigma_expect:
        return Verdict(
            REFUTED,
            f"difference set is {sorted(diff)}, expected exactly the (0,0)(1,1)(1,2) triangle",
        )
    sigma = next(iter(diff))
    rho = pair_cell(P, simplex_from_word([0, 1, 1, 1]), simplex_from_word([0, 0, 1, 2]))
    scaledT = Scaled(P, frozenset(T))
    faces = P.faces_of(rho)
    if faces[1] != EZ(sigma, idop(2)):
        return Verdict(REFUTED, "the 3-simplex does not recover the missing triangle as d_1")
    for i in (0, 2, 3):
        if not scaledT.is_thin(faces[i]):
            return Verdict(REFUTED, f"face d_{i} of the witness is not in T")
    if use_opposite:
        # transport the whole statement through the opposite and recheck
        Pop = opposite(P)
        rho_op = EZ(rho.core, op_reverse(rho.op))
        faces_op = Pop.faces_of(rho_op)
        scaledTop = Scaled(Pop, frozenset(T))
        if faces_op[2] != EZ(sigma, idop(2)):
            return Verdict(REFUTED, "opposite transport does not recover the triangle as d_2")
        for i in (0, 1, 3):
            if not scaledTop.is_thin(faces_op[i]):
                return Verdict(REFUTED, f"opposite face d_{i} not thin")
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
    iso = True
    for n in range(cap + 1):
        a_cells = [c for c in A.total.base.dim_of if A.total.base.dim_of[c] == n]
        b_cells = [c for c in B.total.base.dim_of if B.total.base.dim_of[c] == n]
        images = {rmap.images[c] for c in a_cells}
        if len(images) != len(a_cells) or len(a_cells) != len(b_cells):
            iso = False
            break
        if any(not rmap.images[c].is_nondeg() for c in a_cells):
            iso = False
            break
    if iso:
        return VERIFIED, "restriction is an isomorphism at cap"
    comps = _component_classes(B.total.base)
    hit = {comps[rmap.images[v].core] for v in A.total.base.level(0)}
    missing = [v for v in B.total.base.level(0) if comps[v] not in hit]
    if missing:
        return REFUTED, f"target vertex {missing[0]!r} lies in a component not hit by the restriction"
    Xm = MarkedScaled(A.total.base, A.total.marked, A.total.thin)
    Ym = decorate(B.total.base, SHARP, SHARP)
    fam = boundary_family(cap, marked_generator=True, scaled_generator=False)
    v = has_rlp(rmap, Xm, Ym, fam, cap)
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
    to diagram sections of the slice under x must be an equivalence."""
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
        rmap = reindex_map(A, B, lambda n, m: B.shape.k_induced(A.shape, cn.tj.incl_right, n).then(m))
        status, evidence = _restriction_verdict(A, B, rmap, cap)
        unsaturated = unsaturated or not (slice_x.saturated and A.saturated and B.saturated)
        statuses.append(f"{x}: {status}")
        if status == REFUTED:
            return Verdict(REFUTED, f"at vertex {x!r}: {evidence}")
    if unsaturated:
        return Verdict(INCONCLUSIVE, f"cap {cap} not saturated ({'; '.join(statuses)})")
    return Verdict(VERIFIED, bound=cap)


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
    from .slices import fun_coc_subcat, reindex_map

    evidence = []
    for idx, (p, X_scaled, good) in enumerate(fibrations):
        A = fun_coc_subcat(L, p, X_scaled, identity_map(L.base), good, cap)
        B = fun_coc_subcat(K, p, X_scaled, h, good, cap)
        rmap = reindex_map(A, B, lambda n, m: B.shape.k_induced(A.shape, h, n).then(m))
        compsB = _component_classes(B.total.base)
        compsA = _component_classes(A.total.base)
        hit = {compsB[rmap.images[v].core] for v in A.total.base.level(0)}
        all_b = set(compsB.values())
        if all_b - hit:
            return Verdict(
                REFUTED,
                f"fibration {idx}: a component of the restricted sections is not reached",
            )
        induced = {}
        injective = True
        for v in A.total.base.level(0):
            src = compsA[v]
            tgt = compsB[rmap.images[v].core]
            if induced.setdefault(src, tgt) != tgt:
                injective = False
        if len(set(induced.values())) != len(induced):
            injective = False
        if not injective:
            return Verdict(
                REFUTED,
                f"fibration {idx}: restriction is not injective on components",
            )
        evidence.append(f"fibration {idx}: components match ({len(all_b)})")
    return Verdict(INCONCLUSIVE, "; ".join(evidence) if evidence else "no fibrations supplied")
