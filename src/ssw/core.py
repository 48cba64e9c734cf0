"""Finite simplicial sets presented by nondegenerate simplices.

Every simplex is a pair (nondegenerate core, surjective monotone operator) in
Eilenberg-Zilber normal form; face maps are stored for nondegenerate cells
only and everything else is computed by operator calculus.  All values are
immutable after construction and every operation is pure.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .ops import (
    Op,
    compose,
    const_op,
    epi_mono,
    face_split,
    idop,
    injections,
    is_epi,
    is_id,
    op_join,
    op_reverse,
    surjections,
)

DIM_CAP = 6


class SSetError(Exception):
    """Structural invariant violation in a simplicial set or map."""


class CapError(SSetError):
    """A construction produced nondegenerate cells above the dimension cap."""


def check_mode(name: str, value: str, *allowed: str) -> str:
    """A mode string, returned if it is one of the allowed values; any other
    value is an SSetError such as "side must be 'over' or 'under'"."""
    if value not in allowed:
        names = [repr(a) for a in allowed]
        raise SSetError(f"{name} must be {', '.join(names[:-1])} or {names[-1]}")
    return value


class EZ(NamedTuple):
    """A simplex in EZ normal form: a degeneracy word applied to a core cell."""

    core: str
    op: Op

    @property
    def deg(self) -> int:
        return len(self.op) - 1

    def is_nondeg(self) -> bool:
        return is_id(self.op)


def ez_str(pair: EZ) -> str:
    if pair.is_nondeg():
        return pair.core
    return pair.core + "~" + "".join(str(v) for v in pair.op)


def _pair_name(a: EZ, b: EZ) -> str:
    return f"({ez_str(a)},{ez_str(b)})"


def _name(verts: Iterable[object]) -> str:
    parts = [str(v) for v in verts]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return ".".join(parts)


class SSet:
    """A finite simplicial set: nondegenerate cells with EZ-normal face data."""

    def __init__(self, cells, faces, dim_cap: int = DIM_CAP, validate: bool = True):
        self.cells: tuple[tuple[str, ...], ...] = tuple(tuple(level) for level in cells)
        while self.cells and not self.cells[-1]:
            self.cells = self.cells[:-1]
        self.faces: dict[str, tuple[EZ, ...]] = {
            x: tuple(EZ(p[0], tuple(p[1])) for p in fs) for x, fs in faces.items()
        }
        self.dim_cap = dim_cap
        self.dim_of: dict[str, int] = {}
        for n, level in enumerate(self.cells):
            for x in level:
                if x in self.dim_of:
                    raise SSetError(f"duplicate cell id {x!r}")
                self.dim_of[x] = n
        self._act_cache: dict[tuple[EZ, Op], EZ] = {}
        self._faces_of: dict[EZ, tuple[EZ, ...]] = {}
        self._simplices: dict[int, tuple[EZ, ...]] = {}
        self._by_faces: dict[int, dict[tuple[EZ, ...], tuple[EZ, ...]]] = {}
        self._by_horn: dict[tuple[int, int], dict[tuple[EZ, ...], tuple[EZ, ...]]] = {}
        self._plan: SearchPlan | None = None
        if validate:
            self._validate()

    # -- basic views ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def level(self, n: int) -> tuple[str, ...]:
        return self.cells[n] if 0 <= n <= self.dim else ()

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.cells)

    def size(self) -> int:
        return sum(len(level) for level in self.cells)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SSet)
            and self.cells == other.cells
            and self.faces == other.faces
        )

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"SSet{self.counts()}"

    # -- operator action ---------------------------------------------------

    def act(self, pair: EZ, alpha: Op) -> EZ:
        """Apply a monotone operator alpha: [l] -> [deg(pair)] to a simplex."""
        alpha = tuple(alpha)
        key = (pair, alpha)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        beta = compose(pair.op, alpha)
        sigma, delta = epi_mono(beta)
        sub = self._inj(pair.core, delta)
        out = EZ(sub.core, compose(sub.op, sigma))
        self._act_cache[key] = out
        return out

    def _inj(self, x: str, delta: Op) -> EZ:
        """Apply a monotone injection delta: [j] -> [dim x] to a core cell."""
        k = self.dim_of[x]
        if len(delta) == k + 1:
            return EZ(x, idop(k))
        missing = max(v for v in range(k + 1) if v not in delta)
        reduced = tuple(v if v < missing else v - 1 for v in delta)
        return self.act(self.faces[x][missing], reduced)

    def faces_of(self, pair: EZ) -> tuple[EZ, ...]:
        """The faces d_0..d_n of an n-simplex (none for a vertex), read off the
        stored faces of its core by ``face_split``; they must be EZ-normal."""
        out = self._faces_of.get(pair)
        if out is None:
            fs = self.faces.get(pair.core, ())
            out = tuple(
                EZ(pair.core, op) if j is None else EZ(fs[j].core, compose(fs[j].op, op))
                for j, op in face_split(pair.op)
            )
            self._faces_of[pair] = out
        return out

    def face(self, pair: EZ, i: int) -> EZ:
        return self.faces_of(pair)[i]

    def vertices_of(self, pair: EZ) -> tuple[str, ...]:
        return tuple(self.act(pair, (t,)).core for t in range(pair.deg + 1))

    def simplices(self, n: int) -> tuple[EZ, ...]:
        """All n-simplices (including degenerate), in canonical order."""
        if n < 0:
            return ()
        out = self._simplices.get(n)
        if out is None:
            pairs = []
            for k in range(min(n, self.dim) + 1):
                for x in self.cells[k]:
                    for op in surjections(n, k):
                        pairs.append(EZ(x, op))
            out = tuple(pairs)
            self._simplices[n] = out
        return out

    def by_faces(self, n: int) -> dict[tuple[EZ, ...], tuple[EZ, ...]]:
        """Index of n-simplices by their full face tuple (n >= 1)."""
        idx = self._by_faces.get(n)
        if idx is None:
            acc: dict[tuple[EZ, ...], list[EZ]] = {}
            for pair in self.simplices(n):
                acc.setdefault(self.faces_of(pair), []).append(pair)
            idx = {k: tuple(v) for k, v in acc.items()}
            self._by_faces[n] = idx
        return idx

    def by_horn(self, n: int, i: int) -> dict[tuple[EZ, ...], tuple[EZ, ...]]:
        """Index of n-simplices by their face tuple with face i left out (n >= 1).

        Derived from ``by_faces(n)`` and kept, like it, for the life of self.
        A bucket holds the fillers of one horn, grouped by their face i.
        ``fibration.has_rlp`` looks up the filler of each square of a horn or
        collapsed horn here (of a boundary in ``by_faces``); the rescaling
        generators, which have no missing simplex, still go through the
        backtracking ``find_lift``.
        """
        idx = self._by_horn.get((n, i))
        if idx is None:
            acc: dict[tuple[EZ, ...], list[EZ]] = {}
            for key, pairs in self.by_faces(n).items():
                acc.setdefault(key[:i] + key[i + 1:], []).extend(pairs)
            idx = {k: tuple(v) for k, v in acc.items()}
            self._by_horn[(n, i)] = idx
        return idx

    def search_plan(self) -> "SearchPlan":
        """The order in which map search assigns images to the cells of self."""
        plan = self._plan
        if plan is None:
            order = tuple(x for level in self.cells for x in level)
            pos = {x: k for k, x in enumerate(order)}
            faces = []
            due: list[list[int]] = [[] for _ in order]
            for k, x in enumerate(order):
                fs = tuple(
                    (pos[f.core], None if is_id(f.op) else f.op) for f in self.faces.get(x, ())
                )
                faces.append(fs)
                if fs:
                    due[max(p for p, _ in fs)].append(k)
            plan = SearchPlan(order, tuple(faces), tuple(tuple(d) for d in due))
            self._plan = plan
        return plan

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if self.dim > self.dim_cap:
            raise CapError(f"nondegenerate cells in dimension {self.dim} > cap {self.dim_cap}")
        unknown = self.faces.keys() - self.dim_of.keys()
        if unknown:
            raise SSetError(f"faces given for unknown cell {min(unknown)!r}")
        for x, n in self.dim_of.items():
            if n == 0:
                if x in self.faces and self.faces[x]:
                    raise SSetError(f"vertex {x!r} with faces")
                continue
            fs = self.faces.get(x)
            if fs is None or len(fs) != n + 1:
                raise SSetError(f"cell {x!r} needs {n + 1} faces")
            for pair in fs:
                if pair.core not in self.dim_of:
                    raise SSetError(f"face core {pair.core!r} of {x!r} missing")
                if pair.deg != n - 1 or pair.op[-1] != self.dim_of[pair.core]:
                    raise SSetError(f"face of {x!r} has wrong degree: {pair}")
                if not is_epi(pair.op):
                    raise SSetError(f"face operator of {x!r} not an epi: {pair}")
        # The loop above checked that the faces are EZ-normal, so fs[j] is face j
        # of x and faces_of may read the faces of the faces.
        for x, n in self.dim_of.items():
            if n < 2:
                continue
            ffs = [self.faces_of(f) for f in self.faces[x]]
            for j in range(n + 1):
                for i in range(j):
                    if ffs[j][i] != ffs[i][j - 1]:
                        raise SSetError(f"simplicial identity fails at {x!r}: d{i} d{j}")


class SearchPlan(NamedTuple):
    """Cells in search order with their faces, as positions in that order.

    ``order`` lists the nondegenerate cells level by level, in the order of
    ``cells``.  ``faces[k]`` holds ``(position of the core, op)`` for each face
    of ``order[k]``, with ``op`` None where the face operator is the identity.
    ``due[k]`` lists the positions of the cells whose last face is ``order[k]``.
    """

    order: tuple[str, ...]
    faces: tuple[tuple[tuple[int, Op | None], ...], ...]
    due: tuple[tuple[int, ...], ...]


# -- maps -------------------------------------------------------------------


class SMap:
    """A simplicial map, stored as EZ images of nondegenerate cells."""

    def __init__(self, source: SSet, target: SSet, images, validate: bool = True):
        self.source = source
        self.target = target
        self.images: dict[str, EZ] = {
            x: p if type(p) is EZ and type(p.op) is tuple else EZ(p[0], tuple(p[1]))
            for x, p in images.items()
        }
        if validate:
            self._validate()

    def __call__(self, pair: EZ) -> EZ:
        img = self.images[pair.core]
        return EZ(img.core, compose(img.op, pair.op))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SMap)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash(tuple(sorted(self.images.items())))

    def __repr__(self) -> str:
        return f"SMap({self.source!r} -> {self.target!r})"

    def key(self) -> tuple:
        return tuple(sorted(self.images.items()))

    def then(self, other: "SMap") -> "SMap":
        if self.target is not other.source and self.target != other.source:
            raise SSetError("composition mismatch")
        return SMap(
            self.source,
            other.target,
            {x: other(p) for x, p in self.images.items()},
            validate=False,
        )

    def is_mono(self) -> bool:
        seen = set()
        for x in self.source.dim_of:
            img = self.images[x]
            if not img.is_nondeg() or img in seen:
                return False
            seen.add(img)
        return True

    def _validate(self) -> None:
        for x, n in self.source.dim_of.items():
            img = self.images.get(x)
            if img is None:
                raise SSetError(f"no image for cell {x!r}")
            if img.deg != n:
                raise SSetError(f"image of {x!r} has wrong degree")
            if img.core not in self.target.dim_of:
                raise SSetError(f"image core {img.core!r} missing in target")
            if not is_epi(img.op) or img.op[-1] != self.target.dim_of[img.core]:
                raise SSetError(f"image of {x!r} is not in EZ normal form: {img}")
            if n == 0:
                continue
            img_faces = self.target.faces_of(img)
            for i, f in enumerate(self.source.faces[x]):
                if self(f) != img_faces[i]:
                    raise SSetError(f"map does not commute with d{i} at {x!r}")


def identity_map(X: SSet) -> SMap:
    return SMap(X, X, {x: EZ(x, idop(n)) for x, n in X.dim_of.items()}, validate=False)


def constant_map(X: SSet, Y: SSet, vertex: str) -> SMap:
    return SMap(X, Y, {x: EZ(vertex, const_op(n, 0)) for x, n in X.dim_of.items()})


def empty_sset() -> SSet:
    return SSet((), {})


# -- standard complexes -------------------------------------------------------


@lru_cache(maxsize=None)
def standard_simplex(n: int) -> SSet:
    """The n-simplex; nondegenerate cells are vertex subsets of {0..n}.

    Built and validated once per n, then shared: SSets are
    immutable.
    """
    if n < 0:
        raise SSetError("n must be >= 0")
    cells = [[] for _ in range(n + 1)]
    faces = {}
    for k in range(n + 1):
        for verts in injections(k, n):
            x = _name(verts)
            cells[k].append(x)
            if k >= 1:
                faces[x] = tuple(
                    EZ(_name(verts[:i] + verts[i + 1:]), idop(k - 1)) for i in range(k + 1)
                )
    return SSet(cells, faces, dim_cap=max(DIM_CAP, n))


def simplex_cell(verts: Iterable[int]) -> str:
    """The cell id of a face of a standard simplex, given its vertex set."""
    return _name(sorted(set(verts)))


def subcomplex(X: SSet, keep: Iterable[str]) -> tuple[SSet, SMap]:
    """The subcomplex spanned by the given cells (must be face-closed)."""
    keep = set(keep)
    for x in keep:
        if x not in X.dim_of:
            raise SSetError(f"unknown cell {x!r}")
        for pair in X.faces.get(x, ()):
            if pair.core not in keep:
                raise SSetError(f"cell set not face-closed at {x!r}")
    cells = [[x for x in level if x in keep] for level in X.cells]
    faces = {x: X.faces[x] for x in keep if X.dim_of[x] >= 1}
    sub = SSet(cells, faces, dim_cap=X.dim_cap)
    incl = SMap(sub, X, {x: EZ(x, idop(X.dim_of[x])) for x in keep}, validate=False)
    return sub, incl


@lru_cache(maxsize=None)
def boundary_inclusion(n: int) -> SMap:
    """The inclusion of the boundary of Delta^n; built once, shared."""
    full = standard_simplex(n)
    return subcomplex(full, [x for x in full.dim_of if full.dim_of[x] < n])[1]


def boundary(n: int) -> SSet:
    return boundary_inclusion(n).source


@lru_cache(maxsize=None)
def horn_inclusion(n: int, i: int) -> SMap:
    """The inclusion of the horn Lambda^n_i into Delta^n; built once, shared."""
    if not (0 <= i <= n) or n < 1:
        raise SSetError("horn index out of range")
    full = standard_simplex(n)
    opposite_face = _name([v for v in range(n + 1) if v != i])
    keep = [x for x in full.dim_of if full.dim_of[x] < n and x != opposite_face]
    return subcomplex(full, keep)[1]


def horn(n: int, i: int) -> SSet:
    return horn_inclusion(n, i).source


def simplex_map(X: SSet, sigma: EZ) -> SMap:
    """The map Delta^n -> X with top image sigma, an n-simplex of X: the face
    of Delta^n on the vertices v_0 < ... < v_k goes to X.act(sigma, (v_0, ..., v_k))."""
    if sigma.core not in X.dim_of:
        raise SSetError(f"no cell {sigma.core!r} for a map out of a simplex")
    n = sigma.deg
    images = {_name(verts): X.act(sigma, verts) for k in range(n + 1) for verts in injections(k, n)}
    return SMap(standard_simplex(n), X, images)


# -- products and pullbacks ---------------------------------------------------


class ProductResult(NamedTuple):
    sset: SSet
    pr1: SMap
    pr2: SMap


@lru_cache(maxsize=None)
def shuffle_partners(sigma: Op, l: int) -> tuple[Op, ...]:
    """The tau in ``surjections(n, l)`` jointly injective with sigma: [n] ->> [k],
    in that order; (x, sigma), (y, tau) is then a nondegenerate product cell.

    For nondegenerate x and y these are the (k, l)-shuffles of Eilenberg and
    Zilber (1953) that pair with sigma.
    """
    n = len(sigma) - 1
    return tuple(
        tau for tau in surjections(n, l) if len(joint_split((sigma, tau))[0]) == n + 1
    )


@lru_cache(maxsize=None)
def joint_split(ops: tuple[Op, ...]) -> tuple[Op, Op]:
    """Split same-length operators at their joint degeneracies, as (section, sigma).

    ``section`` keeps 0 and each t where some operator changes value, and the
    epi ``sigma`` collapses the rest: each op is compose(compose(op, section), sigma).
    """
    m = len(ops[0]) - 1
    section = (0,) + tuple(t for t in range(1, m + 1) if any(op[t] != op[t - 1] for op in ops))
    return section, tuple(sum(1 for s in section if s <= t) - 1 for t in range(m + 1))


def joint_core(pairs: tuple[EZ, ...]) -> tuple[tuple[EZ, ...], Op]:
    """Split a tuple of same-degree EZ pairs as (jointly nondegenerate cores, epi)."""
    section, sigma = joint_split(tuple(p.op for p in pairs))
    return tuple(EZ(p.core, compose(p.op, section)) for p in pairs), sigma


def product(X: SSet, Y: SSet, dim_cap: int | None = None) -> ProductResult:
    """Cartesian product; nondegenerate cells are jointly nondegenerate pairs."""
    cap = DIM_CAP if dim_cap is None else dim_cap
    top = X.dim + Y.dim
    if X.dim < 0 or Y.dim < 0:
        E = empty_sset()
        return ProductResult(E, SMap(E, X, {}), SMap(E, Y, {}))
    if top > cap:
        # shuffles of top cells are always jointly nondegenerate
        raise CapError(f"product reaches dimension {top} > cap {cap}")
    cells: list[list[str]] = []
    index: dict[tuple[EZ, EZ], str] = {}
    for n in range(min(top, cap) + 1):
        level = []
        # a-major, then b in the order of Y.simplices(n), as a filter of all pairs
        for a in X.simplices(n):
            for l in range(min(n, Y.dim) + 1):
                partners = shuffle_partners(a.op, l)
                for y in Y.cells[l]:
                    for tau in partners:
                        b = EZ(y, tau)
                        x = _pair_name(a, b)
                        index[(a, b)] = x
                        level.append(x)
        cells.append(level)
    faces = {}
    back: dict[str, tuple[EZ, EZ]] = {x: k for k, x in index.items()}
    for (a, b), x in index.items():
        n = a.deg
        if n == 0:
            continue
        fs = []
        for fa, fb in zip(X.faces_of(a), Y.faces_of(b)):
            cores, sigma = joint_core((fa, fb))
            fs.append(EZ(index[cores], sigma))
        faces[x] = tuple(fs)
    P = SSet(cells, faces, dim_cap=cap)
    pr1 = SMap(P, X, {x: back[x][0] for x in P.dim_of}, validate=False)
    pr2 = SMap(P, Y, {x: back[x][1] for x in P.dim_of}, validate=False)
    return ProductResult(P, pr1, pr2)


class MultiProductResult(NamedTuple):
    sset: SSet
    projections: tuple[SMap, ...]
    index: dict[tuple[EZ, ...], str]  # jointly nondegenerate components -> cell


def multi_product(factors: list[SSet], dim_cap: int | None = None) -> MultiProductResult:
    if not factors:
        raise SSetError("need at least one factor")
    acc = factors[0]
    projs = [identity_map(factors[0])]
    for Y in factors[1:]:
        P, pr1, pr2 = product(acc, Y, dim_cap=dim_cap)
        projs = [pr1.then(p) for p in projs] + [pr2]
        acc = P
    index: dict[tuple[EZ, ...], str] = {}
    for x, n in acc.dim_of.items():
        top = EZ(x, idop(n))
        index[tuple(pr(top) for pr in projs)] = x
    return MultiProductResult(acc, tuple(projs), index)


def product_cell(mp: MultiProductResult, pairs: tuple[EZ, ...]) -> EZ:
    """Locate the simplex of an iterated product with the given components."""
    cores, sigma = joint_core(tuple(pairs))
    return EZ(mp.index[cores], sigma)


def product_map(src: MultiProductResult, tgt: MultiProductResult, maps: tuple[SMap, ...]) -> SMap:
    """The product of maps, factor i of src -> factor i of tgt, between two products."""
    images = {
        x: product_cell(tgt, tuple(f(p) for f, p in zip(maps, comps)))
        for comps, x in src.index.items()
    }
    return SMap(src.sset, tgt.sset, images)


def pair_cell(P: SSet, a: EZ, b: EZ) -> EZ:
    """Locate the simplex of a binary product P = X x Y with the given components."""
    cores, sigma = joint_core((a, b))
    name = _pair_name(*cores)
    if name not in P.dim_of:
        raise SSetError(f"no cell {name} in the product")
    return EZ(name, sigma)


def pullback(p: SMap, q: SMap, dim_cap: int | None = None) -> ProductResult:
    """The fiber product of p: X -> S and q: Y -> S inside X x Y."""
    P, pr1, pr2 = product(p.source, q.source, dim_cap=dim_cap)
    keep = [x for x in P.dim_of if p(pr1(EZ(x, idop(P.dim_of[x])))) == q(pr2(EZ(x, idop(P.dim_of[x]))))]
    sub, incl = subcomplex(P, keep)
    return ProductResult(sub, incl.then(pr1), incl.then(pr2))


def fiber(p: SMap, vertex: str) -> tuple[SSet, SMap]:
    """The subcomplex of the source lying over a vertex of the target."""
    keep = [
        x
        for x, n in p.source.dim_of.items()
        if p.images[x] == EZ(vertex, const_op(n, 0))
    ]
    return subcomplex(p.source, keep)


# -- joins ---------------------------------------------------------------------


class JoinResult(NamedTuple):
    sset: SSet
    incl1: SMap
    incl2: SMap
    mixed: dict[tuple[str, str], str]  # (cell of X, cell of Y) -> their join cell


def join_sset(X: SSet, Y: SSet, dim_cap: int | None = None) -> JoinResult:
    """The simplicial join X * Y with its canonical end inclusions."""
    cap = DIM_CAP if dim_cap is None else dim_cap
    top = X.dim + Y.dim + 1 if (X.dim >= 0 and Y.dim >= 0) else max(X.dim, Y.dim)
    if top > cap:
        raise CapError(f"join reaches dimension {top} > cap {cap}")
    n_levels = top + 1
    cells: list[list[str]] = [[] for _ in range(n_levels)]
    left_name = {x: f"{x}*" for x in X.dim_of}
    right_name = {y: f"*{y}" for y in Y.dim_of}
    mixed_name: dict[tuple[str, str], str] = {}
    for n, level in enumerate(X.cells):
        cells[n].extend(left_name[x] for x in level)
    for n, level in enumerate(Y.cells):
        cells[n].extend(right_name[y] for y in level)
    for i in range(X.dim + 1):
        for j in range(Y.dim + 1):
            for x in X.level(i):
                for y in Y.level(j):
                    name = f"{x}*{y}"
                    mixed_name[(x, y)] = name
                    cells[i + j + 1].append(name)

    def join_pair(a: EZ | None, b: EZ | None) -> EZ:
        if a is None:
            return EZ(right_name[b.core], b.op)
        if b is None:
            return EZ(left_name[a.core], a.op)
        return EZ(mixed_name[(a.core, b.core)], op_join(a.op, b.op, a.op[-1] + 1))

    faces = {}
    for x in X.dim_of:
        if X.dim_of[x] >= 1:
            faces[left_name[x]] = tuple(join_pair(f, None) for f in X.faces[x])
    for y in Y.dim_of:
        if Y.dim_of[y] >= 1:
            faces[right_name[y]] = tuple(join_pair(None, f) for f in Y.faces[y])
    for (x, y), name in mixed_name.items():
        i, j = X.dim_of[x], Y.dim_of[y]
        fs = []
        for k in range(i + j + 2):
            if k <= i:
                if i == 0:
                    fs.append(join_pair(None, EZ(y, idop(j))))
                else:
                    fs.append(join_pair(X.faces[x][k], EZ(y, idop(j))))
            else:
                if j == 0:
                    fs.append(join_pair(EZ(x, idop(i)), None))
                else:
                    fs.append(join_pair(EZ(x, idop(i)), Y.faces[y][k - i - 1]))
        faces[name] = tuple(fs)
    J = SSet(cells, faces, dim_cap=cap)
    incl1 = SMap(X, J, {x: EZ(left_name[x], idop(n)) for x, n in X.dim_of.items()}, validate=False)
    incl2 = SMap(Y, J, {y: EZ(right_name[y], idop(n)) for y, n in Y.dim_of.items()}, validate=False)
    return JoinResult(J, incl1, incl2, mixed_name)


def join_map(src, tgt, f: SMap, g: SMap) -> SMap:
    """f * g: X * Y -> X' * Y' between two joins, each a JoinResult or a JoinMS."""
    images = {c.core: tgt.incl1(f.images[x]) for x, c in src.incl1.images.items()}
    images.update({c.core: tgt.incl2(g.images[y]) for y, c in src.incl2.images.items()})
    for (x, y), c in src.mixed.items():
        a, b = f.images[x], g.images[y]
        images[c] = EZ(tgt.mixed[(a.core, b.core)], op_join(a.op, b.op, a.op[-1] + 1))
    return SMap(src.incl1.target, tgt.incl1.target, images)


# -- pushouts and coproducts ---------------------------------------------------


class PushoutResult(NamedTuple):
    sset: SSet
    leg_target: SMap  # X -> P
    leg_big: SMap  # B -> P


def pushout_mono(i: SMap, g: SMap) -> PushoutResult:
    """The pushout X ∪_A B of g: A -> X along a mono i: A -> B."""
    if not i.is_mono():
        raise SSetError("left map of a pushout must be mono")
    A, B, X = i.source, i.target, g.target
    A_to_B = {x: i.images[x].core for x in A.dim_of}
    in_A = {v: k for k, v in A_to_B.items()}
    used = set(X.dim_of)
    rename: dict[str, str] = {}
    for b in B.dim_of:
        if b in in_A:
            continue
        name = b
        while name in used:
            name += "'"
        used.add(name)
        rename[b] = name
    n_levels = max(len(X.cells), len(B.cells))
    cells: list[list[str]] = [[] for _ in range(n_levels)]
    for n in range(n_levels):
        cells[n].extend(X.level(n))
        cells[n].extend(rename[b] for b in B.level(n) if b not in in_A)

    def push_b(pair: EZ) -> EZ:
        if pair.core in in_A:
            img = g.images[in_A[pair.core]]
            return EZ(img.core, compose(img.op, pair.op))
        return EZ(rename[pair.core], pair.op)

    faces = dict(X.faces)
    for b, n in B.dim_of.items():
        if b in in_A or n == 0:
            continue
        faces[rename[b]] = tuple(push_b(f) for f in B.faces[b])
    P = SSet(cells, faces, dim_cap=max(X.dim_cap, B.dim_cap))
    leg_target = SMap(X, P, {x: EZ(x, idop(n)) for x, n in X.dim_of.items()}, validate=False)
    leg_big = SMap(B, P, {b: push_b(EZ(b, idop(n))) for b, n in B.dim_of.items()})
    return PushoutResult(P, leg_target, leg_big)


def coproduct(X: SSet, Y: SSet) -> JoinResult:
    """X + Y, the pushout along the empty complex; cells of Y are renamed apart."""
    E = empty_sset()
    P, i1, i2 = pushout_mono(SMap(E, Y, {}, validate=False), SMap(E, X, {}, validate=False))
    return JoinResult(P, i1, i2, {})


# -- opposites -------------------------------------------------------------------


def opposite(X: SSet) -> SSet:
    """Reverse the vertex order of every simplex; an exact involution."""
    faces = {}
    for x, n in X.dim_of.items():
        if n >= 1:
            fs = X.faces[x]
            faces[x] = tuple(EZ(fs[n - i].core, op_reverse(fs[n - i].op)) for i in range(n + 1))
    return SSet(X.cells, faces, dim_cap=X.dim_cap)


def opposite_map(f: SMap) -> SMap:
    return SMap(
        opposite(f.source),
        opposite(f.target),
        {x: EZ(p.core, op_reverse(p.op)) for x, p in f.images.items()},
        validate=False,
    )


# -- map enumeration ---------------------------------------------------------------


def enumerate_maps(
    X: SSet,
    Y: SSet,
    partial: dict[str, EZ] | None = None,
    image_ok: Callable[[str, EZ], bool] | None = None,
    first_only: bool = False,
) -> list[SMap]:
    """All simplicial maps X -> Y extending a partial assignment, in a fixed order.

    The maps come in the lexicographic order of their images, with the cells
    of X taken level by level (``X.search_plan().order``) and the candidates
    for each cell taken in the order of ``Y.simplices``.  The candidates of a
    vertex are all vertices of Y, or its pin; those of a cell x of dimension
    n >= 1 are the n-simplices of Y whose faces are the images of the faces of
    x, that equal the pin of x if it has one, and that pass ``image_ok(x, c)``.
    ``image_ok`` must depend on its arguments only.

    The search is forward-checked: as soon as the last face of a cell gets its
    image, the cell's candidate list is computed and kept until the search
    reaches the cell, and an empty list cuts the branch.  A cut branch holds
    no map, and each list is the one the cell would get on reaching it, so
    forward checking changes neither the maps nor their order.  With
    ``first_only`` the search stops at the first map.
    """
    partial = partial or {}
    order, faces, due = X.search_plan()
    size = len(order)
    if size == 0:
        return [SMap(X, Y, {}, validate=False)]
    images: list[EZ | None] = [None] * size
    lists: list[list[EZ]] = [[] for _ in range(size)]
    cursor = [0] * size

    def fill(j: int, bucket) -> bool:
        x = order[j]
        pin = partial.get(x)
        lists[j] = [
            c
            for c in bucket
            if (pin is None or c == pin) and (image_ok is None or image_ok(x, c))
        ]
        return bool(lists[j])

    def forward(j: int) -> bool:
        key = tuple(
            images[p] if op is None else EZ(images[p].core, compose(images[p].op, op))
            for p, op in faces[j]
        )
        return fill(j, Y.by_faces(len(key) - 1).get(key, ()))

    for j, x in enumerate(X.level(0)):
        pin = partial.get(x)
        if not fill(j, Y.simplices(0) if pin is None else (pin,)):
            return []
    found: list[SMap] = []
    k = 0
    while k >= 0:
        i = cursor[k]
        if i == len(lists[k]):
            k -= 1
            continue
        cursor[k] = i + 1
        images[k] = lists[k][i]
        if not all(forward(j) for j in due[k]):
            continue
        if k + 1 < size:
            k += 1
            cursor[k] = 0
            continue
        found.append(SMap(X, Y, dict(zip(order, images)), validate=False))
        if first_only:
            break
    return found


def _joint_signatures(X: SSet, Y: SSet, tags_x=None, tags_y=None):
    """Iteratively refined cell invariants, canonicalized jointly over X and Y.

    Tags let callers fold decorations into the invariant so that candidate
    buckets respect them.
    """
    tags_x = tags_x or {}
    tags_y = tags_y or {}
    sig = {}
    for Z, tags, side in ((X, tags_x, 0), (Y, tags_y, 1)):
        for x, n in Z.dim_of.items():
            sig[(side, x)] = (n, tags.get(x, 0))
    codes = {v: i for i, v in enumerate(sorted(set(sig.values())))}
    sig = {k: codes[v] for k, v in sig.items()}
    for _ in range(3):
        cof: dict[tuple, list] = {k: [] for k in sig}
        for Z, side in ((X, 0), (Y, 1)):
            for y, n in Z.dim_of.items():
                for i, f in enumerate(Z.faces.get(y, ())):
                    cof[(side, f.core)].append((i, sig[(side, y)], f.op))
        new = {}
        for Z, side in ((X, 0), (Y, 1)):
            for x in Z.dim_of:
                k = (side, x)
                fs = tuple((sig[(side, f.core)], f.op) for f in Z.faces.get(x, ()))
                new[k] = (sig[k], fs, tuple(sorted(cof[k])))
        codes = {v: i for i, v in enumerate(sorted(set(new.values())))}
        sig = {k: codes[v] for k, v in new.items()}
    sig_x = {x: sig[(0, x)] for x in X.dim_of}
    sig_y = {y: sig[(1, y)] for y in Y.dim_of}
    return sig_x, sig_y


def isomorphisms(
    X: SSet,
    Y: SSet,
    first_only: bool = True,
    tags_x=None,
    tags_y=None,
) -> list[SMap]:
    """Isomorphisms X -> Y, by level-bijective backtracking on cells.

    Candidate images are restricted to cells with the same refined signature
    (which folds in the optional decoration tags) and matching assigned faces.
    """
    if X.counts() != Y.counts():
        return []
    sig_x, sig_y = _joint_signatures(X, Y, tags_x, tags_y)
    buckets: dict[tuple[int, int], list[str]] = {}
    for y, n in Y.dim_of.items():
        buckets.setdefault((n, sig_y[y]), []).append(y)
    for x, n in X.dim_of.items():
        if len(buckets.get((n, sig_x[x]), ())) != sum(
            1 for z in X.dim_of if X.dim_of[z] == n and sig_x[z] == sig_x[x]
        ):
            return []
    order = sorted(X.dim_of, key=lambda x: (X.dim_of[x], len(buckets[(X.dim_of[x], sig_x[x])]), x))
    size = len(order)
    used: set[str] = set()
    out: list[SMap] = []
    images: dict[str, EZ] = {}
    cursor = [0] * size

    def fits(x: str, n: int, y: str) -> bool:
        if y in used:
            return False
        target = EZ(y, idop(n))
        for i, f in enumerate(X.faces.get(x, ())):
            img = images.get(f.core)
            if img is not None and EZ(img.core, compose(img.op, f.op)) != Y.face(target, i):
                return False
        return True

    k = 0
    while k >= 0:
        if k == size:
            cand = SMap(X, Y, dict(images), validate=False)
            try:
                cand._validate()
            except SSetError:
                pass
            else:
                out.append(cand)
                if first_only:
                    break
            k -= 1
            continue
        x = order[k]
        n = X.dim_of[x]
        if x in images:
            used.remove(images.pop(x).core)
        bucket = buckets[(n, sig_x[x])]
        i = cursor[k]
        while i < len(bucket) and not fits(x, n, bucket[i]):
            i += 1
        if i == len(bucket):
            k -= 1
            continue
        cursor[k] = i + 1
        used.add(bucket[i])
        images[x] = EZ(bucket[i], idop(n))
        k += 1
        if k < size:
            cursor[k] = 0
    return out


def is_isomorphic(X: SSet, Y: SSet) -> bool:
    return bool(isomorphisms(X, Y))
