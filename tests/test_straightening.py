"""Straightening on posets, checked against answers computed on the posets.

A diagram F: P -> Pos has the Grothendieck poset ∫F, with (i, x) <= (j, y)
iff i <= j and F(i <= j)(x) <= y, and p: N(∫F) -> N(P) is a cocartesian
fibration whose cocartesian edges are the (i, x) < (j, F(i <= j)(x)).  Its
sections over N(P) (``fun_coc_subcat`` with K = N(P) flat) are the lax limit
of F, the poset of families (x_i) with F(i <= j)(x_i) <= x_j ordered pointwise;
the cocartesian sections (K = N(P) sharp) are the limit, where
F(i <= j)(x_i) = x_j.  Over a poset the only cocartesian edges over an
identity are identities, so the pointwise-cocartesian transformations, the
marked edges of both results, are the identities alone.
"""
import itertools
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import is_isomorphic
from posets import nerve, posets
from ssw.core import EZ, SMap, identity_map
from ssw.decor import FLAT, SHARP, decorate, scale
from ssw.fibration import locally_cocartesian_edges
from ssw.slices import fun_coc_subcat

# Generated diagrams keep to results of height at most 1.  With every build
# validated, as in tier-1, one build takes 0.2-1.3 s at cap 4 and 3.8-4.6 s at
# cap 5 (the lax limit of 0 < 1 < 2 with fibres {0 < 1} and identity maps): the
# level engine enumerates every map, degenerate ones included (ROADMAP item 2).
# The chosen diagrams below reach cap 4.
MAX_CAP = 3


class Diagram(NamedTuple):
    """F: P -> Pos, P on 0..size-1 with strict order ``less``; F(i) on
    0..m-1 with strict order ``order[i]``, numbered along a linear extension;
    ``maps[i, j]`` is F(i < j) as a tuple of images."""

    size: int
    less: frozenset
    sizes: tuple
    order: tuple
    maps: dict

    def image(self, i, j, x):
        return x if i == j else self.maps[i, j][x]

    def leq(self, i, x, y):
        return x == y or (x, y) in self.order[i]


@st.composite
def diagrams(draw):
    """Diagrams on posets of at most 3 elements with fibres of at most 2."""
    size, less = draw(posets())
    sizes = tuple(draw(st.integers(1, 2)) for _ in range(size))
    order = tuple(frozenset({(0, 1)}) if m == 2 and draw(st.booleans()) else frozenset() for m in sizes)
    maps = {}
    # pairs with nothing between them first, so that F(i < k) = F(j < k) F(i < j)
    for i, k in sorted(less, key=lambda ik: ik[1] - ik[0]):
        between = [j for j in range(i + 1, k) if (i, j) in less and (j, k) in less]
        if between:
            j = between[0]
            maps[i, k] = tuple(maps[j, k][y] for y in maps[i, j])
            continue
        monotone = [
            f for f in itertools.product(range(sizes[k]), repeat=sizes[i])
            if all(x == y or f[x] == f[y] or (f[x], f[y]) in order[k] for x, y in order[i])
        ]
        maps[i, k] = draw(st.sampled_from(monotone))
    return Diagram(size, frozenset(less), sizes, order, maps)


def chain_name(chain):
    return "".join(str(v) for v in chain)


def poset_nerve(elements, leq):
    """The nerve of a finite poset given along a linear extension."""
    less = {(u, v) for u, v in itertools.combinations(range(len(elements)), 2) if leq(elements[u], elements[v])}
    return nerve(len(elements), less)


def grothendieck(F: Diagram):
    """N(∫F), the projection p to N(P), and the cocartesian edges of p."""
    elements = [(i, x) for i in range(F.size) for x in range(F.sizes[i])]

    def leq(a, b):
        (i, x), (j, y) = a, b
        return (i == j or (i, j) in F.less) and F.leq(j, F.image(i, j, x), y)

    total = poset_nerve(elements, leq)
    images = {}
    for c in total.dim_of:
        chain = [elements[int(v)][0] for v in c]
        core = sorted(set(chain))
        images[c] = EZ(chain_name(core), tuple(core.index(i) for i in chain))
    p = SMap(total, nerve(F.size, F.less), images)
    good = set()
    for c in total.level(1):
        (i, x), (j, y) = (elements[int(v)] for v in c)
        if i != j and y == F.image(i, j, x):
            good.add(c)
    return total, p, frozenset(good)


def limit(F: Diagram, lax: bool):
    """The nerve of the lax limit or of the limit of F, and its height."""
    def ok(i, j, s):
        return F.leq(j, F.image(i, j, s[i]), s[j]) if lax else F.image(i, j, s[i]) == s[j]

    sections = [s for s in itertools.product(*map(range, F.sizes)) if all(ok(i, j, s) for i, j in F.less)]

    def leq(s, t):
        return all(F.leq(i, x, y) for i, (x, y) in enumerate(zip(s, t)))

    height = {}
    for s in sections:  # along a linear extension
        height[s] = max((height[t] + 1 for t in height if leq(t, s)), default=0)
    return poset_nerve(sections, leq), max(height.values(), default=0)


def cases(F: Diagram):
    """(marking of K, the expected nerve, cap) for the sections with K = N(P)
    flat and sharp; a cap two above the height leaves two empty levels."""
    out = []
    for marking, lax in ((FLAT, True), (SHARP, False)):
        expected, height = limit(F, lax)
        out.append((marking, expected, height + 2))
    return out


def check_sections(F: Diagram, cases):
    total, p, good = grothendieck(F)
    base = p.target
    assert locally_cocartesian_edges(p, scale(base, SHARP), bound=3) == good
    for marking, expected, cap in cases:
        res = fun_coc_subcat(decorate(base, marking), p, scale(total, SHARP), identity_map(base), good, cap)
        assert res.saturated, (F, marking)
        assert is_isomorphic(res.total.base, expected), (F, marking)
        assert res.total.marked == frozenset(), (F, marking)


CHAIN = frozenset({(0, 1)})
CHOSEN = {
    # F(0) = {a}, F(1) = {c < d}, a to c: the lax limit is an edge, the limit a point
    "point-to-edge": Diagram(2, frozenset({(0, 1)}), (1, 2), (frozenset(), CHAIN), {(0, 1): (0,)}),
    # F(0) = {a < b}, F(1) = {c < d}, a to c and b to d: a triangle and an edge
    "edge-to-edge": Diagram(2, frozenset({(0, 1)}), (2, 2), (CHAIN, CHAIN), {(0, 1): (0, 1)}),
}


@pytest.mark.parametrize("name", CHOSEN)
def test_sections_on_chosen_diagrams(name):
    F = CHOSEN[name]
    check_sections(F, cases(F))


@given(diagrams())
@settings(max_examples=20, deadline=None)
def test_sections_on_generated_diagrams(F):
    chosen = cases(F)
    assume(all(cap <= MAX_CAP for _, _, cap in chosen))
    check_sections(F, chosen)
