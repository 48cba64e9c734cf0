"""Hypothesis strategies shared by the tests: nerves of small finite posets."""
import itertools

from hypothesis import strategies as st

from ssw.core import EZ, SSet
from ssw.ops import idop


def nerve(size, less):
    """The nerve of the poset on 0..size-1 whose strict order is ``less``."""
    chains = [c for k in range(1, size + 1) for c in itertools.combinations(range(size), k)
              if all((a, b) in less for a, b in zip(c, c[1:]))]

    def name(chain):
        return "".join(str(v) for v in chain)

    cells = [[name(c) for c in chains if len(c) == k + 1] for k in range(size)]
    faces = {
        name(c): tuple(EZ(name(c[:i] + c[i + 1:]), idop(len(c) - 2)) for i in range(len(c)))
        for c in chains
        if len(c) > 1
    }
    return SSet(cells, faces)


@st.composite
def posets(draw):
    """(size, less): posets on at most 3 elements, numbered along a linear extension."""
    size = draw(st.integers(min_value=0, max_value=3))
    less = {(a, b) for a, b in itertools.combinations(range(size), 2) if draw(st.booleans())}
    for k in range(size):
        for a in range(size):
            for b in range(size):
                if (a, k) in less and (k, b) in less:
                    less.add((a, b))
    return size, less


def poset_nerves():
    """Nerves of posets on at most 3 elements, numbered along a linear extension."""
    return posets().map(lambda poset: nerve(*poset))
