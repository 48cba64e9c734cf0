"""Monotone-map calculus on finite ordinals.

An operator [m] -> [k] is stored as a value tuple of length m+1: ``op[t]`` is
the image of ``t``.  Surjective monotone operators are the degeneracy words of
the Eilenberg-Zilber decomposition; injective monotone operators are iterated
face maps.

``idop``, ``compose``, ``epi_mono``, ``face_op``, ``face_split`` and ``is_epi``
are memoized like ``surjections`` and ``injections``: the faces of degenerate
simplices, actions, validation and product cells go through them, on few
distinct arguments.  The faces and images of a nondegenerate simplex are read
off the stored ones without them (``SSet.faces_of``, ``SMap.__call__``), after
an identity test against the ``IDENTITY`` table, a subscript where ``idop`` is
a call.  They take operators as tuples, never lists.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

Op = tuple  # tuple[int, ...]


@lru_cache(maxsize=None)
def idop(m: int) -> Op:
    return tuple(range(m + 1))


class _Identities(dict):
    def __missing__(self, length: int) -> Op:
        return self.setdefault(length, tuple(range(length)))


IDENTITY: dict[int, Op] = _Identities()  # op is an identity iff op == IDENTITY[len(op)]


def is_monotone(op: Op) -> bool:
    return all(op[t] <= op[t + 1] for t in range(len(op) - 1))


@lru_cache(maxsize=None)
def is_epi(op: Op) -> bool:
    """Surjective monotone onto [op[-1]]."""
    if not op or op[0] != 0 or not is_monotone(op):
        return False
    return all(op[t + 1] - op[t] <= 1 for t in range(len(op) - 1))


@lru_cache(maxsize=None)
def compose(f: Op, g: Op) -> Op:
    """f after g."""
    return tuple(f[v] for v in g)


@lru_cache(maxsize=None)
def epi_mono(beta: Op) -> tuple[Op, Op]:
    """Factor a monotone beta as delta∘sigma with sigma epi, delta mono."""
    values = sorted(set(beta))
    index = {v: t for t, v in enumerate(values)}
    sigma = tuple(index[v] for v in beta)
    return sigma, tuple(values)


@lru_cache(maxsize=None)
def face_op(n: int, i: int) -> Op:
    """delta_i: [n-1] -> [n], skipping i."""
    return tuple(t for t in range(n + 1) if t != i)


@lru_cache(maxsize=None)
def face_split(sigma: Op) -> tuple[tuple[int | None, Op], ...]:
    """The faces of a degeneracy word sigma: [n] ->> [k] (n >= 1), one per i <= n.

    By the simplicial identities sigma∘delta_i is either still onto [k], given
    as (None, sigma∘delta_i), or it misses exactly j = sigma[i] and equals
    delta_j∘tau with tau: [n-1] ->> [k-1], given as (j, tau).  So face i of the
    simplex (x, sigma) is (x, sigma∘delta_i), or face j of x followed by tau.
    """
    if len(sigma) == 1:
        return ()  # a vertex has no faces
    out = []
    for i, j in enumerate(sigma):
        rest = sigma[:i] + sigma[i + 1:]
        if j in rest:
            out.append((None, rest))
        else:
            out.append((j, tuple(v if v < j else v - 1 for v in rest)))
    return tuple(out)


def degeneracy_op(n: int, i: int) -> Op:
    """sigma_i: [n+1] -> [n], hitting i twice."""
    return tuple(t if t <= i else t - 1 for t in range(n + 2))


def const_op(m: int, v: int) -> Op:
    return (v,) * (m + 1)


@lru_cache(maxsize=None)
def surjections(n: int, k: int) -> tuple[Op, ...]:
    """All monotone surjections [n] ->> [k], in lexicographic order."""
    if k > n or k < 0:
        return ()
    out = []
    for stays in combinations(range(1, n + 1), n - k):
        op, cur = [0], 0
        for t in range(1, n + 1):
            if t not in stays:
                cur += 1
            op.append(cur)
        out.append(tuple(op))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def injections(n: int, k: int) -> tuple[Op, ...]:
    """All monotone injections [n] -> [k], in lexicographic order."""
    if n > k:
        return ()
    return tuple(combinations(range(k + 1), n + 1))


def op_join(f: Op, g: Op, offset: int) -> Op:
    """Join of operators: [m]*[m'] -> [a]*[b] with the target glued at offset=a+1."""
    return f + tuple(v + offset for v in g)


def op_reverse(op: Op) -> Op:
    """Conjugation by order reversal on both ordinals."""
    k = op[-1] if op else 0
    m = len(op) - 1
    return tuple(k - op[m - t] for t in range(m + 1))
