"""Monotone-map calculus on finite ordinals, and the one registry of memos.

An operator [m] -> [k] is stored as a value tuple of length m+1: ``op[t]`` is
the image of ``t``.  Surjective monotone operators are the degeneracy words of
the Eilenberg-Zilber decomposition; injective monotone operators are iterated
face maps.  The functions marked ``@memo`` take operators as tuples, never
lists.  The faces and images of a nondegenerate simplex are read off the
stored ones without them (``SSet.faces_of``, ``SMap.__call__``), after an
identity test against the ``IDENTITY`` table, a subscript where ``idop`` is a
call.  Every memo that lives as long as the process is made by ``memo`` or
put in ``_MEMOS``; ``memo_sizes()`` gives their sizes, ``clear_memos()`` empties them.
"""
from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations

Op = tuple  # tuple[int, ...]
_MEMOS: dict = {}  # the registry: name -> a memo table or an lru_cache


def memo(fn=None, *, key=None):
    """fn memoized on its arguments, or on ``key(*args, **kwargs)`` where equal
    arguments may differ in content; registered as module.name."""
    if fn is None:
        return lambda fn: memo(fn, key=key)
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
    if key is None:
        _MEMOS[name] = cached = lru_cache(maxsize=None)(fn)
        return cached
    _MEMOS[name] = table = {}

    @wraps(fn)
    def keyed(*args, **kwargs):
        out = table.get(k := key(*args, **kwargs))
        return table.setdefault(k, fn(*args, **kwargs)) if out is None else out

    return keyed


def memo_sizes() -> dict[str, int]:
    """The number of entries of each registered memo, by name."""
    return {name: len(m) if isinstance(m, dict) else m.cache_info().currsize for name, m in sorted(_MEMOS.items())}


def clear_memos() -> None:
    """Empty every registered memo, so that the next call builds afresh."""
    for m in _MEMOS.values():
        m.clear() if isinstance(m, dict) else m.cache_clear()


@memo
def idop(m: int) -> Op:
    return tuple(range(m + 1))


class _Identities(dict):
    def __missing__(self, length: int) -> Op:
        return self.setdefault(length, tuple(range(length)))


IDENTITY: dict[int, Op] = _MEMOS.setdefault("ops.IDENTITY", _Identities())  # op is an identity iff op == IDENTITY[len(op)]


def is_monotone(op: Op) -> bool:
    return all(op[t] <= op[t + 1] for t in range(len(op) - 1))


@memo
def is_epi(op: Op) -> bool:
    """Surjective monotone onto [op[-1]]."""
    if not op or op[0] != 0 or not is_monotone(op):
        return False
    return all(op[t + 1] - op[t] <= 1 for t in range(len(op) - 1))


@memo
def compose(f: Op, g: Op) -> Op:
    """f after g."""
    return tuple(f[v] for v in g)


@memo
def epi_mono(beta: Op) -> tuple[Op, Op]:
    """Factor a monotone beta as delta∘sigma with sigma epi, delta mono."""
    values = sorted(set(beta))
    index = {v: t for t, v in enumerate(values)}
    sigma = tuple(index[v] for v in beta)
    return sigma, tuple(values)


@memo
def face_op(n: int, i: int) -> Op:
    """delta_i: [n-1] -> [n], skipping i."""
    return tuple(t for t in range(n + 1) if t != i)


@memo
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


@memo
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


@memo
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
