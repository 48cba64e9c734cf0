"""A fixed piece of work that gauges the host's speed, not ssw's.

    python3 perfbench/reference.py

The harness runs it in a fresh interpreter right after every set-up sample
and scales the run's times by its time (see README.md, "Scaling to the
reference host").  It imports nothing from ssw, so a change to ssw never
moves it.  It does the kind of work ssw's hot paths do -- monotone operators
as tuples, composition, epi-mono factorisation, dictionary caches keyed by
tuples, frozensets -- so that it slows down when the host does.  It prints
the seconds it took.

Never change this file: the gated times depend on its running time, so
changing it changes every result.
"""
from __future__ import annotations

import time
from itertools import combinations_with_replacement

TOP = 4  # operators into [TOP]


def operators(m: int) -> list:
    """All monotone maps [m] -> [TOP], as value tuples."""
    return list(combinations_with_replacement(range(TOP + 1), m + 1))


def epi_mono(beta: tuple) -> tuple:
    values = sorted(set(beta))
    index = {v: t for t, v in enumerate(values)}
    return tuple(index[v] for v in beta), tuple(values)


def work() -> int:
    """Compose every endomorphism of [TOP] after every operator [m] -> [TOP]
    with m < TOP, cache the composites, and group their epi parts by mono part."""
    ops = {m: operators(m) for m in range(TOP + 1)}
    cache: dict = {}
    images: dict = {}
    for m in range(TOP):
        for g in ops[m]:
            for f in ops[TOP]:
                key = (f, g)
                fg = cache.get(key)
                if fg is None:
                    fg = cache[key] = tuple(f[v] for v in g)
                sigma, delta = epi_mono(fg)
                images.setdefault(delta, set()).add(sigma)
    groups = frozenset(frozenset(s) for s in images.values())
    return len(cache) + sum(len(s) for s in images.values()) + len(groups)


def main() -> None:
    t0 = time.perf_counter()
    work()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
