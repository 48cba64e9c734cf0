"""The trusted constructors build their results without validating them:
each result is correct by construction from validated inputs.  Here each of
them runs on the catalog and on hypothesis poset nerves, and ``_validate()``
must accept every SSet and SMap it returns."""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from posets import poset_nerves
from ssw.catalog import catalog
from ssw.core import (
    SMap,
    SSet,
    SSetError,
    constant_map,
    coproduct,
    empty_sset,
    identity_map,
    join_map,
    join_sset,
    multi_product,
    opposite,
    product,
    product_map,
    pushout_mono,
    simplex_map,
    standard_simplex,
    subcomplex,
)
from ssw.decor import SHARP, Scaled, decorate
from ssw.fibration import empty_cone
from ssw.slices import reindex_map, slice_over_vertex
from ssw.tensor import point_ms, thick_join, thick_join_map


def validated(*results) -> int:
    """Validate every SSet and SMap among the results, looking inside tuples
    and decorated complexes; the number validated."""
    count = 0
    for r in results:
        if isinstance(r, (SSet, SMap)):
            r._validate()
            count += 1
        elif isinstance(getattr(r, "base", None), SSet):
            count += validated(r.base)
        elif isinstance(r, tuple):
            count += validated(*r)
    return count


def check_core_constructors(X: SSet) -> None:
    """Every core constructor, run on X, returns valid complexes and maps."""
    d0, d1 = standard_simplex(0), standard_simplex(1)
    assert validated(*(standard_simplex(n) for n in range(5)), empty_sset()) == 6
    for k in range(-1, X.dim + 1):
        validated(subcomplex(X, [x for x, n in X.dim_of.items() if n <= k]))
    for n in range(3):
        for sigma in X.simplices(n):
            assert validated(simplex_map(X, sigma)) == 1
    to_point = constant_map(X, d0, "0")
    assert validated(to_point, opposite(X)) == 2
    for P in (product(X, d1), product(d1, X), product(X, empty_sset())):
        assert validated(P) == 3
    mp = multi_product([X, d1])
    assert validated(product_map(mp, multi_product([d0, d1]), (to_point, identity_map(d1)))) == 1
    for J in (join_sset(X, d0), join_sset(empty_sset(), X)):
        assert validated(J) == 3
    assert validated(join_map(join_sset(X, d0), join_sset(d0, d0), to_point, identity_map(d0))) == 1
    skeleton, incl = subcomplex(X, [x for x, n in X.dim_of.items() if n <= 1])
    assert validated(pushout_mono(incl, constant_map(skeleton, d0, "0"))) == 3
    assert validated(coproduct(X, d1)) == 3


def check_decorated_constructors(S: Scaled, cap: int) -> None:
    """Thick-join maps, slices and their reindexing maps on S are valid."""
    X = S.flat_marked()
    to_point = constant_map(X.base, standard_simplex(0), "0")
    for variance in ("inn", "out"):
        src, tgt = thick_join(variance, X, point_ms()), thick_join(variance, point_ms(), point_ms())
        assert validated(thick_join_map(src, tgt, to_point, identity_map(tgt.proj_right.target))) == 1
    v = X.base.level(0)[0]
    sl = slice_over_vertex(S, v, cap)
    assert validated(sl.total, sl.projection) == 2
    point = slice_over_vertex(Scaled(standard_simplex(0)), "0", cap)
    assert validated(reindex_map(sl, sl), reindex_map(sl, point, p=to_point)) == 2
    assert validated(empty_cone(S, v, "inn")) == 2


@pytest.mark.parametrize("name", sorted(catalog()))
def test_trusted_constructors_on_the_catalog(name):
    ms = catalog()[name]
    check_core_constructors(ms.base)
    if ms.base.dim <= 2:
        check_decorated_constructors(ms.scaled(), 2)


@given(poset_nerves())
@settings(max_examples=25, deadline=None)
def test_trusted_constructors_on_nerves(X):
    check_core_constructors(X)
    if X.dim >= 0:
        check_decorated_constructors(decorate(X, scaling=SHARP).scaled(), 2)


def test_the_hook_validates_every_build():
    """tests/conftest.py validates each SSet as it is built, so a 2-simplex
    with two faces swapped fails at construction here; a fresh process
    without the hook builds the same SSet without error."""
    d2 = standard_simplex(2)
    top = d2.faces["012"]
    with pytest.raises(SSetError, match="simplicial identity fails at '012'"):
        SSet(d2.cells, {**d2.faces, "012": (top[1], top[0], top[2])})
    code = (
        "from ssw.core import SSet, standard_simplex\n"
        "d2 = standard_simplex(2)\n"
        "top = d2.faces['012']\n"
        "print(SSet(d2.cells, {**d2.faces, '012': (top[1], top[0], top[2])}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "SSet(3, 3, 1)\n"
