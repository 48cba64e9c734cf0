from ssw.ops import (
    compose,
    degeneracy_op,
    epi_mono,
    face_op,
    idop,
    injections,
    is_epi,
    is_monotone,
    op_join,
    op_reverse,
    surjections,
)


def test_identity_and_composition():
    assert idop(3) == (0, 1, 2, 3)
    f = (0, 1, 1, 2)
    g = (0, 2, 3)
    assert compose(f, g) == (0, 1, 2)


def test_epi_mono_factorization():
    beta = (1, 1, 3, 4)
    sigma, delta = epi_mono(beta)
    assert compose(delta, sigma) == beta
    assert is_epi(sigma)
    assert len(set(delta)) == len(delta)
    assert is_monotone(delta)


def test_face_and_degeneracy_identities():
    # d_i s_j relations via composition of value tuples
    n = 3
    for j in range(n + 1):
        s = degeneracy_op(n, j)
        for i in range(n + 2):
            comp = compose(s, face_op(n + 1, i))
            if i == j or i == j + 1:
                assert comp == idop(n)


def test_surjections_counts_and_order():
    # number of monotone surjections [n] ->> [k] is C(n, k)
    from math import comb

    for n in range(6):
        for k in range(n + 1):
            ops = surjections(n, k)
            assert len(ops) == comb(n, k)
            assert all(is_epi(op) and op[-1] == k for op in ops)
            assert list(ops) == sorted(ops)


def test_injections():
    assert injections(1, 2) == ((0, 1), (0, 2), (1, 2))
    assert injections(3, 2) == ()


def test_op_join():
    assert op_join((0, 1), (0, 0), 2) == (0, 1, 2, 2)


def test_op_reverse_involution():
    for n in range(5):
        for k in range(n + 1):
            for op in surjections(n, k):
                assert op_reverse(op_reverse(op)) == op
                assert is_epi(op_reverse(op))


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def monotone_map(draw, max_len=5, max_val=4):
    length = draw(st.integers(min_value=1, max_value=max_len))
    vals = draw(st.lists(st.integers(min_value=0, max_value=max_val),
                         min_size=length, max_size=length))
    return tuple(sorted(vals))


@given(monotone_map(), st.data())
@settings(max_examples=150, deadline=None)
def test_epi_mono_unique_normal_form(beta, data):
    sigma, delta = epi_mono(beta)
    assert compose(delta, sigma) == beta
    # the factorization is the unique epi-mono one: any other epi-mono
    # factorization through the same middle ordinal is identical
    assert is_epi(sigma)
    assert all(delta[t] < delta[t + 1] for t in range(len(delta) - 1))


@given(monotone_map(max_len=4, max_val=3), st.data())
@settings(max_examples=100, deadline=None)
def test_compose_associative(f, data):
    top = len(f) - 1
    g = tuple(sorted(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))))
    h = tuple(sorted(data.draw(st.lists(st.integers(0, len(g) - 1), min_size=1, max_size=4))))
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


# ---------------------------------------------------------------- memoized kernel

from itertools import combinations_with_replacement

from ssw.core import joint_split


def monotone_maps(m, k):
    """All monotone maps [m] -> [k]."""
    return list(combinations_with_replacement(range(k + 1), m + 1))


SMALL_MAPS = [(m, k, f) for m in range(4) for k in range(4) for f in monotone_maps(m, k)]


def test_compose_matches_the_plain_definition():
    for m, k, g in SMALL_MAPS:
        for l in range(4):
            for f in monotone_maps(k, l):
                assert compose(f, g) == tuple(f[v] for v in g)


def test_epi_mono_factors_every_small_map():
    for m, k, beta in SMALL_MAPS:
        sigma, delta = epi_mono(beta)
        assert compose(delta, sigma) == beta
        assert is_epi(sigma) and len(sigma) == m + 1
        assert all(delta[t] < delta[t + 1] for t in range(len(delta) - 1))
        assert delta[-1] <= k


def jointly_nondegenerate(ops):
    return not any(all(op[t] == op[t + 1] for op in ops) for t in range(len(ops[0]) - 1))


def check_joint_split(ops):
    section, sigma = joint_split(ops)
    assert (len(section) == len(ops[0])) == jointly_nondegenerate(ops)
    assert section[0] == 0 and all(section[t] < section[t + 1] for t in range(len(section) - 1))
    assert is_epi(sigma) and sigma[-1] == len(section) - 1
    cores = tuple(compose(op, section) for op in ops)
    assert jointly_nondegenerate(cores)
    assert all(compose(c, sigma) == op for c, op in zip(cores, ops))


def test_joint_split_of_every_small_pair():
    for m, _, a in SMALL_MAPS:
        for _, _, b in SMALL_MAPS:
            if len(b) == len(a):
                check_joint_split((a, b))


@given(st.integers(1, 3), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_joint_split_of_random_operators(count, m, data):
    ops = tuple(
        tuple(sorted(data.draw(st.lists(st.integers(0, 4), min_size=m + 1, max_size=m + 1))))
        for _ in range(count)
    )
    check_joint_split(ops)


def onto(n, k):
    """All monotone surjections [n] ->> [k], in lexicographic order, by brute force."""
    return [f for f in monotone_maps(n, k) if set(f) == set(range(k + 1))]


def test_face_split_follows_the_simplicial_identities():
    from ssw.ops import face_split

    assert face_split((0,)) == ()
    for n in range(1, 5):
        for k in range(n + 1):
            for sigma in onto(n, k):
                split = face_split(sigma)
                assert len(split) == n + 1
                for i, (j, tau) in enumerate(split):
                    rest = compose(sigma, face_op(n, i))
                    if j is None:  # sigma∘delta_i is still onto [k]
                        assert tau == rest and set(rest) == set(range(k + 1))
                    else:  # it misses j and factors as delta_j∘tau
                        assert j == sigma[i] and j not in rest
                        assert tau in onto(n - 1, k - 1)
                        assert compose(face_op(k, j), tau) == rest


def test_shuffle_partners_are_the_jointly_injective_surjections():
    from ssw.core import shuffle_partners

    for n in range(5):
        for k in range(n + 1):
            for sigma in onto(n, k):
                for l in range(n + 2):
                    expected = [tau for tau in onto(n, l) if len(set(zip(sigma, tau))) == n + 1]
                    assert list(shuffle_partners(sigma, l)) == expected
    # the (3, 2)-shuffles: C(5, 3) top cells of Delta^3 x Delta^2
    assert sum(len(shuffle_partners(s, 2)) for s in onto(5, 3)) == 10
