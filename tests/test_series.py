"""Monomial valuations on finite supports, checked against brute force."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import skelkit as sk


def brute_val(exponents, weights):
    return min(sum(w * b for w, b in zip(weights, beta)) for beta in exponents)


@st.composite
def support_with_alpha(draw, max_rank=4):
    r = draw(st.integers(1, max_rank))
    verts = tuple(f"D{i}" for i in range(r))
    vec = st.tuples(*[st.integers(0, 6)] * r)
    exps = draw(st.frozensets(vec, min_size=1, max_size=12))
    alpha = {
        v: Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 8))) for v in verts
    }
    if not any(alpha.values()):
        alpha[verts[0]] = Fraction(1, 2)
    return sk.Support("s", verts, exps), sk.AlphaVector("s", alpha)


@st.composite
def support_pair_with_alpha(draw):
    s1, a = draw(support_with_alpha())
    vec = st.tuples(*[st.integers(0, 6)] * len(s1.vertices))
    exps = draw(st.frozensets(vec, min_size=1, max_size=12))
    return s1, sk.Support("s", s1.vertices, exps), a


@given(support_with_alpha())
def test_val_matches_brute_force(sa):
    s, a = sa
    weights = [a.alpha[v] for v in s.vertices]
    assert sk.val(s, a) == brute_val(s.exponents, weights)


@given(support_pair_with_alpha())
def test_product_additivity(ssa):
    # the support of f*g is the Minkowski sum of the supports
    s1, s2, a = ssa
    prod = sk.Support(
        s1.stratum,
        s1.vertices,
        frozenset(
            tuple(x + y for x, y in zip(b1, b2))
            for b1 in s1.exponents
            for b2 in s2.exponents
        ),
    )
    assert sk.val(prod, a) == sk.val(s1, a) + sk.val(s2, a)


@given(support_pair_with_alpha())
def test_sum_takes_minimum(ssa):
    # with generic coefficients the support of f+g is the union of the supports
    s1, s2, a = ssa
    union = sk.Support(s1.stratum, s1.vertices, s1.exponents | s2.exponents)
    assert sk.val(union, a) == min(sk.val(s1, a), sk.val(s2, a))


@given(support_with_alpha())
def test_reduction_preserves_val(sa):
    s, a = sa
    reduced = sk.reduce_support(s)
    assert reduced.exponents <= s.exponents
    assert sk.val(reduced, a) == sk.val(s, a)
    # the survivors form an antichain under coordinatewise dominance
    for beta in reduced.exponents:
        for other in reduced.exponents:
            if other != beta:
                assert not all(x <= y for x, y in zip(other, beta))


def test_support_validation():
    with pytest.raises(sk.DomainError):
        sk.Support("s", ("A",), frozenset())
    with pytest.raises(sk.DomainError):
        sk.Support("s", ("A",), frozenset({(1, 2)}))
    with pytest.raises(sk.DomainError):
        sk.Support("s", ("A",), frozenset({(-1,)}))
    with pytest.raises(sk.DomainError):
        sk.Support("s", ("A", "B"), frozenset({(Fraction(1, 2), 0)}))


def test_alpha_validation():
    with pytest.raises(sk.DomainError):
        sk.AlphaVector("s", {"A": Fraction(-1)})
    with pytest.raises(sk.DomainError):
        sk.AlphaVector("s", {"A": Fraction(0)})


def test_mismatched_strata_rejected():
    s1 = sk.Support("s", ("A",), frozenset({(1,)}))
    s2 = sk.Support("t", ("A",), frozenset({(1,)}))
    a = sk.AlphaVector("s", {"A": Fraction(1)})
    with pytest.raises(sk.DomainError):
        sk.val(s2, a)
    with pytest.raises(sk.DomainError):
        sk.SeriesPair(s1, s2)


def test_uniformizer_normalization_example():
    # the uniformizer on an edge with multiplicities (2, 3) has support {(2, 3)}
    s = sk.Support("e", ("A", "B"), frozenset({(2, 3)}))
    a = sk.AlphaVector("e", {"A": Fraction(1, 4), "B": Fraction(1, 6)})
    assert sk.val(s, a) == 1
