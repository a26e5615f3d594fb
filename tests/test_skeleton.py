"""Skeleton points: coordinates, retraction, weights, face classes."""

import random
from fractions import Fraction as F

import pytest

import skelkit as sk
from conftest import random_barycentric, random_point


def test_embed_and_back(bundled):
    rng = random.Random(7)
    for model in bundled.values():
        for s in model.strata:
            for _ in range(5):
                b = random_barycentric(rng, model, s.id)
                x = sk.embed(model, b)
                sk.check_point(model, x)
                assert sk.to_barycentric(model, x) == b


def test_embed_rejects_bad_coordinates(bundled):
    m = bundled["edge_23"]
    with pytest.raises(sk.DomainError):
        sk.embed(m, sk.BarycentricPoint("e_A_B", {"A": F(1)}))
    with pytest.raises(sk.DomainError):
        sk.embed(m, sk.BarycentricPoint("e_A_B", {"A": F(1, 2), "B": F(1, 3)}))
    with pytest.raises(sk.DomainError):
        sk.embed(m, sk.BarycentricPoint("e_A_B", {"A": F(3, 2), "B": F(-1, 2)}))


def test_the_package_exports_every_public_name():
    assert "Support" in sk.__all__
    for name in sk.__all__:
        assert not isinstance(getattr(sk, name), type(sk)), name
    namespace = {}
    exec("from skelkit import *", namespace)
    assert namespace["Support"] is sk.Support
    assert sk.SkeletonPoint is sk.AlphaVector is sk.QuasiMonomialPoint


def test_check_point_reports_the_total(bundled):
    m = bundled["edge_23"]
    with pytest.raises(sk.DomainError) as err:
        sk.check_point(m, sk.SkeletonPoint("e_A_B", {"A": F(1, 4), "B": F(1, 4)}))
    assert "5/4" in str(err.value)
    with pytest.raises(sk.DomainError):
        sk.check_point(m, sk.SkeletonPoint("e_A_B", {"A": F(1, 2), "B": F(0)}))


def test_retract_interior_and_boundary(bundled):
    m = bundled["edge_23"]
    inside = sk.retract(m, sk.PointSpec("e_A_B", {"A": F(1, 4), "B": F(1, 6)}))
    assert inside.stratum == "e_A_B"
    assert inside.alpha == {"A": F(1, 4), "B": F(1, 6)}
    corner = sk.retract(m, sk.PointSpec("e_A_B", {"A": F(1, 2), "B": F(0)}))
    assert corner.stratum == "v_A"
    assert corner.alpha == {"A": F(1, 2)}
    with pytest.raises(sk.DomainError):
        sk.retract(m, sk.PointSpec("e_A_B", {"A": F(1, 2), "B": F(-1, 3)}))
    with pytest.raises(sk.DomainError):
        sk.retract(m, sk.PointSpec("e_A_B", {"A": F(1, 2), "B": F(1, 3)}))


def test_retract_lands_on_correct_face_of_triangle():
    comps = [("A", "A", 1, 1), ("B", "B", 2, 1), ("C", "C", 3, 2)]
    m = sk.full_complex_model(sk.KIND_SNCD, 1, comps, [["A", "B", "C"]])
    x = sk.retract(m, sk.PointSpec("s_A_B_C", {"A": F(1, 3), "B": F(1, 3), "C": 0}))
    assert x.stratum == "s_A_B"
    y = sk.retract(m, sk.PointSpec("s_A_B_C", {"A": 0, "B": 0, "C": F(1, 3)}))
    assert y.stratum == "s_C"


def test_weight_on_edge(bundled):
    m = bundled["edge_23"]
    x = sk.SkeletonPoint("e_A_B", {"A": F(1, 4), "B": F(1, 6)})
    assert sk.weight(m, x) == F(5, 12)
    assert sk.weight(m, sk.embed(m, sk.BarycentricPoint("v_A", {"A": 1}))) == F(1, 2)


def test_weight_at_vertices_is_mu_over_n(bundled):
    for model in bundled.values():
        for c in model.components:
            v = model.singleton(c.id)
            x = sk.SkeletonPoint(v.id, {c.id: F(1, c.N)})
            assert sk.weight(model, x) == F(c.mu, c.N)


def monomial_horizontal_edge():
    """mu = (3, 2), m = 1 carried by an explicitly monomial expansion."""
    comps = (sk.PrimeComponent("A", "A", 2, 3), sk.PrimeComponent("B", "B", 3, 2))
    pair = sk.SeriesPair(
        sk.Support("e", ("A", "B"), frozenset({(2, 1)})),
        sk.Support("e", ("A", "B"), frozenset({(0, 0)})),
    )
    strata = (
        sk.Stratum("v_A", ("A",)),
        sk.Stratum("v_B", ("B",)),
        sk.Stratum("e", ("A", "B"), {"A": "v_B", "B": "v_A"}, False, False, pair),
    )
    return sk.SncdModel(sk.KIND_SNCD, 1, 2, comps, strata)


def test_monomial_expansion_agrees_with_plain_weights():
    m = monomial_horizontal_edge()
    assert sk.validate(m).ok
    plain = m.replace(
        strata=tuple(
            sk.Stratum(s.id, s.vertices, s.face_map) for s in m.strata
        )
    )
    rng = random.Random(3)
    for _ in range(25):
        x = random_point(rng, m, "e")
        assert sk.weight(m, x) == sk.weight(plain, x)


def test_nonmonomial_expansion_bends_the_weight():
    comps = (sk.PrimeComponent("A", "A", 2, 1), sk.PrimeComponent("B", "B", 3, 1))
    pair = sk.SeriesPair(
        sk.Support("e", ("A", "B"), frozenset({(2, 0), (0, 3)})),
        sk.Support("e", ("A", "B"), frozenset({(0, 0)})),
    )
    strata = (
        sk.Stratum("v_A", ("A",)),
        sk.Stratum("v_B", ("B",)),
        sk.Stratum("e", ("A", "B"), {"A": "v_B", "B": "v_A"}, False, False, pair),
    )
    m = sk.SncdModel(sk.KIND_SNCD, 1, 2, comps, strata)
    assert sk.validate(m).ok
    x = sk.SkeletonPoint("e", {"A": F(1, 4), "B": F(1, 6)})
    assert sk.weight(m, x) == F(11, 12)  # min(1/2, 1/2) + 1/4 + 1/6


def test_value_on_component(bundled):
    m = bundled["cusp"]
    x = sk.SkeletonPoint("e_E3_E1", {"E3": F(1, 12), "E1": F(1, 4)})
    assert sk.value_on_component(m, x, "E3") == F(1, 12)
    assert sk.value_on_component(m, x, "C") == 0
    with pytest.raises(sk.DomainError):
        sk.value_on_component(m, x, "nope")


def test_value_on_component_checks_the_coordinates(bundled):
    x = sk.SkeletonPoint("e_A_B", {"A": F(1, 2)})
    for cid in ("A", "B"):
        with pytest.raises(sk.DomainError, match=r"coordinates \['A'\] do not match"):
            sk.value_on_component(bundled["edge_23"], x, cid)


def test_classify_face():
    comps = (sk.PrimeComponent("A", "A", 1, 1),)
    cases = [
        ((False, False), sk.CLASS_AFFINE),
        ((True, False), sk.CLASS_CONCAVE),
        ((False, True), sk.CLASS_CONVEX),
        ((True, True), sk.CLASS_UNKNOWN),
    ]
    for (tz, tp), expected in cases:
        m = sk.SncdModel(
            sk.KIND_SNCD, 1, 2, comps, (sk.Stratum("v_A", ("A",), {}, tz, tp),)
        )
        assert sk.classify_face(m, "v_A") == expected
