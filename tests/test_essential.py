"""Minimal-weight skeleta, form overlays, connectivity."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import skelkit as sk
from conftest import random_complex_model, random_graph_model, random_point


def test_subcomplex_requires_face_closure(bundled):
    m = bundled["edge_23"]
    with pytest.raises(sk.DomainError):
        sk.subcomplex(m, ["e_A_B", "v_A"])  # v_B missing
    sub = sk.subcomplex(m, ["e_A_B", "v_A", "v_B"])
    assert "e_A_B" in sub and not sub.empty
    assert sk.subcomplex(m, []).empty


def test_min_weight_on_bundled(bundled):
    for model in bundled.values():
        expected = min(F(c.mu, c.N) for c in model.components)
        assert sk.min_weight(model) == expected
    assert sk.min_weight(bundled["cusp"]) == F(5, 6)
    assert sk.min_weight(bundled["kodaira_IIstar"]) == F(1, 6)


def test_min_weight_rejects_poles(bundled):
    m = bundled["edge_23"]
    form = sk.FormData(1, {"A": 1, "B": 1}, touches_pole={"v_A": True, "e_A_B": True})
    with pytest.raises(sk.DomainError):
        sk.min_weight(m, form)
    with pytest.raises(sk.DomainError):
        sk.ks_skeleton(m, form)


def test_ks_skeleton_shapes(bundled):
    assert sk.ks_skeleton(bundled["kodaira_I0star"]).strata == frozenset({"v_C"})
    assert sk.ks_skeleton(bundled["kodaira_I2star"]).strata == frozenset(
        {"v_C1", "v_C2", "v_C3", "e_C1_C2", "e_C2_C3"}
    )
    i5 = bundled["kodaira_I5"]
    assert sk.ks_skeleton(i5).strata == frozenset(s.id for s in i5.strata)
    assert sk.ks_skeleton(bundled["kodaira_II"]).strata == frozenset({"v_E3"})


def test_zero_flags_carve_out_strata(bundled):
    m = bundled["edge_23"]
    # minimum sits at B (1/3 < 1/2); flagging its vertex empties the skeleton
    form = sk.FormData(1, {"A": 1, "B": 1}, touches_zero={"v_B": True, "e_A_B": True})
    sub = sk.ks_skeleton(m, form)
    assert sub.empty
    assert sk.is_connected(m, sub) is False


def test_apply_form_checks(bundled):
    m = bundled["edge_23"]
    with pytest.raises(sk.DomainError):
        sk.apply_form(m, sk.FormData(0, {"A": 1, "B": 1}))
    with pytest.raises(sk.DomainError):
        sk.apply_form(m, sk.FormData(1, {"A": 1}))
    # ids the model lacks are typos, not data to ignore
    with pytest.raises(sk.DomainError, match=r"unknown components \['C'\]"):
        sk.apply_form(m, sk.FormData(1, {"A": 1, "B": 1, "C": 1}))
    with pytest.raises(sk.DomainError, match=r"unknown strata \['v_b'\]"):
        sk.apply_form(m, sk.FormData(1, {"A": 1, "B": 1}, touches_pole={"v_b": False}))
    # a zero flag on a vertex alone breaks monotonicity on the edge
    with pytest.raises(sk.DomainError):
        sk.apply_form(m, sk.FormData(1, {"A": 1, "B": 1}, touches_zero={"v_A": True}))
    out = sk.apply_form(m, sk.FormData(2, {"A": 5, "B": 4}))
    assert out.m == 2
    assert out.component("A").mu == 5
    assert sk.min_weight(out) == F(4, 3)


def test_apply_form_drops_expansions():
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
    out = sk.apply_form(m, sk.FormData(1, {"A": 2, "B": 3}))
    assert out.stratum("e").horizontal is None


def test_essential_skeleton_union(bundled):
    m = bundled["edge_23"]
    low_a = sk.FormData(1, {"A": 1, "B": 5})
    low_b = sk.FormData(1, {"A": 3, "B": 4})
    union = sk.essential_skeleton(m, [low_a, low_b])
    assert union.strata == frozenset({"v_A", "v_B"})
    assert sk.is_connected(m, union) is False
    with pytest.raises(sk.DomainError):
        sk.essential_skeleton(m, [])


def test_essential_skeleton_can_grow_to_an_edge(bundled):
    m = bundled["edge_23"]
    # mu proportional to N puts the whole edge at the minimum
    flat = sk.FormData(1, {"A": 2, "B": 3})
    sub = sk.essential_skeleton(m, [flat])
    assert sub.strata == frozenset({"v_A", "v_B", "e_A_B"})
    assert sk.is_connected(m, sub) is True


def test_is_connected_on_pieces(bundled):
    m = bundled["kodaira_I2star"]
    assert sk.is_connected(m, sk.subcomplex(m, ["v_T1"]))
    assert not sk.is_connected(m, sk.subcomplex(m, ["v_T1", "v_T2"]))
    assert sk.is_connected(m, sk.ks_skeleton(m))


def _expansion_model(rng):
    """A random model with m = 1, mu = k * N on most components, and on 1-2 cells
    expansion data with the per-vertex minima mu - m that validate asks for: a
    monomial, a numerator that bends (more than one minimal exponent) or a
    denominator that bends.  Returns the model and each cell's kind of data."""
    model = (random_graph_model if rng.random() < 0.5 else random_complex_model)(rng)
    k = rng.randint(1, 2)
    comps = [c.replace(mu=k * c.N + (rng.random() < 0.2)) for c in model.components]
    mu = {c.id: c.mu for c in comps}
    cells = [s for s in model.strata if s.r >= 2]
    kinds = {s.id: rng.choice(["monomial", "num", "den"])
             for s in rng.sample(cells, min(len(cells), rng.randint(1, 2)))}
    strata = []
    for s in model.strata:
        if s.id in kinds:
            base, r = tuple(mu[v] - 1 for v in s.vertices), s.r
            units = frozenset(tuple(int(i == j) for j in range(r)) for i in range(r))
            num = {tuple(b + u for b, u in zip(base, unit)) for unit in units}
            num, den = {"monomial": ({base}, {(0,) * r}), "num": (num, {(0,) * r}),
                        "den": ({base}, units)}[kinds[s.id]]
            s = s.replace(horizontal=sk.SeriesPair(
                sk.Support(s.id, s.vertices, num), sk.Support(s.id, s.vertices, den)))
        strata.append(s)
    return sk.SncdModel(model.kind, 1, model.ambient_dim, comps, strata), kinds


def _outcome(fn):
    try:
        return fn()
    except sk.DomainError as exc:
        return ("DomainError", str(exc))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_skeleton_of_expansion_models_holds_the_minimum(rng):
    # a bending numerator keeps its cell and the cell's cofaces off the skeleton,
    # and a bending denominator is a pole, as the flags would say
    model, kinds = _expansion_model(rng)
    assert sk.validate(model).ok
    shapes = {"monomial": sk.CLASS_AFFINE, "num": sk.CLASS_CONCAVE, "den": sk.CLASS_CONVEX}
    assert {sid: sk.classify_face(model, sid) for sid in kinds} == {
        sid: shapes[kind] for sid, kind in kinds.items()}
    for query in (sk.min_weight, sk.ks_skeleton):  # the model's own form reads the same
        assert _outcome(lambda: query(model)) == _outcome(lambda: query(model, model._form))
    if "den" in kinds.values():
        with pytest.raises(sk.DomainError, match="poles"):
            sk.min_weight(model)
        return
    lo, sub = sk.min_weight(model), sk.ks_skeleton(model)
    sk.subcomplex(model, sub.strata)  # face-closed
    for s in model.strata:
        w = sk.weight(model, random_point(rng, model, s.id))
        assert w >= lo
        assert s.id not in sub or w == lo, s.id
