"""Blow-ups: combinatorics, traces, point transfer, reduction."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import skelkit as sk
import subdivide_oracle
import transfer_oracle
from skelkit.model import _Complex
from skelkit.modify import _apply_step, _exc_ids, _reduction_length, _scaled, _subdivide
from skelkit.series import _antichain, _pullback
from conftest import (
    KODAIRA_NAMES, load_bundled, random_complex_model, random_graph_model, random_point,
    random_simplex_model,
)


def triangle(n=(1, 2, 3), mu=(1, 1, 2)):
    comps = [("A", "A", n[0], mu[0]), ("B", "B", n[1], mu[1]), ("C", "C", n[2], mu[2])]
    return sk.full_complex_model(sk.KIND_SNCD, 1, comps, [["A", "B", "C"]])


def test_blowup_edge(bundled):
    m = bundled["edge_23"]
    out, e, trace = sk.blowup_stratum(m, "e_A_B")
    c = out.component(e)
    assert (c.N, c.mu) == (5, 2)
    assert sk.validate(out).ok
    assert not out.has_stratum("e_A_B")
    ids = {s.id for s in out.strata}
    assert {"v_A", "v_B", f"v_{e}"} <= ids
    # the replaced edge became two edges through the new vertex
    assert trace.steps[0].replacements["e_A_B"] == {
        (): f"v_{e}",
        ("A",): f"f_{e}_A",
        ("B",): f"f_{e}_B",
    }
    assert trace.pullback == {"A": {"A": 1, e: 1}, "B": {"B": 1, e: 1}}


def test_blowup_bigon_keeps_the_parallel_edge(bundled):
    m = bundled["kodaira_I2"]
    out, e, _ = sk.blowup_stratum(m, "e_a")
    assert sk.validate(out).ok
    assert out.has_stratum("e_b")
    assert not out.has_stratum("e_a")
    assert out.component(e).N == 2


def test_blowup_triangle_builds_the_cone():
    m = triangle()
    out, e, _ = sk.blowup_stratum(m, "s_A_B_C")
    assert sk.validate(out).ok
    assert out.component(e).N == 6 and out.component(e).mu == 4
    expected_new = {
        f"v_{e}",
        f"f_{e}_A",
        f"f_{e}_B",
        f"f_{e}_C",
        f"f_{e}_A_B",
        f"f_{e}_A_C",
        f"f_{e}_B_C",
    }
    assert expected_new <= {s.id for s in out.strata}
    assert not out.has_stratum("s_A_B_C")
    # all proper faces of the old cell survive
    for sid in ["s_A_B", "s_A_C", "s_B_C", "s_A", "s_B", "s_C"]:
        assert out.has_stratum(sid)


def test_blowup_center_restrictions():
    m = triangle()
    with pytest.raises(sk.UnsupportedCenterError):
        sk.blowup_stratum(m, "s_A_B")  # not maximal
    with pytest.raises(sk.UnsupportedCenterError):
        sk.blowup_stratum(m, "s_A")  # a divisor is not a center
    single = sk.graph_model(sk.KIND_SNCD, 1, 2, [("A", "A", 1, 1)], [])
    with pytest.raises(sk.UnsupportedCenterError):
        sk.blowup_stratum(single, "v_A")


def test_blowup_point_restrictions():
    m = triangle()
    with pytest.raises(sk.UnsupportedCenterError):
        sk.blowup_point(m, "s_A_B", ("A",), 2)  # stratum not maximal
    with pytest.raises(sk.DomainError):
        sk.blowup_point(m, "s_A_B_C", ("X",), 2)  # unknown center component
    with pytest.raises(sk.DomainError):
        sk.blowup_point(m, "s_A_B_C", (), 2)
    with pytest.raises(sk.DomainError, match="'A,A' repeat a component"):
        sk.blowup_point(m, "s_A_B_C", ("A", "A"), 2)  # repeated center component
    with pytest.raises(sk.DomainError):
        sk.blowup_point(m, "s_A_B_C", ("A", "B"), 1)  # codim below |J|
    with pytest.raises(sk.DomainError):
        sk.blowup_point(m, "s_A_B_C", ("A",), 4)  # codim above ambient_dim
    with pytest.raises(sk.UnsupportedCenterError):
        # codim = |J| with J a proper face: that is a stratum blow-up of s_A_B
        sk.blowup_point(m, "s_A_B_C", ("A", "B"), 2)


def test_blowup_point_full_face_delegates():
    m = triangle()
    via_point, e1, _ = sk.blowup_point(m, "s_A_B_C", ("A", "B", "C"), 3)
    via_stratum, e2, _ = sk.blowup_stratum(m, "s_A_B_C")
    assert e1 == e2
    assert via_point == via_stratum


def test_blowup_point_adds_a_cone_and_removes_nothing():
    m = triangle()
    out, e, trace = sk.blowup_point(m, "s_A_B_C", ("A", "B"), 3)
    assert sk.validate(out).ok
    assert {s.id for s in m.strata} <= {s.id for s in out.strata}
    c = out.component(e)
    assert c.N == 1 + 2  # N_A + N_B
    assert c.mu == 1 + 1 + 1  # mu_A + mu_B + m * (3 - 2)
    assert trace.steps[0].replacements == {}
    new_ids = {s.id for s in out.strata} - {s.id for s in m.strata}
    # the cone reaches every subset of the center, the full center included,
    # because a generic codim-3 point center sits inside the curve A cap B
    assert new_ids == {f"v_{e}", f"f_{e}_A", f"f_{e}_B", f"f_{e}_A_B"}
    assert trace.steps[0].center_stratum == "s_A_B"


def test_a_point_cone_takes_the_flags_of_the_face_it_lies_over():
    # the cone lies over s_A_B, which stays off the zero locus of s_A_B_C
    m = triangle()
    m = m.replace(strata=tuple(
        s.replace(touches_zero=s.id == "s_A_B_C") for s in m.strata))
    assert sk.validate(m).ok
    out, e, _ = sk.blowup_point(m, "s_A_B_C", ("A", "B"), 3)
    assert sk.validate(out).ok
    new = [s.id for s in out.strata if e in s.vertices]
    assert len(new) == 4
    assert {sk.classify_face(out, sid) for sid in new} == {sk.CLASS_AFFINE}


def test_transfer_fixes_points_off_the_center(bundled):
    m = bundled["kodaira_I2"]
    out, _, trace = sk.blowup_stratum(m, "e_a")
    x = sk.SkeletonPoint("e_b", {"A": F(1, 3), "B": F(2, 3)})
    y = sk.transfer_point(m, out, trace, x)
    assert y == x
    assert sk.weight(out, y) == sk.weight(m, x)


def test_transfer_moves_center_points_and_keeps_invariants(bundled):
    m = bundled["edge_23"]
    out, e, trace = sk.blowup_stratum(m, "e_A_B")
    x = sk.SkeletonPoint("e_A_B", {"A": F(1, 4), "B": F(1, 6)})
    y = sk.transfer_point(m, out, trace, x)
    assert y.stratum == f"f_{e}_A"
    assert y.alpha == {e: F(1, 6), "A": F(1, 12)}
    assert sk.weight(out, y) == sk.weight(m, x) == F(5, 12)
    for cid in ("A", "B"):
        assert sk.pullback_value(out, trace, y, cid) == sk.value_on_component(m, x, cid)


def test_transfer_tie_goes_to_the_new_vertex(bundled):
    m = bundled["edge_23"]
    out, e, trace = sk.blowup_stratum(m, "e_A_B")
    x = sk.SkeletonPoint("e_A_B", {"A": F(1, 5), "B": F(1, 5)})
    y = sk.transfer_point(m, out, trace, x)
    assert y.stratum == f"v_{e}"
    assert y.alpha == {e: F(1, 5)}


def test_transfer_carries_coordinates_from_outside_the_center():
    m = triangle(n=(1, 2, 1), mu=(1, 1, 2))
    x = sk.SkeletonPoint("s_A_B", {"A": F(1, 3), "B": F(1, 3)})
    out, e, trace = sk.reduce_to_divisorial(m, x)
    assert e == "exc1" and len(trace.steps) == 1
    # the center is {A, B}; C's coordinate rides along unchanged
    x = sk.SkeletonPoint("s_A_B_C", {"A": F(1, 5), "B": F(1, 5), "C": F(2, 5)})
    y = sk.transfer_point(m, out, trace, x)
    assert y.stratum == f"f_{e}_C"
    assert y.alpha == {e: F(1, 5), "C": F(2, 5)}
    assert sk.weight(out, y) == sk.weight(m, x) == F(6, 5)
    for cid in ("A", "B", "C"):
        assert sk.pullback_value(out, trace, y, cid) == sk.value_on_component(m, x, cid)


def test_transfer_needs_the_right_target(bundled):
    m = bundled["edge_23"]
    _, _, trace = sk.blowup_stratum(m, "e_A_B")
    x = sk.SkeletonPoint("e_A_B", {"A": F(1, 4), "B": F(1, 6)})
    with pytest.raises(sk.DomainError):
        sk.transfer_point(m, m, trace, x)


def test_pullback_value_unknown_component(bundled):
    m = bundled["edge_23"]
    out, _, trace = sk.blowup_stratum(m, "e_A_B")
    y = sk.transfer_point(
        m, out, trace, sk.SkeletonPoint("e_A_B", {"A": F(1, 4), "B": F(1, 6)})
    )
    with pytest.raises(sk.DomainError):
        sk.pullback_value(out, trace, y, "ghost")


def horizontal_edge_model():
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
    return sk.SncdModel(sk.KIND_SNCD, 1, 2, comps, strata)


def test_blowup_carries_expansions_along():
    m = horizontal_edge_model()
    out, e, trace = sk.blowup_stratum(m, "e")
    assert sk.validate(out).ok
    c = out.component(e)
    # center order of the expansion replaces the sum of the vertex data
    assert (c.N, c.mu) == (5, 4)
    x = sk.SkeletonPoint("e", {"A": F(1, 4), "B": F(1, 6)})
    y = sk.transfer_point(m, out, trace, x)
    assert sk.weight(out, y) == sk.weight(m, x) == F(11, 12)
    rng = random.Random(11)
    for _ in range(25):
        x = random_point(rng, m, "e")
        y = sk.transfer_point(m, out, trace, x)
        assert sk.weight(out, y) == sk.weight(m, x)


def horizontal_triangle_model():
    comps = [("A", "A", 1, 1), ("B", "B", 1, 1), ("C", "C", 2, 1)]
    m = sk.full_complex_model(sk.KIND_SNCD, 1, comps, [["A", "B", "C"]])
    pair = sk.SeriesPair(
        sk.Support("s_A_B_C", ("A", "B", "C"), frozenset({(1, 0, 0), (0, 2, 0)})),
        sk.Support("s_A_B_C", ("A", "B", "C"), frozenset({(0, 0, 0)})),
    )
    return m.replace(
        strata=tuple(
            sk.Stratum(s.id, s.vertices, s.face_map, horizontal=pair)
            if s.id == "s_A_B_C"
            else s
            for s in m.strata
        )
    )


def test_a_point_blowup_pulls_expansions_back():
    m = horizontal_edge_model().replace(ambient_dim=3)
    out, e, trace = sk.blowup_point(m, "e", ("A", "B"), 3)
    assert sk.validate(out).ok
    c = out.component(e)
    # m * codim plus the center order of the expansion, 2 - 0
    assert (c.N, c.mu) == (5, 5)
    assert trace.steps[0].replacements == {}
    top = out.stratum(f"f_{e}_A_B")
    assert top.horizontal.num.exponents == {(4, 2, 0), (5, 0, 3)}
    # as alpha_e goes to 0 the cell's weight goes to the edge's, 11/12
    x = sk.SkeletonPoint(top.id, {e: F(1, 10**5), "A": F(1, 4) - F(1, 10**5),
                                  "B": F(1, 6) - F(1, 10**5)})
    assert sk.weight(out, x) == F(275003, 300000)
    assert sk.weight(m, sk.SkeletonPoint("e", {"A": F(1, 4), "B": F(1, 6)})) == F(11, 12)


def test_reduction_through_expansion_data_preserves_weight():
    m = horizontal_triangle_model()
    assert sk.validate(m).ok
    rng = random.Random(23)
    for _ in range(20):
        x = random_point(rng, m, "s_A_B_C")
        w = sk.weight(m, x)
        final, comp, trace = sk.reduce_to_divisorial(m, x)
        v = final.singleton(comp)
        y = sk.SkeletonPoint(v.id, {comp: F(1, final.component(comp).N)})
        assert sk.weight(final, y) == w
        for cid in ("A", "B", "C"):
            assert sk.pullback_value(final, trace, y, cid) == sk.value_on_component(
                m, x, cid
            )


def test_reduce_worked_examples(bundled):
    m = bundled["edge_23"]
    final, comp, trace = sk.reduce_to_divisorial(
        m, sk.SkeletonPoint("e_A_B", {"A": F(1, 5), "B": F(1, 5)})
    )
    c = final.component(comp)
    assert len(trace.steps) == 1 and (c.N, c.mu) == (5, 2)

    g = sk.graph_model(
        sk.KIND_SNCD, 1, 2, [("A", "A", 1, 1), ("B", "B", 1, 1)], [("e", "A", "B")]
    )
    final, comp, trace = sk.reduce_to_divisorial(
        g, sk.SkeletonPoint("e", {"A": F(1, 3), "B": F(2, 3)})
    )
    c = final.component(comp)
    assert len(trace.steps) == 2 and (c.N, c.mu) == (3, 3)


def test_reduce_hits_non_maximal_intermediate_strata():
    # the first subdivision of the triangle sends (1/8, 1/8, 3/8) to a
    # stratum that is a face of two new cells, so the next center is not
    # maximal; the reduction must keep going regardless
    m = triangle(n=(1, 1, 2), mu=(1, 1, 1))
    x = sk.SkeletonPoint("s_A_B_C", {"A": F(1, 8), "B": F(1, 8), "C": F(3, 8)})
    w = sk.weight(m, x)
    final, comp, trace = sk.reduce_to_divisorial(m, x)
    assert len(trace.steps) >= 2
    assert sk.validate(final).ok
    y = sk.SkeletonPoint(
        final.singleton(comp).id, {comp: F(1, final.component(comp).N)}
    )
    assert sk.weight(final, y) == w


def test_reduce_is_a_noop_on_vertices(bundled):
    m = bundled["edge_23"]
    x = sk.SkeletonPoint("v_A", {"A": F(1, 2)})
    final, comp, trace = sk.reduce_to_divisorial(m, x)
    assert final == m and comp == "A" and trace.steps == []


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduction_length_counts_the_blowups(rng):
    # small parts give ties and exact multiples, large ones long batches
    model = (random_complex_model if rng.random() < 0.6 else random_graph_model)(rng)
    s = rng.choice(model.strata)
    x = random_point(rng, model, s.id, max_part=rng.choice([2, 4, 9, 60]))
    _, _, trace = sk.reduce_to_divisorial(model, x)
    assert _reduction_length(x.alpha) == len(trace.steps)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_weight_jumps_over_a_point_center_on_expansion_simplices(rng):
    # a point x of the cone over the top cell lies over the cell's point with
    # coordinates x_j + x_e; the weight there is lower by m * x_e * (codim - r)
    model = random_simplex_model(rng, expansion=True)
    top = max(model.strata, key=lambda s: s.r)
    model = model.replace(ambient_dim=top.r + rng.randint(1, 2))
    codim = rng.randint(top.r + 1, model.ambient_dim)
    out, e, trace = sk.blowup_point(model, top.id, top.vertices, codim)
    assert sk.validate(out).ok
    for s in out.strata:
        if e not in s.vertices:
            continue
        x = random_point(rng, out, s.id, max_part=rng.choice([9, 60]))
        y = sk.SkeletonPoint(
            top.id, {j: sk.pullback_value(out, trace, x, j) for j in top.vertices})
        jump = model.m * x.alpha[e] * (codim - top.r)
        assert sk.weight(out, x) - sk.weight(model, y) == jump, (s.id, x)


KODAIRA_WITH_EDGES = [n for n in KODAIRA_NAMES if any(s.r > 1 for s in load_bundled(n).strata)]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduction_and_transfer_match_the_fraction_replay(rng):
    pick = rng.randrange(4)
    if pick == 0:
        model = load_bundled(rng.choice(KODAIRA_WITH_EDGES))
    else:
        model = (random_graph_model, random_complex_model, random_simplex_model)[pick - 1](rng)
    assert sk.validate(model).ok
    cell = rng.choice([s.id for s in model.strata if s.r >= 2])
    x = random_point(rng, model, cell, max_part=rng.choice([9, 60, 400]))
    final, comp, trace = sk.reduce_to_divisorial(model, x)
    ref_final, ref_comp, ref_trace = transfer_oracle.reduce_to_divisorial(model, x)
    assert comp == ref_comp and trace.to_json() == ref_trace.to_json()
    assert sk.serialize_model(final) == sk.serialize_model(ref_final)
    points = [x] + [random_point(rng, model, s.id, max_part=60) for s in model.strata]
    for y in points:
        got = sk.transfer_point(model, final, trace, y)
        want = transfer_oracle.transfer_point(model, final, trace, y)
        assert got.stratum == want.stratum and got.alpha == want.alpha, (y, got, want)
        assert all(type(a) is F for a in got.alpha.values())
    assert sk.transfer_point(model, final, trace, x).stratum == final.singleton(comp).id


def _with_taken_names(rng, model):
    """The model with 1-3 strata renamed to ids a blow-up would hand out, so that
    the new strata get ~k suffixes."""
    comps = [c.id for c in model.components]
    taken = [f"v_exc{k}" for k in (1, 2, 3)] + [
        f"f_exc{k}_{c}" for k in (1, 2) for c in comps
    ] + [f"f_exc1_{a}_{b}" for a, b in zip(comps, comps[1:])]
    names = dict(zip(rng.sample([s.id for s in model.strata], rng.randint(1, 3)),
                     rng.sample(taken, 3)))

    def rn(sid):
        return names.get(sid, sid)

    strata = []
    for s in model.strata:
        h = s.horizontal
        if h is not None:
            h = sk.SeriesPair(h.num.replace(stratum=rn(s.id)),
                              h.den.replace(stratum=rn(s.id)))
        fm = {v: rn(t) for v, t in s.face_map.items()}
        strata.append(s.replace(id=rn(s.id), face_map=fm, horizontal=h))
    return model.replace(strata=tuple(strata))


def _assert_pulled_back_records_are_checked(model):
    # the kernel builds pulled-back records unchecked; each must equal, and hash
    # like, the one the checking constructors build from the same fields
    for s in model._strata_by_id.values():
        if (h := s.horizontal) is not None:
            checked = sk.SeriesPair(*(sk.Support(f.stratum, f.vertices, f.exponents)
                                      for f in (h.num, h.den)))
            assert h == checked and hash(h) == hash(checked)
            assert sorted(h.num.vertices) == sorted(s.vertices)


def _assert_kernel_matches_the_reference(rng, model):
    """Reductions of random points and blow-ups of random maximal strata, step by
    step, on a working complex each: equal steps, models and coface indexes."""
    work, ref = _Complex(model), subdivide_oracle.Complex(model)
    exc_ids = _exc_ids(work)

    def step(sigma_id):
        e_id = next(exc_ids)
        got = _subdivide(work, sigma_id, e_id, work.stratum(sigma_id).r)
        assert got == subdivide_oracle._subdivide(ref, sigma_id, e_id)
        assert sk.serialize_model(work.freeze()) == sk.serialize_model(ref.freeze())
        assert work._coface_index == ref._coface_index
        _assert_pulled_back_records_are_checked(work)
        return got

    for _ in range(rng.randint(1, 3)):
        frozen = work.freeze()
        if rng.random() < 0.5:
            cell = rng.choice([s.id for s in frozen.strata if s.r >= 2])
            x = random_point(rng, frozen, cell, max_part=rng.choice([9, 30, 60]))
            sid, alpha = cell, _scaled(x.alpha)[1]
            while work.stratum(sid).r > 1:
                sid, alpha = _apply_step(step(sid), sid, alpha)
        else:
            step(rng.choice([s.id for s in frozen.strata
                             if s.r >= 2 and sk.is_maximal(frozen, s.id)]))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_subdivide_matches_the_face_walk_reference(rng):
    pick = rng.randrange(4)
    if pick == 0:
        model = load_bundled(rng.choice(KODAIRA_WITH_EDGES))
    else:
        model = (random_graph_model, random_complex_model, random_simplex_model)[pick - 1](rng)
    if rng.random() < 0.5:
        model = _with_taken_names(rng, model)
    assert sk.validate(model).ok
    _assert_kernel_matches_the_reference(rng, model)


def _simplex_with_a_general_den(rng):
    """A valid full simplex whose top cell's den has 2-4 exponents, two of them
    nonzero and incomparable, and whose num has its per-vertex minima at den's
    plus mu - m."""
    r, m = rng.randint(2, 4), rng.randint(1, 2)
    names = "ABCD"[:r]
    comps = [(v, v, rng.randint(1, 4), rng.randint(m, m + 3)) for v in names]
    model = sk.full_complex_model(sk.KIND_SNCD, m, comps, [list(names)])
    top = max(model.strata, key=lambda s: s.r)
    low, i = [rng.randint(1, 3) for _ in names], rng.randrange(r)
    den = {tuple(d + (j == k) for j, d in enumerate(low)) for k in (i, (i + 1) % r)}
    den |= {tuple(rng.randint(0, 3) for _ in names) for _ in range(rng.randint(0, 2))}
    base = [min(d[j] for d in den) + mu - m for j, (*_, mu) in enumerate(comps)]
    num = {tuple(b + (i == j) for j, b in enumerate(base)) for i in range(r)}
    num |= {tuple(b + rng.randint(0, 3) for b in base) for _ in range(rng.randint(0, 3))}
    pair = sk.SeriesPair(sk.Support(top.id, top.vertices, frozenset(num)),
                         sk.Support(top.id, top.vertices, frozenset(den)))
    return model.replace(strata=tuple(
        s.replace(horizontal=pair) if s is top else s for s in model.strata))


def _permuted_expansions(rng, model):
    """The model with each expansion written in a shuffled vertex order."""
    strata = []
    for s in model.strata:
        h = s.horizontal
        if h is not None:
            order = rng.sample(range(s.r), s.r)

            def shuffled(f):
                return sk.Support(f.stratum, tuple(f.vertices[i] for i in order),
                                  frozenset(tuple(b[i] for i in order) for b in f.exponents))

            h = sk.SeriesPair(shuffled(h.num), shuffled(h.den))
        strata.append(s.replace(horizontal=h))
    return model.replace(strata=tuple(strata))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_kernel_pulls_back_a_general_den_as_the_reference_does(rng):
    # every den the other draws make is all zero; here den has several
    # exponents, and half the expansions are written in a permuted order
    model = _simplex_with_a_general_den(rng)
    assert sk.validate(model).ok
    if rng.random() < 0.5:
        model = _permuted_expansions(rng, model)
    _assert_kernel_matches_the_reference(rng, model)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12)))
def test_antichain_matches_the_earlier_antichain(exponents):
    # repeated vectors included; both as drawn and as a set
    exponents += exponents[: len(exponents) // 2]
    for given_as in (exponents, frozenset(exponents)):
        assert _antichain(given_as) == subdivide_oracle._antichain(given_as)


def _with_expansion(m, sid, vertices, exponent):
    pair = sk.SeriesPair(sk.Support(sid, vertices, frozenset({exponent})),
                         sk.Support(sid, vertices, frozenset({(0,) * len(vertices)})))
    return m.replace(strata=tuple(
        s.replace(horizontal=pair) if s.id == sid else s for s in m.strata))


def _expansion_edge(vertices, exponent):
    m = sk.graph_model(sk.KIND_SNCD, 1, 3, [("A", "A", 1, 1), ("B", "B", 1, 1)],
                       [("e", "A", "B")])
    return _with_expansion(m, "e", vertices, exponent)


@pytest.mark.parametrize("vertices, exponent", [
    (("A", "B", "C"), (0, 0, 1)), (("A",), (1,)), (("A", "A"), (1, 0)),
])
def test_an_expansion_on_other_vertices_is_a_domain_error(vertices, exponent):
    m = _expansion_edge(vertices, exponent)
    x = sk.SkeletonPoint("e", {"A": F(5, 7), "B": F(2, 7)})
    for call in (lambda: sk.blowup_stratum(m, "e"),
                 lambda: sk.blowup_point(m, "e", ("A", "B"), 3),
                 lambda: sk.reduce_to_divisorial(m, x)):
        with pytest.raises(sk.DomainError, match="stratum 'e' has its expansion on other vertices"):
            call()


def test_an_expansion_on_other_vertices_of_a_coface_is_a_domain_error():
    # reducing a point on an edge blows the edge up and subdivides the triangle
    # above it, so an extra vertex D on the triangle's expansion is refused, not dropped
    x = sk.SkeletonPoint("s_A_B", {"A": F(1, 3), "B": F(1, 3)})
    sk.reduce_to_divisorial(_with_expansion(triangle(), "s_A_B_C", ("C", "B", "A"), (1, 0, 0)), x)
    m = _with_expansion(triangle(), "s_A_B_C", ("A", "B", "C", "D"), (0, 0, 0, 1))
    with pytest.raises(sk.DomainError, match="stratum 's_A_B_C' has its expansion on other vertices"):
        sk.reduce_to_divisorial(m, x)


def test_an_expansion_in_a_permuted_order_is_pulled_back():
    # the same expansion written on (B, A) instead of (A, B) gives the same models
    m, p = _expansion_edge(("A", "B"), (2, 1)), _expansion_edge(("B", "A"), (1, 2))
    x = sk.SkeletonPoint("e", {"A": F(5, 7), "B": F(2, 7)})
    for call in (lambda n: sk.blowup_stratum(n, "e"),
                 lambda n: sk.blowup_point(n, "e", ("A", "B"), 3),
                 lambda n: sk.reduce_to_divisorial(n, x)):
        (out, e, _), (alt, e_alt, _) = call(m), call(p)
        assert e == e_alt and out.components == alt.components
        for s in out.strata:
            h, g = s.horizontal, alt.stratum(s.id).horizontal
            assert (h is None) == (g is None)
            if h is not None:
                pos = [g.num.vertices.index(v) for v in h.num.vertices]
                for f, k in ((h.num, g.num), (h.den, g.den)):
                    assert f.exponents == {tuple(b[i] for i in pos) for b in k.exponents}


def test_reduction_builds_no_checked_support(monkeypatch):
    # pulled-back records hold their invariants by construction, so a long
    # reduction through an expansion triangle runs no Support or SeriesPair check
    comps = [("A", "A", 2, 2), ("B", "B", 1, 2), ("C", "C", 2, 3)]
    m = sk.full_complex_model(sk.KIND_SNCD, 1, comps, [["A", "B", "C"]])
    num = frozenset({(2, 1, 2), (1, 2, 2), (1, 1, 3)})
    pair = sk.SeriesPair(sk.Support("s_A_B_C", ("A", "B", "C"), num),
                         sk.Support("s_A_B_C", ("A", "B", "C"), frozenset({(0, 0, 0)})))
    m = m.replace(strata=tuple(
        s.replace(horizontal=pair) if s.id == "s_A_B_C" else s
        for s in m.strata))
    assert sk.validate(m).ok
    total = 2 * 1 + 1 * 7 + 2 * 150
    x = sk.SkeletonPoint("s_A_B_C", {"A": F(1, total), "B": F(7, total), "C": F(150, total)})
    calls = []
    for record in (sk.Support, sk.SeriesPair):
        check = record.__init__

        def counted(self, *args, check=check, **kwargs):
            calls.append(type(self).__name__)
            check(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counted)
    final, _, trace = sk.reduce_to_divisorial(m, x)
    assert len(trace.steps) >= 100
    assert sum(s.horizontal is not None for s in final.strata) >= 100
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blowup_point_matches_the_cone_builder_reference(rng):
    # without flags or expansions the kernel's cone is the one the earlier
    # builder glued on; only the step's center moves, to the face it lies over
    pick = rng.randrange(3)
    if pick == 0:
        model = load_bundled(rng.choice(KODAIRA_WITH_EDGES))
    else:
        model = (random_graph_model, random_complex_model)[pick - 1](rng)
    model = model.replace(ambient_dim=model.ambient_dim + rng.randint(0, 1))
    if rng.random() < 0.5:
        model = _with_taken_names(rng, model)
    assert sk.validate(model).ok
    s = rng.choice([s for s in model.strata if sk.is_maximal(model, s.id)])
    J = tuple(rng.sample(s.vertices, rng.randint(1, min(s.r, model.ambient_dim - 1))))
    codim = rng.randint(len(J) + 1, model.ambient_dim)
    out, e, trace = sk.blowup_point(model, s.id, J, codim)
    ref_out, ref_e, ref_trace = subdivide_oracle.blowup_point(model, s.id, J, codim)
    assert e == ref_e and out == ref_out
    assert sk.serialize_model(out) == sk.serialize_model(ref_out)
    step = trace.steps[0]
    assert step.replacements == {}
    assert step.center_stratum == sk.face(model, s.id, J)
    assert step == ref_trace.steps[0].replace(center_stratum=step.center_stratum)
    assert trace.pullback == ref_trace.pullback


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_transform_support_is_the_reduced_lift(rng):
    # num and den, the den all zero a third of the time, each pulled back onto
    # a new stratum equal to the brute-force lift, reduced, checked when built
    vertices = tuple(rng.sample("ABCD", rng.randint(2, 4)))

    def draw():
        return frozenset(
            tuple(rng.randint(0, 4) for _ in vertices) for _ in range(rng.randint(1, 8))
        )

    num = draw()
    den = frozenset({(0,) * len(vertices)}) if rng.random() < 1 / 3 else draw()
    chosen = rng.sample(vertices, rng.randint(2, len(vertices)))
    center = tuple(v for v in vertices if v in chosen)
    kept = set(rng.sample(center, rng.randint(0, len(center) - 1)))
    kept |= set(vertices) - set(center)
    new_vertices = ("e",) + tuple(v for v in vertices if v in kept)
    jacobian = rng.randint(0, 6)
    pos = {v: i for i, v in enumerate(vertices)}

    def lift(exponents, shift):
        return {
            tuple(sum(beta[pos[j]] for j in center) + shift if v == "e" else beta[pos[v]]
                  for v in new_vertices)
            for beta in exponents
        }

    pair = sk.SeriesPair(sk.Support("t", vertices, num), sk.Support("t", vertices, den))
    got = _pullback(pair, [pos[j] for j in center], jacobian)(
        "u", new_vertices, [pos[v] for v in new_vertices[1:]])
    for side, exponents, shift in ((got.num, num, jacobian), (got.den, den, 0)):
        lifted = lift(exponents, shift)
        assert side == sk.reduce_support(sk.Support("u", new_vertices, lifted))
        assert side.exponents == {
            b for b in lifted
            if not any(o != b and all(p <= q for p, q in zip(o, b)) for o in lifted)
        }
    assert got == sk.SeriesPair(got.num, got.den)


def test_transfer_point_rejects_a_trace_of_another_model():
    def edge(a, b):
        return sk.graph_model(sk.KIND_SNCD, 1, 2, [(a, a, 1, 1), (b, b, 1, 1)], [("e", a, b)])

    out, _, trace = sk.blowup_stratum(edge("A", "B"), "e")
    x = sk.SkeletonPoint("e", {"C": F(1, 2), "D": F(1, 2)})
    with pytest.raises(sk.DomainError, match="trace does not start at the given source model"):
        sk.transfer_point(edge("C", "D"), out, trace, x)


def test_trace_serializes_to_json(bundled):
    m = bundled["edge_23"]
    _, _, trace = sk.reduce_to_divisorial(
        m, sk.SkeletonPoint("e_A_B", {"A": F(1, 4), "B": F(1, 6)})
    )
    doc = json.dumps(trace.to_json())
    assert "pullback" in doc and "steps" in doc


def test_fresh_ids_avoid_collisions():
    # a component literally named exc1 must not clash with the new vertex
    comps = [("exc1", "x", 2, 1), ("B", "B", 3, 1)]
    m = sk.graph_model(sk.KIND_SNCD, 1, 2, comps, [("e", "exc1", "B")])
    out, e, _ = sk.blowup_stratum(m, "e")
    assert e == "exc2"
    assert sk.validate(out).ok


def test_new_strata_names_avoid_taken_ids():
    # an edge already holds the name the new vertex's singleton stratum would get
    comps = [("A", "A", 1, 1), ("B", "B", 2, 1), ("C", "C", 1, 2)]
    m = sk.graph_model(sk.KIND_SNCD, 1, 2, comps, [("v_exc1", "A", "B"), ("e_B_C", "B", "C")])
    assert sk.validate(m).ok
    out, e, trace = sk.blowup_stratum(m, "e_B_C")
    assert e == "exc1"
    assert trace.steps[0].replacements["e_B_C"][()] == "v_exc1~2"
    assert out.singleton(e).id == "v_exc1~2" and out.stratum("v_exc1").vertices == ("A", "B")
    assert sk.validate(out).ok
