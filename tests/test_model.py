"""Structure of models: faces, maximality, connectivity, validation."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import skelkit as sk
from skelkit.model import Violation
from conftest import random_complex_model, random_graph_model


def triangle():
    comps = [("A", "A", 1, 1), ("B", "B", 2, 1), ("C", "C", 3, 2)]
    return sk.full_complex_model(sk.KIND_SNCD, 1, comps, [["A", "B", "C"]])


def test_canonical_ordering():
    comps = (
        sk.PrimeComponent("B", "B", 1, 1),
        sk.PrimeComponent("A", "A", 1, 1),
    )
    strata = (
        sk.Stratum("v_B", ("B",)),
        sk.Stratum("v_A", ("A",)),
    )
    m = sk.SncdModel(sk.KIND_SNCD, 1, 2, comps, strata)
    assert [c.id for c in m.components] == ["A", "B"]
    assert [s.id for s in m.strata] == ["v_A", "v_B"]
    reordered = sk.SncdModel(sk.KIND_SNCD, 1, 2, comps[::-1], strata[::-1])
    assert m == reordered


def test_lookup_errors():
    m = triangle()
    with pytest.raises(sk.DomainError):
        m.component("nope")
    with pytest.raises(sk.DomainError):
        m.stratum("nope")
    assert m.singleton("A").id == "s_A"
    with pytest.raises(sk.DomainError):
        m.singleton("nope")


def test_face_walks():
    m = triangle()
    assert sk.face(m, "s_A_B_C", ["A", "B"]) == "s_A_B"
    assert sk.face(m, "s_A_B_C", ["C"]) == "s_C"
    assert sk.face(m, "s_A_B_C", ["A", "B", "C"]) == "s_A_B_C"
    with pytest.raises(sk.DomainError):
        sk.face(m, "s_A_B_C", [])
    with pytest.raises(sk.DomainError):
        sk.face(m, "s_A_B", ["C"])
    # a stratum whose face map lacks a vertex has no face without it
    bare = m.replace(strata=tuple(
        sk.Stratum(s.id, s.vertices) if s.id == "s_A_B_C" else s for s in m.strata
    ))
    with pytest.raises(sk.DomainError, match="no face map for vertex"):
        sk.face(bare, "s_A_B_C", ["A", "B"])


def test_is_face_and_cofaces():
    m = triangle()
    assert sk.is_face(m, "s_A", "s_A_B_C")
    assert sk.is_face(m, "s_A_B", "s_A_B")
    assert not sk.is_face(m, "s_A_B_C", "s_A_B")
    assert sk.cofaces(m, "s_A_B") == ["s_A_B", "s_A_B_C"]
    assert sk.is_maximal(m, "s_A_B_C")
    assert not sk.is_maximal(m, "s_A_B")


def test_parallel_edges_are_distinct_cofaces(bundled):
    m = bundled["kodaira_I2"]
    assert sorted(sk.cofaces(m, "v_A")) == ["e_a", "e_b", "v_A"]
    assert sk.is_face(m, "v_A", "e_a") and sk.is_face(m, "v_A", "e_b")
    assert not sk.is_face(m, "e_a", "e_b")


def test_connected_components():
    comps = [(x, x, 1, 1) for x in "ABCD"]
    edges = [("e_A_B", "A", "B"), ("e_C_D", "C", "D")]
    m = sk.graph_model(sk.KIND_SNCD, 1, 2, comps, edges)
    blocks = sk.connected_components(m, [s.id for s in m.strata])
    assert blocks == [
        frozenset({"e_A_B", "v_A", "v_B"}),
        frozenset({"e_C_D", "v_C", "v_D"}),
    ]
    # a subset missing the joining edge falls apart
    assert len(sk.connected_components(m, ["v_A", "v_B"])) == 2
    # an edge without one of its vertices is not face-closed
    with pytest.raises(sk.DomainError, match="not face-closed"):
        sk.connected_components(m, ["e_A_B", "v_A"])


def _iterated_faces(model, sid):
    s = model.stratum(sid)
    for k in range(1, s.r + 1):
        for keep in combinations(s.vertices, k):
            yield sk.face(model, sid, keep)


def components_by_subsets(model, ids):
    """Oracle: join each stratum to every iterated face of it in the input,
    found by walking all 2^r vertex subsets."""
    ids = list(dict.fromkeys(ids))
    block = {sid: {sid} for sid in ids}
    for sid in ids:
        for fid in _iterated_faces(model, sid):
            if fid in block and block[fid] is not block[sid]:
                merged = block[sid] | block[fid]
                for x in merged:
                    block[x] = merged
    unique = {id(b): frozenset(b) for b in block.values()}
    return sorted(unique.values(), key=min)


def face_closure(model, ids):
    return {fid for sid in ids for fid in _iterated_faces(model, sid)}


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_connected_components_matches_the_subset_oracle(rng, data):
    model = random_complex_model(rng) if rng.random() < 0.5 else random_graph_model(rng)
    strata = [s.id for s in model.strata]
    picks = st.lists(st.sampled_from(strata), max_size=len(strata))
    first = face_closure(model, data.draw(picks))
    second = face_closure(model, data.draw(picks))
    for ids in (first, first & second, set(strata)):
        order = sorted(ids)
        rng.shuffle(order)
        assert sk.connected_components(model, order) == components_by_subsets(model, order)


def test_bundled_models_validate(bundled):
    for name, model in bundled.items():
        report = sk.validate(model)
        assert report.ok, f"{name}: {report}"


def codes(model):
    return {v.code for v in sk.validate(model).violations}


def test_validate_kind_and_degree():
    m = triangle()
    assert "kind" in codes(m.replace(kind="mystery"))
    assert "form-degree" in codes(m.replace(m=0))
    assert "kind" in codes(m.replace(kind=sk.KIND_LOG_RESOLUTION, m=2))
    assert "ambient-dim" in codes(m.replace(ambient_dim=0))


def test_validate_components():
    m = triangle()
    dup = m.replace(components=m.components + (sk.PrimeComponent("A", "A", 1, 1),))
    assert "duplicate-id" in codes(dup)
    bad_n = m.replace(
        components=tuple(
            sk.PrimeComponent(c.id, c.name, 0 if c.id == "A" else c.N, c.mu)
            for c in m.components
        )
    )
    assert "component-multiplicity" in codes(bad_n)
    missing = m.replace(strata=tuple(s for s in m.strata if s.id != "s_A"))
    assert "missing-singleton" in codes(missing)


def test_validate_strata():
    m = triangle()
    rep = m.replace(strata=m.strata + (sk.Stratum("bad", ("A", "A"), {"A": "s_A"}),))
    assert "stratum-size" in codes(rep)
    big = m.replace(ambient_dim=2)
    assert "stratum-size" in codes(big)
    unknown = m.replace(strata=m.strata + (sk.Stratum("v_X", ("X",)),))
    assert "unknown-component" in codes(unknown)
    dup = m.replace(strata=m.strata + (sk.Stratum("s_A", ("A",)),))
    assert "duplicate-id" in codes(dup)


def test_validate_face_maps():
    m = triangle()

    def tweak(sid, fm):
        return m.replace(
            strata=tuple(
                sk.Stratum(s.id, s.vertices, fm, s.touches_zero, s.touches_pole)
                if s.id == sid
                else s
                for s in m.strata
            )
        )

    assert "face-map-missing" in codes(tweak("s_A_B", {"A": "s_B"}))
    assert "face-map mismatch" in codes(tweak("s_A_B", {"A": "s_B", "B": "ghost"}))
    assert "face-map mismatch" in codes(tweak("s_A_B", {"A": "s_B", "B": "s_C"}))
    assert "face-map mismatch" in codes(
        tweak("s_A_B", {"A": "s_B", "B": "s_A", "C": "s_C"})
    )


def test_validate_simplicial_identity():
    # two parallel C-D edges; the 4-cell reaches g1 via one removal order
    # and g2 via the other
    comps = tuple(sk.PrimeComponent(x, x, 1, 1) for x in "ABCD")
    singles = [sk.Stratum(f"v_{x}", (x,)) for x in "ABCD"]
    g1 = sk.Stratum("g1", ("C", "D"), {"C": "v_D", "D": "v_C"})
    g2 = sk.Stratum("g2", ("C", "D"), {"C": "v_D", "D": "v_C"})
    t_bcd = sk.Stratum("t_BCD", ("B", "C", "D"), {"B": "g1", "C": "e_BD", "D": "e_BC"})
    t_acd = sk.Stratum("t_ACD", ("A", "C", "D"), {"A": "g2", "C": "e_AD", "D": "e_AC"})
    others = [
        sk.Stratum(f"e_{a}{b}", (a, b), {a: f"v_{b}", b: f"v_{a}"})
        for a, b in [("B", "D"), ("B", "C"), ("A", "D"), ("A", "C"), ("A", "B")]
    ]
    top = sk.Stratum(
        "T",
        ("A", "B", "C", "D"),
        {"A": "t_BCD", "B": "t_ACD", "C": "t_ABD", "D": "t_ABC"},
    )
    t_abd = sk.Stratum("t_ABD", ("A", "B", "D"), {"A": "e_BD", "B": "e_AD", "D": "e_AB"})
    t_abc = sk.Stratum("t_ABC", ("A", "B", "C"), {"A": "e_BC", "B": "e_AC", "C": "e_AB"})
    m = sk.SncdModel(
        sk.KIND_SNCD,
        1,
        4,
        comps,
        tuple(singles) + (g1, g2, t_bcd, t_acd, t_abd, t_abc, top) + tuple(others),
    )
    assert "simplicial-identity" in codes(m)


def test_a_missing_face_is_not_looked_up_as_the_empty_id():
    # with no A-face there is no A-then-B removal to compare, even when a
    # stratum happens to have the id ""
    m = triangle()
    strata = [
        sk.Stratum(s.id, s.vertices, {"B": "s_A_C", "C": "s_A_B"}) if s.id == "s_A_B_C" else s
        for s in m.strata
    ]
    broken = m.replace(strata=(*strata, sk.Stratum("", ("B", "C"), {"B": "s_A", "C": "s_B"})))
    assert "face-map-missing" in codes(broken)
    assert "simplicial-identity" not in codes(broken)


def test_validate_flag_monotonicity():
    comps = (sk.PrimeComponent("A", "A", 1, 1), sk.PrimeComponent("B", "B", 1, 1))
    strata = (
        sk.Stratum("v_A", ("A",), {}, True, False),
        sk.Stratum("v_B", ("B",)),
        sk.Stratum("e", ("A", "B"), {"A": "v_B", "B": "v_A"}, False, False),
    )
    m = sk.SncdModel(sk.KIND_SNCD, 1, 2, comps, strata)
    assert "flag monotonicity" in codes(m)
    # flagging the coface as well restores the invariant
    ok = sk.SncdModel(
        sk.KIND_SNCD,
        1,
        2,
        comps,
        (
            sk.Stratum("v_A", ("A",), {}, True, False),
            sk.Stratum("v_B", ("B",)),
            sk.Stratum("e", ("A", "B"), {"A": "v_B", "B": "v_A"}, True, False),
        ),
    )
    assert sk.validate(ok).ok


def test_a_non_vertex_face_key_is_no_edge_for_the_flags():
    # s_C is no face of s_A_B, so its flag cannot break monotonicity there;
    # the stray key is reported once, as a face-map mismatch
    comps = [("A", "A", 1, 1), ("B", "B", 2, 1), ("C", "C", 3, 2)]
    m = sk.full_complex_model(sk.KIND_SNCD, 1, comps, [["A", "B"], ["C"]])
    strata = tuple(
        sk.Stratum(s.id, s.vertices, {**s.face_map, "C": "s_C"}) if s.id == "s_A_B"
        else sk.Stratum(s.id, s.vertices, s.face_map, True, False) if s.id == "s_C"
        else s
        for s in m.strata
    )
    report = sk.validate(m.replace(strata=strata))
    assert not report.ok
    assert [(v.code, v.message) for v in report.violations] == [
        ("face-map mismatch", "stratum 's_A_B' maps non-vertex 'C'")
    ]


def horizontal_edge(num, den, mu=(1, 1)):
    comps = (
        sk.PrimeComponent("A", "A", 2, mu[0]),
        sk.PrimeComponent("B", "B", 3, mu[1]),
    )
    pair = sk.SeriesPair(
        sk.Support("e", ("A", "B"), frozenset(num)),
        sk.Support("e", ("A", "B"), frozenset(den)),
    )
    strata = (
        sk.Stratum("v_A", ("A",)),
        sk.Stratum("v_B", ("B",)),
        sk.Stratum("e", ("A", "B"), {"A": "v_B", "B": "v_A"}, False, False, pair),
    )
    return sk.SncdModel(sk.KIND_SNCD, 1, 2, comps, strata)


def test_validate_horizontal_consistency():
    ok = horizontal_edge({(2, 0), (0, 3)}, {(0, 0)})
    assert sk.validate(ok).ok
    # order along A reads 1 - 0 = 1 but the declared datum needs mu - m = 0
    bad = horizontal_edge({(1, 0)}, {(0, 0)})
    assert "horizontal-consistency" in codes(bad)
    # expansion written against the wrong vertex order
    pair = sk.SeriesPair(
        sk.Support("e", ("B", "A"), frozenset({(0, 0)})),
        sk.Support("e", ("B", "A"), frozenset({(0, 0)})),
    )
    m = horizontal_edge({(0, 0)}, {(0, 0)})
    twisted = m.replace(
        strata=tuple(
            sk.Stratum(s.id, s.vertices, s.face_map, horizontal=pair)
            if s.id == "e"
            else s
            for s in m.strata
        )
    )
    assert "horizontal-consistency" in codes(twisted)


def test_validate_rejects_an_expansion_written_on_another_stratum():
    m = horizontal_edge({(2, 0), (0, 3)}, {(0, 0)})
    e = m.stratum("e")
    moved = sk.SeriesPair(
        sk.Support("zzz", e.vertices, e.horizontal.num.exponents),
        sk.Support("zzz", e.vertices, e.horizontal.den.exponents),
    )
    m = m.replace(
        strata=tuple(
            sk.Stratum(s.id, s.vertices, s.face_map, horizontal=moved)
            if s.id == "e"
            else s
            for s in m.strata
        )
    )
    report = sk.validate(m)
    assert [(v.code, v.message) for v in report.violations] == [
        ("horizontal-consistency", "stratum 'e': expansion is written on stratum 'zzz'")
    ]


def test_violation_and_report_formatting():
    v = Violation("kind", "unknown kind 'x'")
    assert str(v) == "kind: unknown kind 'x'"
    good = sk.validate(triangle())
    assert str(good) == "valid"
    bad = sk.validate(triangle().replace(m=0))
    assert "form-degree" in str(bad)
