"""Thresholds and discrepancies on log resolution data."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import skelkit as sk
from conftest import load_bundled, random_complex_model, random_graph_model, random_point


def test_lct_values(bundled):
    assert sk.lct(bundled["node"]) == F(1)
    assert sk.lct(bundled["cusp"]) == F(5, 6)


def test_lct_requires_log_resolution(bundled):
    with pytest.raises(sk.DomainError):
        sk.lct(bundled["edge_23"])
    q = sk.QuasiMonomialPoint("e_A_B", {"A": F(1), "B": F(1)})
    with pytest.raises(sk.DomainError):
        sk.weight_qm(bundled["edge_23"], q)


def test_quasi_monomial_checks(bundled):
    m = bundled["cusp"]
    with pytest.raises(sk.DomainError):
        sk.weight_qm(m, sk.QuasiMonomialPoint("e_E3_E1", {"E1": F(1)}))
    with pytest.raises(sk.DomainError):
        sk.weight_qm(m, sk.QuasiMonomialPoint("e_E3_E1", {"E1": F(-1), "E3": F(1)}))
    with pytest.raises(sk.DomainError):
        sk.weight_qm(m, sk.QuasiMonomialPoint("e_E3_E1", {"E1": F(0), "E3": F(0)}))


def test_discrepancy_identities_on_the_cusp(bundled):
    m = bundled["cusp"]
    q = sk.QuasiMonomialPoint("e_E3_E1", {"E1": F(1), "E3": F(1)})
    assert sk.log_discrepancy(m, q) == 7  # 2 + 5
    assert sk.intersection_order(m, q) == 8  # 2 + 6
    assert sk.weight_qm(m, q) == F(7, 8)
    # scale invariance of the ratio
    doubled = sk.QuasiMonomialPoint("e_E3_E1", {"E1": F(2), "E3": F(2)})
    assert sk.weight_qm(m, doubled) == F(7, 8)
    assert sk.log_discrepancy(m, doubled) == 14


def test_sk_pair(bundled):
    assert sk.sk_pair(bundled["cusp"]).strata == frozenset({"v_E3"})
    node = bundled["node"]
    assert sk.sk_pair(node).strata == frozenset({"v_A", "v_B", "e_A_B"})


def _flagged(model, flag, stratum_ids):
    strata = tuple(
        s.replace(**{flag: True}) if s.id in stratum_ids else s
        for s in model.strata
    )
    out = model.replace(strata=strata)
    assert sk.validate(out).ok
    return out


def test_lct_and_sk_pair_follow_the_minimal_weight_skeleton():
    comps = [("A", "A", 1, 1), ("B", "B", 1, 1), ("C", "C", 2, 3)]
    edges = [("e_A_B", "A", "B"), ("e_B_C", "B", "C")]
    pair = sk.graph_model(sk.KIND_LOG_RESOLUTION, 1, 2, comps, edges)
    assert sk.sk_pair(pair).strata == frozenset({"v_A", "v_B", "e_A_B"})

    # strata on the zero locus leave the locus, as in ks_skeleton
    zero = _flagged(pair, "touches_zero", {"v_B", "e_A_B", "e_B_C"})
    assert sk.lct(zero) == sk.min_weight(zero) == 1
    assert sk.sk_pair(zero) == sk.ks_skeleton(zero)
    assert sk.sk_pair(zero).strata == frozenset({"v_A"})

    # a pole leaves the weight unbounded below: no threshold, no locus
    pole = _flagged(pair, "touches_pole", {"v_C", "e_B_C"})
    for fn in (sk.lct, sk.sk_pair, sk.connectedness_report):
        with pytest.raises(sk.DomainError, match="poles"):
            fn(pole)


def test_quasi_monomial_point_is_the_alpha_vector():
    assert sk.QuasiMonomialPoint is sk.AlphaVector


def test_weight_qm_bounded_below_by_lct(bundled):
    m = bundled["cusp"]
    lo = sk.lct(m)
    grid = [F(p, q) for q in range(1, 5) for p in range(0, q + 1)]
    for s in m.strata:
        if s.r != 2:
            continue
        va, vb = s.vertices
        for a in grid:
            for b in grid:
                if a == 0 and b == 0:
                    continue
                w = sk.weight_qm(m, sk.QuasiMonomialPoint(s.id, {va: a, vb: b}))
                assert w >= lo


def test_connectedness_report(bundled):
    m = bundled["cusp"]
    report = sk.connectedness_report(m)
    assert len(report) == 1
    block, ok = report[0]
    assert ok is True
    assert block == frozenset(s.id for s in m.strata)

    # two pairs side by side: the threshold locus lives in only one block
    comps = [("A", "A", 1, 1), ("B", "B", 1, 1), ("C", "C", 2, 1), ("D", "D", 2, 1)]
    edges = [("e_A_B", "A", "B"), ("e_C_D", "C", "D")]
    m2 = sk.graph_model(sk.KIND_LOG_RESOLUTION, 1, 2, comps, edges)
    report = sk.connectedness_report(m2)
    verdicts = {min(block): ok for block, ok in report}
    assert verdicts == {"e_A_B": False, "e_C_D": True}


def test_a_component_with_n_below_one_is_a_domain_error(bundled):
    m = bundled["cusp"]
    broken = m.replace(components=tuple(
        c.replace(N=0) if c.id == "E1" else c for c in m.components
    ))
    for call in (sk.lct, sk.min_weight, sk.ks_skeleton, sk.sk_pair):
        with pytest.raises(sk.DomainError, match="'E1' has N = 0"):
            call(broken)
    q = sk.QuasiMonomialPoint("e_E3_E1", {"E1": F(1), "E3": F(0)})
    with pytest.raises(sk.DomainError, match="'E1' has N = 0"):
        sk.weight_qm(broken, q)


def test_a_log_resolution_with_expansion_data_is_invalid():
    # weight reads an expansion and weight_qm does not, so a log resolution, read by
    # its N and mu alone, carries none: here they would give 3 and 8/3 at (1/3, 2/3)
    edge = sk.graph_model(sk.KIND_LOG_RESOLUTION, 1, 2, [("A", "A", 1, 2), ("B", "B", 1, 3)],
                          [("e", "A", "B")])
    pair = sk.SeriesPair(sk.Support("e", ("A", "B"), frozenset({(1, 3), (2, 2)})),
                         sk.Support("e", ("A", "B"), frozenset({(0, 0)})))
    m = edge.replace(strata=tuple(
        s.replace(horizontal=pair) if s.id == "e" else s for s in edge.strata))
    assert [(v.code, v.message) for v in sk.validate(m).violations] == [
        ("kind", "stratum 'e' has expansion data, which log-resolution models lack")]
    # the same data is valid on an sncd model, whose weight reads it
    sncd = m.replace(kind=sk.KIND_SNCD)
    assert sk.validate(sncd).ok
    assert sk.weight(sncd, sk.SkeletonPoint("e", {"A": F(1, 3), "B": F(2, 3)})) == 3
    assert sk.weight_qm(m, sk.QuasiMonomialPoint("e", {"A": F(1, 3), "B": F(2, 3)})) == F(8, 3)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_weight_qm_is_the_weight_at_the_normalized_point(rng):
    # on every log resolution validate accepts: the bundled two and random models
    # switched to that kind, as the connectivity oracle does
    pick = rng.randrange(3)
    if pick == 0:
        model = load_bundled(rng.choice(["cusp", "node"]))
    else:
        model = (random_graph_model if pick == 1 else random_complex_model)(rng)
        model = model.replace(kind=sk.KIND_LOG_RESOLUTION, m=1)
    assert sk.validate(model).ok
    sid = rng.choice(model.strata).id
    scale = F(rng.randint(1, 60), rng.randint(1, 60))
    y = random_point(rng, model, sid, max_part=rng.choice([9, 60]))
    x = sk.QuasiMonomialPoint(sid, {v: a * scale for v, a in y.alpha.items()})
    order = sk.intersection_order(model, x)
    normalized = sk.SkeletonPoint(sid, {v: a / order for v, a in x.alpha.items()})
    assert sk.weight_qm(model, x) == sk.weight(model, normalized)
