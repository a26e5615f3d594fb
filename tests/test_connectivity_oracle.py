"""connected_components and connectedness_report against a brute-force connectivity oracle.

The oracle closes each stratum's face maps by brute force to get all of
its iterated faces, joins the stratum to each of them in a networkx
graph and reads off that graph's components.  The sets tested are
face-closed: the Kontsevich-Soibelman skeleta of random forms and the
face-closures of random strata, on random graph and simplicial models
and on the Kodaira models.
"""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

import skelkit as sk
from conftest import KODAIRA_NAMES, load_bundled, random_complex_model, random_graph_model

KODAIRA = {name: load_bundled(name) for name in KODAIRA_NAMES}


def iterated_faces(model, sid):
    """Every stratum reached from sid by one or more face maps."""
    found, todo = set(), [sid]
    while todo:
        for fid in model.stratum(todo.pop()).face_map.values():
            if fid not in found:
                found.add(fid)
                todo.append(fid)
    return found


def closure(model, ids):
    return set(ids).union(*(iterated_faces(model, sid) for sid in ids))


def components_by_brute_force(model, ids):
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    graph.add_edges_from((sid, fid) for sid in ids for fid in iterated_faces(model, sid))
    return sorted((frozenset(c) for c in nx.connected_components(graph)), key=min)


def _model(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return KODAIRA[rng.choice(KODAIRA_NAMES)]
    return (random_graph_model if pick == 1 else random_complex_model)(rng)


def _face_closed_sets(rng, model):
    """The ks skeleta of two random forms and the face-closures of two random stratum sets."""
    for _ in range(2):
        form = sk.FormData(1, {c.id: rng.randint(1, 3) for c in model.components})
        yield sk.ks_skeleton(model, form).strata
    for _ in range(2):
        picked = rng.sample(model.strata, rng.randint(0, min(3, len(model.strata))))
        yield closure(model, [s.id for s in picked])


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_connected_components_match_the_brute_force_graph(rng):
    model = _model(rng)
    assert sk.validate(model).ok
    for ids in _face_closed_sets(rng, model):
        assert closure(model, ids) == set(ids)
        assert sk.connected_components(model, ids) == components_by_brute_force(model, ids)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_connectedness_report_matches_the_brute_force_graph(rng):
    pick = rng.randrange(3)
    if pick == 0:
        model = load_bundled(rng.choice(["cusp", "node"]))
    else:
        model = (random_graph_model if pick == 1 else random_complex_model)(rng)
        model = model.replace(kind=sk.KIND_LOG_RESOLUTION, m=1)
    assert sk.validate(model).ok
    pair = sk.sk_pair(model).strata
    expected = []
    for block in components_by_brute_force(model, [s.id for s in model.strata]):
        inside = pair & block
        expected.append((block, len(components_by_brute_force(model, inside)) == 1))
    assert sk.connectedness_report(model) == expected


def test_the_oracle_sees_a_disconnected_skeleton():
    """On a cycle of four with the low weight on two opposite components, Sk has two pieces."""
    model = sk.cycle_model(sk.KIND_SNCD, 1, [(c, c, 1, mu) for c, mu in zip("ABCD", [1, 2, 1, 2])])
    ks = sk.ks_skeleton(model).strata
    assert components_by_brute_force(model, ks) == [frozenset({"v_A"}), frozenset({"v_C"})]
    assert sk.connected_components(model, ks) == components_by_brute_force(model, ks)
