"""The coface index: star walks against the all-strata scan, and the maps
a blow-up updates in place in its working complex against the ones built
from scratch."""

from fractions import Fraction as F
from unittest import mock

from hypothesis import given, settings, strategies as st

import skelkit as sk
import skelkit.model
from conftest import random_complex_model, random_graph_model, random_point


def cofaces_by_scan(model, sid):
    """Oracle: every stratum the given one is an iterated face of, by testing all."""
    return [t.id for t in model.strata if sk.is_face(model, sid, t.id)]


def is_maximal_by_scan(model, sid):
    return cofaces_by_scan(model, sid) == [sid]


def assert_queries_match_the_scan(model):
    for s in model.strata:
        assert sk.cofaces(model, s.id) == cofaces_by_scan(model, s.id)
        assert sk.is_maximal(model, s.id) == is_maximal_by_scan(model, s.id)


def assert_maps_match_a_fresh_build(model):
    """The model and its lazily built maps equal a fresh build's."""
    fresh = sk.SncdModel(
        model.kind, model.m, model.ambient_dim, model.components, model.strata
    )
    assert (fresh.components, fresh.strata) == (model.components, model.strata)
    for name in ("_coface_index", "_strata_by_id", "_components_by_id"):
        assert getattr(model, name) == getattr(fresh, name), name


def random_builder_model(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return random_graph_model(rng)
    if pick == 1:
        return random_complex_model(rng)
    comps = [(f"C{k}", f"C{k}", rng.randint(1, 4), rng.randint(1, 4))
             for k in range(rng.randint(3, 8))]
    if pick == 2:
        return sk.cycle_model(sk.KIND_SNCD, 1, comps)
    return sk.star_model(sk.KIND_SNCD, 1, comps[0], comps[1:])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_queries_match_the_scan_on_builder_models(rng):
    model = random_builder_model(rng)
    assert "_coface_index" not in vars(model)  # built on the first query only
    assert_queries_match_the_scan(model)
    assert vars(model)["_coface_index"] == {
        fid: frozenset(up)
        for fid, up in _direct_cofaces(model).items()
    }


def _direct_cofaces(model):
    out = {}
    for s in model.strata:
        for fid in s.face_map.values():
            out.setdefault(fid, set()).add(s.id)
    return out


def _blowup_step(rng, model):
    """One random stratum or point blow-up at a maximal stratum, or None."""
    tops = [s for s in model.strata if s.r >= 2 and sk.is_maximal(model, s.id)]
    if not tops:
        return None
    s = rng.choice(tops)
    if s.r < model.ambient_dim and rng.random() < 0.3:
        center = tuple(rng.sample(s.vertices, rng.randint(1, s.r)))
        return sk.blowup_point(model, s.id, center, model.ambient_dim)[0]
    return sk.blowup_stratum(model, s.id)[0]


def _random_step(rng, model):
    """A random reduction or maximal-stratum blow-up of the model, or None."""
    if rng.random() < 0.5:
        s = rng.choice([s for s in model.strata if s.r >= 2] or model.strata)
        return sk.reduce_to_divisorial(
            model, random_point(rng, model, s.id, max_part=20)
        )[0]
    return _blowup_step(rng, model)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blowup_chains_match_a_fresh_build(rng):
    model = random_builder_model(rng)
    for _ in range(rng.randint(1, 6)):
        model = _random_step(rng, model) or model
        assert_maps_match_a_fresh_build(model)
        assert sk.validate(model).ok
        assert_queries_match_the_scan(model)


def _state(model):
    """Everything a blow-up could change in place on its input model."""
    index = {fid: frozenset(up) for fid, up in model._coface_index.items()}
    return (model.components, model.strata, dict(model._strata_by_id),
            dict(model._components_by_id), index, sk.serialize_model(model))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_every_splice_keeps_the_complex_equal_to_a_fresh_build(rng):
    # after each in-place blow-up of the working complex, its index (less
    # the coface sets the swap emptied) and id maps are the ones its frozen
    # model builds from scratch, and the model it started from is untouched
    add_vertex = skelkit.model._Complex.add_vertex
    model, splices = random_builder_model(rng), []

    def checked(work, *args):
        add_vertex(work, *args)
        fresh = work.freeze()
        index = {fid: up for fid, up in work._coface_index.items() if up}
        assert index == fresh._coface_index
        assert work._strata_by_id == fresh._strata_by_id
        assert work._components_by_id == fresh._components_by_id
        assert _state(model) == before
        splices.append(work)

    with mock.patch.object(skelkit.model._Complex, "add_vertex", checked):
        for _ in range(rng.randint(1, 5)):
            before, done = _state(model), len(splices)
            out = _random_step(rng, model)
            if out is None:
                break
            assert len(splices) > done and _state(model) == before
            model = out


def _gap_edge(taken):
    comps = [(c, c, 1, 1) for c in taken] + [("B", "B", 1, 1)]
    return sk.graph_model(sk.KIND_SNCD, 1, 2, comps, [("e", taken[0], "B")])


def test_reduction_fills_the_gaps_in_the_exc_ids():
    # the counter carried by the reduction loop resumes after the id it
    # handed out, and still skips ids the starting model holds
    m = _gap_edge(["exc2"])
    x = sk.SkeletonPoint("e", {"exc2": F(1, 4), "B": F(3, 4)})
    _, comp, trace = sk.reduce_to_divisorial(m, x)
    assert [s.new_vertex for s in trace.steps] == ["exc1", "exc3", "exc4"]
    assert comp == "exc4"

    m = _gap_edge(["exc2", "exc4", "exc5"])
    x = sk.SkeletonPoint("e", {"exc2": F(1, 5), "B": F(4, 5)})
    _, _, trace = sk.reduce_to_divisorial(m, x)
    assert [s.new_vertex for s in trace.steps] == ["exc1", "exc3", "exc6", "exc7"]


def test_reduction_looks_up_strata_linearly_often(monkeypatch):
    # the edge point 1:k takes k blow-ups; scanning every stratum for the
    # cofaces of each center would read the stratum map about k^2 times.
    # Every read of the working complex's map counts: one per lookup and
    # one per item iterated, however the kernel reaches the map
    reads = []

    class Counted(dict):
        def __getitem__(self, key):
            reads.append(None)
            return super().__getitem__(key)

        def get(self, *args):
            reads.append(None)
            return super().get(*args)

        def __iter__(self):
            for key in super().__iter__():
                reads.append(None)
                yield key

        def values(self):
            for value in super().values():
                reads.append(None)
                yield value

        def items(self):
            for item in super().items():
                reads.append(None)
                yield item

    k, init = 400, skelkit.model._Complex.__init__

    def counted_init(self, model):
        init(self, model)
        self._strata_by_id = Counted(self._strata_by_id)

    monkeypatch.setattr(skelkit.model._Complex, "__init__", counted_init)
    edge = sk.graph_model(
        sk.KIND_SNCD, 1, 2, [("A", "A", 1, 1), ("B", "B", 1, 1)], [("e", "A", "B")]
    )
    x = sk.SkeletonPoint("e", {"A": F(1, k + 1), "B": F(k, k + 1)})
    final, _, trace = sk.reduce_to_divisorial(edge, x)
    assert len(trace.steps) == k and len(final.strata) == 2 * k + 3
    assert 0 < len(reads) <= 10 * k
