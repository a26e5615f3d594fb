"""Acceptance battery: one test per shipped guarantee, one line each under -v.

Every check is exact rational arithmetic; random cases use fixed seeds
so failures reproduce.  Each test prints a PASS summary (visible with
-s) naming the guarantee it pins down.
"""

import itertools
import random
from fractions import Fraction as F

import skelkit as sk
from skelkit.cli import main
from conftest import (
    BUNDLED_NAMES,
    KODAIRA_NAMES,
    bundled_path,
    random_barycentric,
    random_complex_model,
    random_graph_model,
    random_point,
)


def test_criterion_1_valuation_oracle_and_products():
    rng = random.Random(101)

    def draw_support(verts):
        size = rng.randint(1, 12)
        return sk.Support(
            "s",
            verts,
            frozenset(
                tuple(rng.randint(0, 6) for _ in verts) for _ in range(size)
            ),
        )

    for _ in range(1000):
        r = rng.randint(1, 4)
        verts = tuple(f"D{i}" for i in range(r))
        s1, s2 = draw_support(verts), draw_support(verts)
        alpha = {v: F(rng.randint(0, 9), rng.randint(1, 9)) for v in verts}
        if not any(alpha.values()):
            alpha[verts[0]] = F(1, 3)
        a = sk.AlphaVector("s", alpha)
        weights = [a.alpha[v] for v in verts]
        brute = min(
            sum(w * b for w, b in zip(weights, beta)) for beta in s1.exponents
        )
        assert sk.val(s1, a) == brute
        # the support of f*g is the Minkowski sum of the supports
        prod = sk.Support(
            "s",
            verts,
            frozenset(
                tuple(x + y for x, y in zip(b1, b2))
                for b1 in s1.exponents
                for b2 in s2.exponents
            ),
        )
        assert sk.val(prod, a) == sk.val(s1, a) + sk.val(s2, a)
    print(
        "PASS criterion 1: valuation matches the brute-force minimum and is "
        "additive on products (1000 random supports)"
    )


def test_criterion_2_normalization(bundled):
    rng = random.Random(102)
    points = 0
    for model in bundled.values():
        for s in model.strata:
            uniformizer = sk.Support(
                s.id,
                s.vertices,
                frozenset({tuple(model.component(v).N for v in s.vertices)}),
            )
            for _ in range(100):
                x = sk.embed(model, random_barycentric(rng, model, s.id))
                total = sum(x.alpha[v] * model.component(v).N for v in s.vertices)
                assert total == 1
                assert sk.val(uniformizer, sk.AlphaVector(s.id, dict(x.alpha))) == 1
                points += 1
    print(
        f"PASS criterion 2: sum(alpha * N) = 1 and the uniformizer has "
        f"valuation 1 at {points} embedded points"
    )


def test_criterion_3_skeleton_invariance(bundled):
    rng = random.Random(103)
    models = [bundled["edge_23"]]
    while len(models) < 6:
        m = random_graph_model(rng) if len(models) % 2 else random_complex_model(rng)
        if any(s.r >= 2 and sk.is_maximal(m, s.id) for s in m.strata):
            models.append(m)
    moved = 0
    for m in models:
        centers = [s.id for s in m.strata if s.r >= 2 and sk.is_maximal(m, s.id)]
        center = rng.choice(sorted(centers))
        out, _, trace = sk.blowup_stratum(m, center)
        for _ in range(50):
            x = random_point(rng, m, center)
            y = sk.transfer_point(m, out, trace, x)
            assert sk.weight(out, y) == sk.weight(m, x)
            moved += 1
        for s in m.strata:
            if not out.has_stratum(s.id):
                continue
            x = random_point(rng, m, s.id)
            y = sk.transfer_point(m, out, trace, x)
            assert y == x
            assert sk.weight(out, y) == sk.weight(m, x)
    print(
        f"PASS criterion 3: weight invariant under stratum blow-up for "
        f"{moved} transferred points on 6 models"
    )


def test_criterion_4_weight_jump():
    single = sk.graph_model(sk.KIND_SNCD, 1, 2, [("A", "A", 2, 1)], [])
    out, e, _ = sk.blowup_point(single, "v_A", ("A",), 2)
    c = out.component(e)
    new_weight = sk.weight(out, sk.SkeletonPoint(f"v_{e}", {e: F(1, c.N)}))
    assert new_weight == F(1, 2) + F(1, 2)  # mu/N + 1/N on (N, mu) = (2, 1)

    rng = random.Random(104)
    pool = [sk.parse_model(bundled_path("reduced_fiber").read_text())]
    pool += [random_complex_model(rng) for _ in range(10)]
    cases = 0
    for model in pool:
        for s in model.strata:
            if not sk.is_maximal(model, s.id):
                continue
            for j_size in range(1, s.r + 1):
                J = tuple(s.vertices[:j_size])
                for codim in range(j_size + 1, model.ambient_dim + 1):
                    out, e, _ = sk.blowup_point(model, s.id, J, codim)
                    c = out.component(e)
                    new_weight = sk.weight(
                        out, sk.SkeletonPoint(f"v_{e}", {e: F(1, c.N)})
                    )
                    values = {
                        v: (F(1, c.N) if v in J else F(0)) for v in s.vertices
                    }
                    retracted = sk.retract(model, sk.PointSpec(s.id, values))
                    jump = new_weight - sk.weight(model, retracted)
                    assert jump == F(model.m * (codim - j_size), c.N)
                    assert jump > 0
                    cases += 1
    assert cases >= 20
    print(
        f"PASS criterion 4: weight jump equals m(c - |J|)/N_e > 0 in {cases} "
        f"generic point blow-ups (transverse case: 1/2 + 1/2)"
    )


def _random_reduction_case(rng):
    """A model plus a point with bounded denominator on its top stratum."""
    r = 3 if rng.random() < 0.2 else 2
    names = ["A", "B", "C"][:r]
    comps = [(x, x, rng.randint(1, 4), rng.randint(1, 4)) for x in names]
    if r == 2:
        model = sk.graph_model(
            sk.KIND_SNCD, 1, 2, comps, [("e", "A", "B")]
        )
        top = "e"
    else:
        model = sk.full_complex_model(sk.KIND_SNCD, 1, comps, [names])
        top = "s_A_B_C"
    N = {x: model.component(x).N for x in names}
    q = rng.randint(r, 30)
    solutions = []
    for p_a in range(1, q + 1):
        rest_a = q - p_a * N["A"]
        if rest_a <= 0:
            break
        if r == 2:
            if rest_a % N["B"] == 0:
                solutions.append({"A": p_a, "B": rest_a // N["B"]})
            continue
        for p_b in range(1, rest_a + 1):
            rest_b = rest_a - p_b * N["B"]
            if rest_b <= 0:
                break
            if rest_b % N["C"] == 0:
                solutions.append({"A": p_a, "B": p_b, "C": rest_b // N["C"]})
    if not solutions:
        return None
    parts = rng.choice(solutions)
    alpha = {x: F(parts[x], q) for x in names}
    return model, sk.SkeletonPoint(top, alpha), sum(parts.values())


def test_criterion_5_reduction(bundled):
    m = bundled["edge_23"]
    final, comp, trace = sk.reduce_to_divisorial(
        m, sk.SkeletonPoint("e_A_B", {"A": F(1, 5), "B": F(1, 5)})
    )
    assert len(trace.steps) == 1
    assert (final.component(comp).N, final.component(comp).mu) == (5, 2)

    g = sk.graph_model(
        sk.KIND_SNCD, 1, 2, [("A", "A", 1, 1), ("B", "B", 1, 1)], [("e", "A", "B")]
    )
    final, comp, trace = sk.reduce_to_divisorial(
        g, sk.SkeletonPoint("e", {"A": F(1, 3), "B": F(2, 3)})
    )
    assert len(trace.steps) == 2
    assert (final.component(comp).N, final.component(comp).mu) == (3, 3)

    rng = random.Random(105)
    done = 0
    while done < 500:
        case = _random_reduction_case(rng)
        if case is None:
            continue
        model, x, step_bound = case
        w = sk.weight(model, x)
        values = {c.id: sk.value_on_component(model, x, c.id) for c in model.components}
        final, comp, trace = sk.reduce_to_divisorial(model, x)
        assert len(trace.steps) <= step_bound
        y = sk.SkeletonPoint(
            final.singleton(comp).id, {comp: F(1, final.component(comp).N)}
        )
        assert sk.weight(final, y) == w
        for cid, expected in values.items():
            assert sk.pullback_value(final, trace, y, cid) == expected
        done += 1
    print(
        "PASS criterion 5: both pinned reductions and 500 random cases "
        "terminate within the measure bound with weight and values preserved"
    )


def test_criterion_6_ks_theorem(bundled):
    rf = bundled["reduced_fiber"]
    assert sk.ks_skeleton(rf).strata == frozenset(s.id for s in rf.strata)

    i0star = bundled["kodaira_I0star"]
    ks = sk.ks_skeleton(i0star)
    assert ks.strata == frozenset({"v_C"})
    assert i0star.component("C").N == 2

    for name, model in bundled.items():
        expected = min(F(c.mu, c.N) for c in model.components)
        assert sk.min_weight(model) == expected, name
    print(
        "PASS criterion 6: full complex on the reduced fiber, single N=2 "
        "vertex on the four-leg star, min weight = min mu/N on all 16 models"
    )


def test_criterion_7_kodaira_connectedness(bundled):
    for name in KODAIRA_NAMES:
        model = bundled[name]
        ks = sk.ks_skeleton(model)
        assert not ks.empty, name
        assert sk.is_connected(model, ks), name
    print(
        f"PASS criterion 7: minimal-weight skeleton nonempty and connected "
        f"on all {len(KODAIRA_NAMES)} degeneration complexes"
    )


def test_criterion_8_lct_identities(bundled):
    cusp, node = bundled["cusp"], bundled["node"]
    assert sk.lct(cusp) == F(5, 6)
    assert sk.lct(node) == F(1)

    grid = sorted({F(p, q) for q in range(1, 9) for p in range(0, q + 1)})
    checked = 0
    for model in (cusp, node):
        lo = sk.lct(model)
        pair = sk.sk_pair(model)
        for s in model.strata:
            for alpha_tuple in itertools.product(grid, repeat=s.r):
                if not any(alpha_tuple):
                    continue
                alpha = dict(zip(s.vertices, alpha_tuple))
                point = sk.QuasiMonomialPoint(s.id, alpha)
                w = sk.weight_qm(model, point)
                assert w == sk.log_discrepancy(model, point) / sk.intersection_order(
                    model, point
                )
                assert w >= lo
                carrier = sk.face(
                    model, s.id, [v for v, a in alpha.items() if a > 0]
                )
                assert (w == lo) == (carrier in pair)
                checked += 1
    print(
        f"PASS criterion 8: lct 5/6 and 1, ratio identity and sharp lower "
        f"bound at {checked} quasi-monomial weights with denominator <= 8"
    )


def test_criterion_9_cli_roundtrip(tmp_path, capsys):
    for name in BUNDLED_NAMES:
        text = bundled_path(name).read_text()
        model = sk.parse_model(text)
        assert sk.validate(model).ok, name
        again = sk.serialize_model(model)
        assert again == text, name
        assert sk.parse_model(again) == model, name

    blown = tmp_path / "blown.model"
    assert (
        main(["blowup", str(bundled_path("edge_23")), "--stratum", "e_A_B", "-o", str(blown)])
        == 0
    )
    assert main(["validate", str(blown)]) == 0
    capsys.readouterr()

    commands = [
        ["export", str(bundled_path("kodaira_IIstar"))],
        ["ks", str(bundled_path("kodaira_I2star"))],
        ["lct", str(bundled_path("cusp"))],
        ["report", str(bundled_path("node"))],
        ["info", str(bundled_path("kodaira_I5"))],
    ]
    for argv in commands:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
    print(
        "PASS criterion 9: all 16 documents round-trip byte-identically, "
        "blow-up output revalidates, command output is deterministic"
    )
