"""The four-pass `validate` that the one-walk version replaced, kept verbatim
but for its flag pass, which follows vertex keys only, as face-map edges do.

`skelkit.model.validate` walks the strata once; this reference makes one
pass over them per kind of check.  Both must report the same multiset of
violations on every model, however broken.
"""

from skelkit.model import (
    KIND_LOG_RESOLUTION,
    KNOWN_KINDS,
    SncdModel,
    ValidationReport,
    Violation,
)


def validate(model: SncdModel) -> ValidationReport:
    """Check every structural invariant of a model, reporting all failures.

    This never raises on malformed content; it accumulates violations so
    a user can fix a hand-written model file in one pass.
    """
    out: list[Violation] = []

    if model.kind not in KNOWN_KINDS:
        out.append(Violation("kind", f"unknown kind {model.kind!r}"))
    if model.m < 1:
        out.append(Violation("form-degree", f"m must be >= 1, got {model.m}"))
    if model.kind == KIND_LOG_RESOLUTION and model.m != 1:
        out.append(
            Violation("kind", f"log-resolution models fix m = 1, got m = {model.m}")
        )
    if model.ambient_dim < 1:
        out.append(
            Violation("ambient-dim", f"ambient_dim must be >= 1, got {model.ambient_dim}")
        )

    comp_ids = [c.id for c in model.components]
    for cid in _duplicates(comp_ids):
        out.append(Violation("duplicate-id", f"component id {cid!r} repeated"))
    for c in model.components:
        if c.N < 1:
            out.append(
                Violation(
                    "component-multiplicity", f"component {c.id!r} has N = {c.N} < 1"
                )
            )

    strat_ids = [s.id for s in model.strata]
    for sid in _duplicates(strat_ids):
        out.append(Violation("duplicate-id", f"stratum id {sid!r} repeated"))
    strata = {s.id: s for s in model.strata}
    comp_set = set(comp_ids)

    singleton_of = {s.vertices[0] for s in model.strata if len(s.vertices) == 1}
    for cid in comp_ids:
        if cid not in singleton_of:
            out.append(
                Violation("missing-singleton", f"component {cid!r} has no vertex stratum")
            )

    for s in model.strata:
        if len(s.vertices) == 0:
            out.append(Violation("stratum-size", f"stratum {s.id!r} has no vertices"))
            continue
        if len(set(s.vertices)) != len(s.vertices):
            out.append(
                Violation("stratum-size", f"stratum {s.id!r} repeats a vertex")
            )
        if len(s.vertices) > model.ambient_dim:
            out.append(
                Violation(
                    "stratum-size",
                    f"stratum {s.id!r} has {len(s.vertices)} vertices, "
                    f"more than ambient_dim = {model.ambient_dim}",
                )
            )
        unknown = [v for v in s.vertices if v not in comp_set]
        for v in unknown:
            out.append(
                Violation(
                    "unknown-component", f"stratum {s.id!r} uses unknown component {v!r}"
                )
            )
        if unknown:
            continue
        if len(s.vertices) >= 2:
            for v in s.vertices:
                if v not in s.face_map:
                    out.append(
                        Violation(
                            "face-map-missing",
                            f"stratum {s.id!r} lacks a face map entry for vertex {v!r}",
                        )
                    )
                    continue
                tid = s.face_map[v]
                t = strata.get(tid)
                if t is None:
                    out.append(
                        Violation(
                            "face-map mismatch",
                            f"stratum {s.id!r}: face at {v!r} points to unknown "
                            f"stratum {tid!r}",
                        )
                    )
                elif tuple(x for x in s.vertices if x != v) != t.vertices:
                    out.append(
                        Violation(
                            "face-map mismatch",
                            f"stratum {s.id!r}: face at {v!r} should carry vertices "
                            f"{tuple(x for x in s.vertices if x != v)}, but "
                            f"{tid!r} carries {t.vertices}",
                        )
                    )
        extra_keys = set(s.face_map) - set(s.vertices)
        for v in sorted(extra_keys):
            out.append(
                Violation(
                    "face-map mismatch",
                    f"stratum {s.id!r} maps non-vertex {v!r}",
                )
            )

    # simplicial identity: removing two vertices commutes
    for s in model.strata:
        if len(s.vertices) < 2 or set(s.vertices) - comp_set:
            continue
        for i, v in enumerate(s.vertices):
            for w in s.vertices[i + 1 :]:
                try:
                    a = _two_step(model, strata, s, v, w)
                    b = _two_step(model, strata, s, w, v)
                except KeyError:
                    continue  # already reported above
                if a is not None and b is not None and a != b:
                    out.append(
                        Violation(
                            "simplicial-identity",
                            f"stratum {s.id!r}: removing {v!r} then {w!r} gives "
                            f"{a!r}, the other order gives {b!r}",
                        )
                    )

    # flag monotonicity: a flag that is off on a stratum is off on its faces
    for s in model.strata:
        if len(s.vertices) < 2 or set(s.vertices) - comp_set:
            continue
        for tid in [s.face_map[v] for v in s.vertices if v in s.face_map]:
            t = strata.get(tid)
            if t is None:
                continue
            if not s.touches_zero and t.touches_zero:
                out.append(
                    Violation(
                        "flag monotonicity",
                        f"stratum {s.id!r} has touches_zero off but its face "
                        f"{tid!r} has it on",
                    )
                )
            if not s.touches_pole and t.touches_pole:
                out.append(
                    Violation(
                        "flag monotonicity",
                        f"stratum {s.id!r} has touches_pole off but its face "
                        f"{tid!r} has it on",
                    )
                )

    # horizontal data consistency with the declared weights
    for s in model.strata:
        if s.horizontal is None or set(s.vertices) - comp_set:
            continue
        h = s.horizontal
        if h.num.stratum != s.id:
            out.append(
                Violation(
                    "horizontal-consistency",
                    f"stratum {s.id!r}: expansion is written on stratum "
                    f"{h.num.stratum!r}",
                )
            )
            continue
        if h.num.vertices != s.vertices or h.den.vertices != s.vertices:
            out.append(
                Violation(
                    "horizontal-consistency",
                    f"stratum {s.id!r}: expansion coordinates do not match "
                    f"the stratum's vertex order",
                )
            )
            continue
        for j, v in enumerate(s.vertices):
            lo_num = min(beta[j] for beta in h.num.exponents)
            lo_den = min(beta[j] for beta in h.den.exponents)
            expected = model.component(v).mu - model.m
            if lo_num - lo_den != expected:
                out.append(
                    Violation(
                        "horizontal-consistency",
                        f"stratum {s.id!r}, vertex {v!r}: expansion orders give "
                        f"{lo_num} - {lo_den}, declared weight datum needs "
                        f"{expected}",
                    )
                )

    return ValidationReport(tuple(out))


def _two_step(model, strata, s, v, w):
    t = strata.get(s.face_map.get(v, ""))
    if t is None:
        return None
    if len(t.vertices) == 1:
        return None
    return t.face_map.get(w)


def _duplicates(ids):
    seen, dups = set(), []
    for x in ids:
        if x in seen and x not in dups:
            dups.append(x)
        seen.add(x)
    return dups
