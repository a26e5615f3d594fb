"""The `json.dumps(indent=2)` serializer that the hand-laid one replaced, kept verbatim.

`skelkit.modelfile.serialize_model` writes the canonical layout itself;
this reference builds the document as dicts and lets the standard
library lay it out.  Both must produce byte-identical text on every
model.
"""

import json

from skelkit.model import SncdModel, Stratum


def serialize_model(model: SncdModel) -> str:
    doc = {
        "kind": model.kind,
        "m": model.m,
        "ambient_dim": model.ambient_dim,
        "components": [
            {"id": c.id, "name": c.name, "N": c.N, "mu": c.mu}
            for c in model.components
        ],
        "strata": [_stratum_doc(s) for s in model.strata],
    }
    return json.dumps(doc, indent=2) + "\n"


def _stratum_doc(s: Stratum) -> dict:
    doc = {
        "id": s.id,
        "vertices": list(s.vertices),
        "touches_zero": s.touches_zero,
        "touches_pole": s.touches_pole,
    }
    if s.face_map:
        doc["faces"] = {v: s.face_map[v] for v in sorted(s.face_map)}
    if s.horizontal is not None:
        doc["horizontal"] = {
            "num": [list(b) for b in sorted(s.horizontal.num.exponents)],
            "den": [list(b) for b in sorted(s.horizontal.den.exponents)],
        }
    return doc
