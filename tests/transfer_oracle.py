"""Point transfer in Fractions, as `skelkit.modify` did it before it moved to integers.

`skelkit.modify` scales a point by the least common denominator of its
coordinates, pushes the integers through the trace and divides once at
the end.  This reference replays each step on the `Fraction`
coordinates themselves.  Both must reach the same stratum with equal
coordinates, and a reduction driven by either must build the same model.
"""

from fractions import Fraction

from skelkit.errors import DomainError
from skelkit.model import SncdModel, _Complex
from skelkit.modify import BlowupStep, BlowupTrace, _exc_ids, _new_trace, _subdivide
from skelkit.skeleton import SkeletonPoint, check_point


def apply_step(
    step: BlowupStep, stratum_id: str, alpha: dict[str, Fraction]
) -> tuple[str, dict[str, Fraction]]:
    """Push one point through one blow-up step; no-op off the subdivided star."""
    sub = step.replacements.get(stratum_id)
    if sub is None:
        return stratum_id, alpha
    e = step.new_vertex
    center = set(step.center_vertices)
    a_min = min(alpha[j] for j in step.center_vertices)
    A = tuple(j for j in step.center_vertices if alpha[j] > a_min)
    new_alpha = {e: a_min}
    for v, a in alpha.items():
        if v in center:
            if a > a_min:
                new_alpha[v] = a - a_min
        else:
            new_alpha[v] = a
    return sub[A], new_alpha


def transfer_point(
    source: SncdModel, target: SncdModel, trace: BlowupTrace, x: SkeletonPoint
) -> SkeletonPoint:
    """Rewrite a skeleton point of the source model in the blown-up model."""
    check_point(source, x)
    stratum_id = x.stratum
    alpha = dict(x.alpha)
    for step in trace.steps:
        stratum_id, alpha = apply_step(step, stratum_id, alpha)
    result = SkeletonPoint(stratum_id, alpha)
    if not target.has_stratum(stratum_id):
        raise DomainError(
            f"trace does not lead into the given target model: stratum "
            f"{stratum_id!r} is missing"
        )
    check_point(target, result)
    return result


def reduce_to_divisorial(
    model: SncdModel, x: SkeletonPoint
) -> tuple[SncdModel, str, BlowupTrace]:
    """Blow up along the point's stratum until the point becomes divisorial."""
    check_point(model, x)
    trace = _new_trace(model)
    work = _Complex(model)
    stratum_id, alpha = x.stratum, dict(x.alpha)
    exc_ids = _exc_ids(work)
    while (r := work.stratum(stratum_id).r) > 1:
        step = _subdivide(work, stratum_id, next(exc_ids), r)
        trace.extend(step)
        stratum_id, alpha = apply_step(step, stratum_id, alpha)
    comp_id = work.stratum(stratum_id).vertices[0]
    return work.freeze(), comp_id, trace
