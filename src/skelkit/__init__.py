"""Exact combinatorics of weighted dual complexes.

The package models the dual complex of a degeneration or of a log
resolution together with the integer weights carried by its prime
components, and computes weight functions, minimal-weight skeleta,
divisorial reductions and log canonical thresholds over the rationals.
"""

from types import ModuleType as _ModuleType

from .birational import (
    QuasiMonomialPoint,
    connectedness_report,
    intersection_order,
    lct,
    log_discrepancy,
    sk_pair,
    weight_qm,
)
from .complexes import cycle_model, full_complex_model, graph_model, star_model
from .errors import DomainError, ModelFormatError, UnsupportedCenterError
from .essential import (
    Subcomplex,
    apply_form,
    essential_skeleton,
    is_connected,
    ks_skeleton,
    min_weight,
    subcomplex,
)
from .model import (
    KIND_LOG_RESOLUTION,
    KIND_SNCD,
    FormData,
    PrimeComponent,
    SncdModel,
    Stratum,
    ValidationReport,
    Violation,
    cofaces,
    connected_components,
    face,
    is_face,
    is_maximal,
    validate,
)
from .modelfile import (
    format_fraction,
    load_model,
    parse_fraction,
    parse_model,
    save_model,
    serialize_model,
)
from .modify import (
    BlowupStep,
    BlowupTrace,
    blowup_point,
    blowup_stratum,
    pullback_value,
    reduce_to_divisorial,
    transfer_point,
)
from .series import (
    AlphaVector,
    SeriesPair,
    Support,
    reduce_support,
    val,
)
from .skeleton import (
    CLASS_AFFINE,
    CLASS_CONCAVE,
    CLASS_CONVEX,
    CLASS_UNKNOWN,
    BarycentricPoint,
    PointSpec,
    SkeletonPoint,
    check_point,
    classify_face,
    embed,
    retract,
    to_barycentric,
    value_on_component,
    weight,
)

__version__ = "0.1.0"

# the public names the imports above bind, without the submodules they also bind
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
del _ModuleType
