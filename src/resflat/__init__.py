"""Exact realizability of prescribed zero/pole orders and residues, with
verified flat-surface witnesses."""

from .core import (
    NON_COLLINEAR,
    PrimitiveRay,
    QQi,
    StratumSignature,
    collinear_normal_form,
    residue_tuple,
    validate_residues,
    validate_stratum,
)
from .decide import (
    Verdict,
    decide_cylinder_tuple,
    decide_realizable,
    enumerate_excluded_rays,
    search_cylinder_tuple,
)
from .graphs import (
    ConnectionGraph,
    CylinderConfig,
    SearchBudgetExceeded,
    find_connection_graph,
    find_cylinder_config,
    find_stable_config,
    is_connection_graph,
    leaf_removal,
)
from .surfaces import InternalBuildError, blow_up_zero, build_witness
from .verify import (
    ConstructionCertificate,
    FlatSurface,
    Polygon,
    PolarPart,
    Profile,
    SimplePolePart,
    VerificationError,
    profile_matches,
    verify_certificate,
    verify_surface,
)

__all__ = [
    "NON_COLLINEAR",
    "ConnectionGraph",
    "ConstructionCertificate",
    "CylinderConfig",
    "FlatSurface",
    "InternalBuildError",
    "Polygon",
    "PolarPart",
    "PrimitiveRay",
    "Profile",
    "QQi",
    "SearchBudgetExceeded",
    "SimplePolePart",
    "StratumSignature",
    "Verdict",
    "VerificationError",
    "blow_up_zero",
    "build_witness",
    "collinear_normal_form",
    "decide_cylinder_tuple",
    "decide_realizable",
    "enumerate_excluded_rays",
    "find_connection_graph",
    "find_cylinder_config",
    "find_stable_config",
    "is_connection_graph",
    "leaf_removal",
    "profile_matches",
    "residue_tuple",
    "search_cylinder_tuple",
    "validate_residues",
    "validate_stratum",
    "verify_certificate",
    "verify_surface",
]

__version__ = "0.1.0"
