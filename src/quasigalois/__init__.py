"""Exact detection and certification of quasi-Galois points of smooth plane curves.

The package works over cyclotomic number fields (optionally extended by one
formal square root), with every arithmetic step exact.  The main entry points
are:

- ``FieldContext`` / ``FieldElement``: exact field arithmetic
- ``HomoPoly`` / ``PlaneCurve``: ternary forms, projective geometry, smoothness
- ``classify_point``: the group of homologies at a point (quasi-Galois order)
- ``census``: seed-driven closure producing the full point/pair/triple report
- ``catalog``: built-in curve families with frozen expected invariants
- ``numeric_census``: floating-point multistart cross-check (heuristic only)
- ``qgp`` console script: command-line access to all of the above
"""

from .errors import (
    ClosureCapExceeded,
    CurveNotPreserved,
    InvariantViolation,
    LineContainedInCurve,
    LineNotPreserved,
    NotAGPair,
    NotAHomology,
    NotSmooth,
    ParameterViolation,
    PointNotOnCurve,
    PointNotOnLine,
    QuasiGaloisError,
    RootOfUnityUnavailable,
    SamePoint,
    SchemaError,
    ZeroDivisorEncountered,
)
from .cyclotomic import (
    FieldContext,
    FieldElement,
    cyclotomic_polynomial,
    euler_phi,
    multiplicative_order,
)
from .geometry import (
    HomoPoly,
    PlaneCurve,
    ProjLine,
    ProjMatrix,
    ProjPoint,
    intersection_multiplicity,
    line_profile,
    tangent_line,
)
from .smoothness import is_smooth
from .homology import (
    Homology,
    PointRecord,
    classify_point,
    homology_from_matrix,
    homology_matrix,
    solve_homology,
)
from .census import (
    CensusReport,
    PairInfo,
    census,
    find_triples,
    has_pair_normal_support,
    is_mutual_pair,
    make_pair,
    normalize_pair,
    orbit_expand,
)
from .groups import (
    LineActionReport,
    group_closure,
    line_action_analysis,
    order_histogram,
    projective_order,
    restrict_to_line,
)
from .catalog import CurveInstance, EntryEvaluation, entry_names, evaluate, make
from .oracle import (
    NumericCurve,
    OracleCensus,
    embed_element,
    embed_point,
    numeric_census,
    numeric_curve,
)
from .serialize import (
    curve_from_json,
    curve_to_json,
    element_from_json,
    element_to_json,
    field_from_json,
    field_to_json,
    form_from_json,
    generators_from_json,
    group_to_json,
    line_from_json,
    line_from_literal,
    line_to_json,
    matrix_from_json,
    matrix_to_json,
    point_from_json,
    point_from_literal,
    point_to_json,
    report_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "FieldContext",
    "FieldElement",
    "cyclotomic_polynomial",
    "euler_phi",
    "multiplicative_order",
    "HomoPoly",
    "PlaneCurve",
    "ProjPoint",
    "ProjLine",
    "ProjMatrix",
    "intersection_multiplicity",
    "line_profile",
    "tangent_line",
    "is_smooth",
    "Homology",
    "PointRecord",
    "classify_point",
    "homology_matrix",
    "homology_from_matrix",
    "solve_homology",
    "CensusReport",
    "PairInfo",
    "census",
    "orbit_expand",
    "is_mutual_pair",
    "make_pair",
    "find_triples",
    "has_pair_normal_support",
    "normalize_pair",
    "LineActionReport",
    "group_closure",
    "projective_order",
    "order_histogram",
    "restrict_to_line",
    "line_action_analysis",
    "CurveInstance",
    "EntryEvaluation",
    "entry_names",
    "make",
    "evaluate",
    "NumericCurve",
    "OracleCensus",
    "numeric_census",
    "numeric_curve",
    "embed_element",
    "embed_point",
    "curve_to_json",
    "curve_from_json",
    "form_from_json",
    "element_to_json",
    "element_from_json",
    "field_to_json",
    "field_from_json",
    "point_to_json",
    "point_from_json",
    "line_to_json",
    "line_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "generators_from_json",
    "group_to_json",
    "report_to_json",
    "point_from_literal",
    "line_from_literal",
    "QuasiGaloisError",
    "ZeroDivisorEncountered",
    "RootOfUnityUnavailable",
    "LineContainedInCurve",
    "PointNotOnLine",
    "PointNotOnCurve",
    "InvariantViolation",
    "SamePoint",
    "NotAGPair",
    "ClosureCapExceeded",
    "LineNotPreserved",
    "CurveNotPreserved",
    "NotAHomology",
    "ParameterViolation",
    "NotSmooth",
    "SchemaError",
    "__version__",
]
