"""Distinguished finite point sets on smooth complex plane cubics.

Numerically certified inflection and higher-type point computations, the
chord-tangent group law, torsion from the period lattice of a Weierstrass
chart, symmetry and orbit analysis, and monodromy of point sections along
paths of cubics.

The public names are loaded on first access (PEP 562): each is imported
from its home module in _EXPORTS when it is first read, so importing the
package, or only its integer size arithmetic, does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "config": ("Tolerances", "DEFAULT_TOLERANCES"),
    "errors": (
        "CubicPointsError",
        "InputError",
        "SingularCurveError",
        "DiscriminantPathError",
        "NumericalError",
        "TrackingAmbiguityError",
    ),
    "numeric": (
        "UniPoly",
        "ProjectivePoint",
        "normalize_point",
        "chordal_distance",
        "solve_univariate",
    ),
    "curve": (
        "CubicForm",
        "CurvePoint",
        "PointSet",
        "SmoothnessReport",
        "fermat_cubic",
        "hesse_cubic",
        "smoothness",
        "is_smooth",
        "require_smooth",
        "inflection_points",
        "line_curve_points",
        "polish_onto_curve",
        "random_smooth_cubic",
        "random_points_on_curve",
    ),
    "elliptic": (
        "EllipticChart",
        "make_chart",
        "third_intersection",
        "torsion_points",
        "points_of_type",
        "translation_certificate",
    ),
    "sizes": (
        "jordan_totient_2",
        "constructible_sizes",
        "size_witness",
        "SizeVerdict",
        "section_verdict",
    ),
    "symmetry": (
        "ProjectiveTransform",
        "act_on_point",
        "act_on_cubic",
        "preserves_cubic",
        "fixed_points_on_curve",
        "lefschetz_trace",
        "generate_group",
        "fermat_translations",
        "OrbitReport",
        "orbit_decomposition",
        "hesse_normalize",
    ),
    "monodromy": (
        "Permutation",
        "ParameterPath",
        "TrackResult",
        "track",
        "permutation_of_automorphism",
        "canonical_section",
        "FreeActionReport",
        "verify_free_K_action",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
