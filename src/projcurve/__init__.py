"""Numerical checks for families of polynomial curves in projective space.

The package represents a curve as a reduced tuple of complex polynomials,
measures how far a family of (moving) hyperplanes is from degeneracy,
compares curves with their Wronskian-derived maps on shared hyperplanes,
and probes normality of a family through spherical-derivative statistics
and rescaling traces.
"""

from . import config
from .config import DEFAULT_MARTY, MartyThresholds
from .derived import derived_map
from .errors import (AllZero, BadParams, DimensionMismatch,
                     FirstComponentZero, IdenticallyZero, NotBlowingUp,
                     NotFixed, NotGeneralPosition, ParseError,
                     ProjcurveError, UnknownTemplate, ValidationError,
                     WrongCount, ZeroPolynomial)
from .harness import (Scene, generate_scene, load_scene, run_pipeline,
                      save_scene, scene_from_json, scene_to_json)
from .normality import (GreenReport, MartyStats, ZalcmanTrace, fs_derivative,
                        fs_derivative_on_grid, green_omission_check,
                        marty_sup, zalcman_search)
from .polynomial import ComplexPoly, gcd_approx, wronskian
from .position import (Region, UniformDelta, gen_pos_det, gen_pos_product,
                       gen_pos_product_grid, is_general_position,
                       normalize_hyperplanes, refinement_check, uniform_delta)
from .projective import (MovingHyperplane, ProjCurve, ProjPoint, chordal,
                         fs_distance, hyperplane_norm, induced_curve, pair,
                         pairing_zeros, reduce_tuple, sup_norm)
from .sharing import (CheckConfig, ConditionReport, FamilyMember,
                      condition1_check, condition2_check, hypotheses_check,
                      match_point_sets, preimage_zeros, shares)

__version__ = "0.1.0"

__all__ = [
    "AllZero", "BadParams", "CheckConfig", "ComplexPoly",
    "ConditionReport", "DEFAULT_MARTY", "DimensionMismatch", "FamilyMember",
    "FirstComponentZero", "GreenReport", "IdenticallyZero", "MartyStats",
    "MartyThresholds", "MovingHyperplane", "NotBlowingUp", "NotFixed",
    "NotGeneralPosition", "ParseError", "ProjCurve", "ProjPoint",
    "ProjcurveError", "Region", "Scene", "UniformDelta", "UnknownTemplate",
    "ValidationError", "WrongCount", "ZalcmanTrace", "ZeroPolynomial",
    "chordal", "condition1_check", "condition2_check", "config",
    "derived_map", "fs_derivative", "fs_derivative_on_grid", "fs_distance",
    "gcd_approx", "gen_pos_det", "gen_pos_product", "gen_pos_product_grid",
    "generate_scene", "green_omission_check", "hyperplane_norm",
    "hypotheses_check", "induced_curve", "is_general_position", "load_scene",
    "marty_sup", "match_point_sets", "normalize_hyperplanes", "pair",
    "pairing_zeros", "preimage_zeros", "reduce_tuple", "refinement_check",
    "run_pipeline", "save_scene", "scene_from_json", "scene_to_json",
    "shares", "sup_norm", "uniform_delta", "wronskian",
    "zalcman_search", "__version__",
]
