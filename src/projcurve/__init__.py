"""Numerical checks for families of polynomial curves in projective space.

The package represents a curve as a reduced tuple of complex polynomials,
measures how far a family of (moving) hyperplanes is from degeneracy,
compares curves with their Wronskian-derived maps on shared hyperplanes,
and probes normality of a family through spherical-derivative statistics
and rescaling traces.
"""

from . import config
from .derived import derived_map
from .errors import (AllZero, BadParams, DimensionMismatch,
                     FirstComponentZero, IdenticallyZero, NotBlowingUp,
                     ParseError, ProjcurveError, UnknownTemplate,
                     ValidationError, WrongCount, ZeroPolynomial)
from .harness import (Scene, generate_scene, load_scene, run_pipeline,
                      save_scene, scene_from_json, scene_to_json)
from .normality import (MartyStats, ZalcmanTrace, fs_derivative,
                        fs_derivative_on_grid, marty_sup, zalcman_search)
from .polynomial import ComplexPoly
from .position import Region, UniformDelta, position_sweep
from .projective import MovingHyperplane, ProjCurve, induced_curve
from .sharing import (CheckConfig, ConditionReport, FamilyMember,
                      conditions_check, hypotheses_check)

__version__ = "0.1.0"

__all__ = [
    "AllZero", "BadParams", "CheckConfig", "ComplexPoly",
    "ConditionReport", "DimensionMismatch", "FamilyMember",
    "FirstComponentZero", "IdenticallyZero", "MartyStats",
    "MovingHyperplane", "NotBlowingUp", "ParseError",
    "ProjCurve", "ProjcurveError", "Region", "Scene", "UniformDelta",
    "UnknownTemplate", "ValidationError", "WrongCount", "ZalcmanTrace",
    "ZeroPolynomial", "conditions_check", "config", "derived_map",
    "fs_derivative", "fs_derivative_on_grid",
    "generate_scene", "hypotheses_check", "induced_curve", "load_scene",
    "marty_sup", "position_sweep", "run_pipeline", "save_scene",
    "scene_from_json", "scene_to_json", "zalcman_search", "__version__",
]
