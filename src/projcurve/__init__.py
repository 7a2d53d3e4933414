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
                     NumericOverflow, ParseError, ProjcurveError,
                     UnknownTemplate, ValidationError, WrongCount,
                     ZeroPolynomial)
from .harness import (Scene, generate_scene, load_scene, run_pipeline,
                      save_scene, scene_from_json, scene_to_json)
from .normality import marty_sup, zalcman_search
from .polynomial import ComplexPoly
from .position import Region, UniformDelta, position_sweep
from .projective import MovingHyperplane, ProjCurve, induced_curve
from .sharing import CheckConfig, FamilyMember, hypotheses_check

__version__ = "0.1.0"

__all__ = [
    "AllZero", "BadParams", "CheckConfig", "ComplexPoly",
    "DimensionMismatch", "FamilyMember",
    "FirstComponentZero", "IdenticallyZero",
    "MovingHyperplane", "NotBlowingUp", "NumericOverflow", "ParseError",
    "ProjCurve", "ProjcurveError", "Region", "Scene", "UniformDelta",
    "UnknownTemplate", "ValidationError", "WrongCount",
    "ZeroPolynomial", "config", "derived_map",
    "generate_scene", "hypotheses_check", "induced_curve", "load_scene",
    "marty_sup", "position_sweep", "run_pipeline", "save_scene",
    "scene_from_json", "scene_to_json", "zalcman_search", "__version__",
]
