"""Default numerical tolerances and detector thresholds.

``tau_coeff`` of ``ComplexPoly`` and ``tau_root`` of the derived-map gcd
(also a scene setting and the CLI's ``--tol-root``) default to TAU_COEFF and
TAU_ROOT, and a scene's ``tau_match`` takes the place of TAU_MATCH_REL.
``ComplexPoly.roots`` reads TAU_CLUSTER directly.
"""

from dataclasses import dataclass

# Polynomial arithmetic.
TAU_COEFF = 1e-12   # trailing-coefficient trim, relative to max coefficient modulus
TAU_ROOT = 1e-6     # root matching across polynomials (GCD)
TAU_CLUSTER = 1e-6  # root clustering into multiplicities

# Zero-set matching: the default is this factor times the region diameter.
TAU_MATCH_REL = 1e-6


@dataclass(frozen=True)
class MartyThresholds:
    """Empirical verdict thresholds for the derivative-sup boundedness detector.

    A finite family can only ever suggest normality or its failure; these
    declared cutoffs make the suggestion reproducible.
    """

    cap: float = 1e3           # family sup below this (and no growth) => "bounded"
    growth_factor: float = 2.0  # total growth that counts as blow-up
    window: int = 3             # trailing members that must grow monotonically


DEFAULT_MARTY = MartyThresholds()
