"""Numerical tolerances and detector thresholds.

The checker has two settings, a scene's ``epsilon`` and ``delta``; every
other number the stages use is a constant here.  ``ComplexPoly`` trims with
TAU_COEFF; ``roots_many``, the one rule that groups every zero set into
(root, multiplicity) pairs, accepts a group as one multiple root by a
backward-error test at TAU_MULTIPLE, which also sets how far apart, 2
TAU_MULTIPLE^(1/d) max(1, |z|) at degree d, two roots may be tested as
one; the load-time check that a curve's components (or a hyperplane's
coefficients) have no common zero matches roots within TAU_ROOT, and
preimage zero sets are matched within TAU_MATCH_REL times the region
diameter.  The three MARTY_ values are the verdict thresholds of
``marty_sup``.
"""

# Polynomial arithmetic.
TAU_COEFF = 1e-12   # trailing-coefficient trim, relative to max coefficient modulus
TAU_ROOT = 1e-6     # root matching across polynomials (shared-zero check)
TAU_MULTIPLE = 1e-13  # relative coefficient change that may make a root multiple

# Most points a Region's grid may hold, about 2048 x 2048.
MAX_GRID_POINTS = 2 ** 22

# Zero-set matching: this factor times the region diameter.
TAU_MATCH_REL = 1e-6

# Empirical verdict thresholds for the derivative-sup boundedness detector.
# A finite family can only ever suggest normality or its failure; these
# declared cutoffs make the suggestion reproducible.
MARTY_CAP = 1e3            # family sup below this (and no growth) => "bounded"
MARTY_GROWTH_FACTOR = 2.0  # total growth that counts as blow-up
MARTY_WINDOW = 3           # trailing members that must grow monotonically
