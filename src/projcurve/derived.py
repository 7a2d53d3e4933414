"""The derived map of a projective curve.

For f = [f_0 : ... : f_n] with f_0 not identically zero, the derived map is
the reduced representation of

    [f_0^2 : W(f_0, f_1) : ... : W(f_0, f_n)],

where W(p, q) = p q' - p' q.  In inhomogeneous terms each W(f_0, f_l)/f_0^2
is the derivative of f_l/f_0, so for n = 1 the derived map is exactly the
derivative of the rational function the curve represents.

When f is reduced (its components have no common zero), the common factor
of that tuple is gcd(f_0, f_0'): at a root a of f_0 of multiplicity m, f_0^2
vanishes to order 2m and each W(f_0, f_l) to order at least m - 1, with
equality for some l because some f_l(a) is nonzero.  So the reduction needs
one root solve of f_0, with its multiple roots regrouped by
``multiple_roots``, and divides every part by (z - a)^(m - 1); on a curve
that is not reduced it leaves the components' shared factor in.
"""

from __future__ import annotations

from .errors import FirstComponentZero
from .polynomial import divide_out, multiple_roots, wronskian
from .projective import ProjCurve


def derived_map(curve: ProjCurve) -> ProjCurve:
    """Reduced derived curve; requires a nonzero first component."""
    f0 = curve.components[0]
    if f0.is_zero:
        raise FirstComponentZero(
            "derived map needs a nonzero first component")
    parts = [f0 * f0]
    for fl in curve.components[1:]:
        parts.append(wronskian(f0, fl))
    for root, mult in multiple_roots(f0):
        if mult > 1:
            parts = divide_out(parts, root, mult - 1)
    return ProjCurve(parts, check_reduced=False)
