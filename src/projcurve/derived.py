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
the roots of f_0 with their multiplicities, from ``roots_many``, and
divides every part by (z - a)^(m - 1); on a curve that is not reduced it
leaves the components' shared factor in.  ``derived_maps`` reduces a whole
family at once: the f_0 of every curve go to one ``roots_many`` call, and
the parts of every curve to one ``divide_out`` call; ``derived_map`` is
its one-curve case.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FirstComponentZero
from .polynomial import divide_out, roots_many, wronskian
from .projective import ProjCurve


def derived_maps(curves: Sequence[ProjCurve]) -> list[ProjCurve]:
    """The reduced derived curve of each curve; every curve needs a nonzero
    first component."""
    f0s = [curve.components[0] for curve in curves]
    if any(f0.is_zero for f0 in f0s):
        raise FirstComponentZero(
            "derived map needs a nonzero first component")
    parts = [[f0 * f0] + [wronskian(f0, fl) for fl in curve.components[1:]]
             for f0, curve in zip(f0s, curves)]
    factors = [[(a, m - 1) for a, m in roots if m > 1]
               for roots in roots_many([f0.coeffs for f0 in f0s])]
    return [ProjCurve(ps, check_reduced=False)
            for ps in divide_out(parts, factors)]


def derived_map(curve: ProjCurve) -> ProjCurve:
    """Reduced derived curve; requires a nonzero first component."""
    return derived_maps([curve])[0]
