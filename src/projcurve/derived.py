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
the roots of f_0, with its multiple roots regrouped by ``multiple_roots``,
and divides every part by (z - a)^(m - 1); on a curve that is not reduced
it leaves the components' shared factor in.  ``derived_maps`` reduces a
whole family at once: the f_0 of every curve go to one ``multiple_roots``
call, so one eigensolve per degree and one pass per split level serve them
all; ``derived_map`` is its one-curve case.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FirstComponentZero
from .polynomial import divide_out, multiple_roots, wronskian
from .projective import ProjCurve


def derived_maps(curves: Sequence[ProjCurve]) -> list[ProjCurve]:
    """The reduced derived curve of each curve; every curve needs a nonzero
    first component."""
    f0s = [curve.components[0] for curve in curves]
    if any(f0.is_zero for f0 in f0s):
        raise FirstComponentZero(
            "derived map needs a nonzero first component")
    out = []
    for curve, roots in zip(curves, multiple_roots(f0s)):
        f0 = curve.components[0]
        parts = [f0 * f0]
        for fl in curve.components[1:]:
            parts.append(wronskian(f0, fl))
        for root, mult in roots:
            if mult > 1:
                parts = divide_out(parts, root, mult - 1)
        out.append(ProjCurve(parts, check_reduced=False))
    return out


def derived_map(curve: ProjCurve) -> ProjCurve:
    """Reduced derived curve; requires a nonzero first component."""
    return derived_maps([curve])[0]
