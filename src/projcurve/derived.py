"""The derived map of a projective curve.

For f = [f_0 : ... : f_n] with f_0 not identically zero, the derived map is
the reduced representation of

    [f_0^2 : W(f_0, f_1) : ... : W(f_0, f_n)],

where W(p, q) = p q' - p' q.  In inhomogeneous terms each W(f_0, f_l)/f_0^2
is the derivative of f_l/f_0, so for n = 1 the derived map is exactly the
derivative of the rational function the curve represents.
"""

from __future__ import annotations

from .errors import FirstComponentZero
from .polynomial import wronskian
from .projective import ProjCurve, reduce_tuple


def derived_map(curve: ProjCurve) -> ProjCurve:
    """Reduced derived curve; requires a nonzero first component."""
    f0 = curve.components[0]
    if f0.is_zero:
        raise FirstComponentZero(
            "derived map needs a nonzero first component")
    parts = [f0 * f0]
    for fl in curve.components[1:]:
        parts.append(wronskian(f0, fl))
    reduced = reduce_tuple(parts)
    return ProjCurve(reduced, check_reduced=False)
