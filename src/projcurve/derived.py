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
equality for some l because some f_l(a) is nonzero.  The quotient has a
closed form in the roots of f_0 = c prod_i (z - a_i)^(m_i), taken with their
multiplicities from ``roots_many``: with the squarefree part s = c prod_i
(z - a_i) and t = c sum_i m_i prod_(j != i) (z - a_j), f_0' / f_0 = t / s,
so gcd(f_0, f_0') = f_0 / s up to a constant, and the derived map is

    [s f_0 : s f_1' - t f_1 : ... : s f_n' - t f_n].

This is the square-free step of Yun's algorithm (D. Y. Y. Yun, "On
square-free decomposition algorithms", SYMSAC 1976), with the gcd read off
the grouped roots: no part is formed at twice its degree and divided back.
The multiple roots enter only through their centres, and a root whose
multiplicity is held fixed is well conditioned, though the simple roots
it scatters into are not (W. Kahan, "Conserving confluence curbs
ill-condition", 1972).  On a curve that is not reduced the map keeps the
components' shared factor.

``derived_maps`` reduces a whole family at once: the f_0 of every curve are
read through ``grouped_roots``, whose one ``roots_many`` call solves only
those not solved before (a curve checked at load has its f_0 solved
already when f_0 is its lowest-degree component), s and t of every curve
come from one array recurrence over their zero-padded centres, and every
part is one product; ``derived_map`` is its one-curve case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import FirstComponentZero
from .polynomial import ComplexPoly, grouped_roots, stack_coeffs
from .projective import ProjCurve, family_n


def derived_maps(curves: Sequence[ProjCurve]) -> list[ProjCurve]:
    """The reduced derived curve of each curve; the curves share one n
    (``family_n``), and every curve needs a nonzero first component."""
    n = family_n(curves)
    if n is None:
        return []
    f0s = [curve.components[0] for curve in curves]
    if any(f0.is_zero for f0 in f0s):
        raise FirstComponentZero(
            "derived map needs a nonzero first component")
    groups = grouped_roots(f0s)
    N, K = len(curves), max(map(len, groups))
    # Curve i's k-th linear factor alpha + beta z: z - a for its k-th
    # centre a, and the constant 1 in a padded slot, which leaves s and t
    # as they are.
    alpha = np.ones((N, K), dtype=np.complex128)
    beta = np.zeros((N, K))
    mult = np.zeros((N, K))
    for i, roots in enumerate(groups):
        for k, (a, m) in enumerate(roots):
            alpha[i, k], beta[i, k], mult[i, k] = -a, 1.0, m
    # s <- s (z - a_k) and t <- t (z - a_k) + m_k s, from s = c and t = 0.
    # Rolling a row one place multiplies it by z: its top entry, rolled
    # round to the constant term, is 0.
    s = np.zeros((N, K + 1), dtype=np.complex128)
    s[:, 0] = [f0.coeffs[-1] for f0 in f0s]
    t = np.zeros_like(s)
    for k in range(K):
        a, b = alpha[:, k, None], beta[:, k, None]
        s, t = (a * s + b * np.roll(s, 1, axis=1),
                a * t + b * np.roll(t, 1, axis=1) + mult[:, k, None] * s)
    # Every curve's components and their derivatives, zero-padded to one
    # length.
    F = stack_coeffs([p for c in curves for p in c.components]
                     ).reshape(N, n + 1, -1)
    dF = np.zeros_like(F)
    dF[..., :-1] = F[..., 1:] * np.arange(1, F.shape[-1])
    parts = np.concatenate([_times(s, F[:, :1]),
                            _times(s, dF[:, 1:]) - _times(t, F[:, 1:])],
                           axis=1)
    return [ProjCurve(ComplexPoly.from_rows(rows), check_reduced=False)
            for rows in parts]


def _times(s: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The (N, R, K + L - 1) products of row i of the (N, K) array ``s``
    with every row of block i of the (N, R, L) array ``F``, as coefficient
    rows."""
    K, L = s.shape[-1], F.shape[-1]
    out = np.zeros(F.shape[:-1] + (K + L - 1,), dtype=np.complex128)
    for k in range(K):
        out[..., k: k + L] += s[:, k, None, None] * F
    return out


def derived_map(curve: ProjCurve) -> ProjCurve:
    """Reduced derived curve; requires a nonzero first component."""
    return derived_maps([curve])[0]
