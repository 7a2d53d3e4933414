"""Curves into P^n, moving hyperplanes, and their pairing.

A curve is a tuple of n+1 polynomials with no common zero (a reduced
representation).  A moving hyperplane is likewise a tuple of n+1 coefficient
polynomials with no common zero; it is "fixed" when all coefficients are
constants.  Pairing a curve with a hyperplane contracts the two tuples into
a single polynomial whose zeros are the preimage of the hyperplane.

Hyperplane coefficient tuples are only determined up to a nonzero scalar, so
determinant-based measures need a convention: ``normalized`` rescales the
tuple to unit sup coefficient norm over a reference grid and records the
factor used.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import config
from ._kernels import polyval_grid
from .errors import AllZero, DimensionMismatch, ZeroPolynomial
from .polynomial import ComplexPoly, roots_many, stack_coeffs


def _check_no_common_zero(polys: tuple[ComplexPoly, ...]) -> None:
    """Reject a tuple whose nonzero entries share a root.

    A nonzero constant entry rules out a common zero.  Otherwise the entries
    are solved in one ``roots_many`` call, and a root of the lowest-degree
    entry is common when every other entry has a root within
    ``config.TAU_ROOT`` of it.
    """
    live = sorted((p for p in polys if not p.is_zero), key=lambda p: p.degree)
    if live[0].degree == 0:
        return
    first, *others = [[r for r, _ in roots] for roots in roots_many(live)]
    if any(all(any(abs(r - root) <= config.TAU_ROOT for r in rs)
               for rs in others) for root in first):
        raise ZeroPolynomial(
            "components share a zero; reduce the representation first")


# ---------------------------------------------------------------------------
# core objects
# ---------------------------------------------------------------------------

class ProjCurve:
    """A holomorphic map into P^n given by n+1 polynomials with no common zero."""

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[ComplexPoly],
                 check_reduced: bool = True) -> None:
        comps = tuple(components)
        if len(comps) < 2:
            raise DimensionMismatch("need at least two components (n >= 1)")
        if all(p.is_zero for p in comps):
            raise AllZero("every component is the zero polynomial")
        if check_reduced:
            _check_no_common_zero(comps)
        self._components = comps

    @property
    def components(self) -> tuple[ComplexPoly, ...]:
        return self._components

    @property
    def n(self) -> int:
        return len(self._components) - 1

    @property
    def degree(self) -> int:
        return max(p.degree for p in self._components)

    @property
    def is_constant(self) -> bool:
        return all(p.is_constant for p in self._components)

    def at_many(self, pts: np.ndarray) -> np.ndarray:
        """Coordinates at M points, shape (n+1, M), from one
        ``polyval_grid`` call."""
        return polyval_grid(stack_coeffs(self._components),
                            np.asarray(pts, dtype=np.complex128))

    def to_json(self) -> dict:
        return {"n": self.n,
                "components": [p.to_json() for p in self._components]}

    def __repr__(self) -> str:
        return f"ProjCurve(n={self.n}, degree={self.degree})"


class MovingHyperplane:
    """A hyperplane with polynomial coefficients, nowhere all zero.

    ``normalization`` records how the representative was scaled (None if it
    never was); determinant measures require normalized representatives to be
    well-defined numbers.
    """

    __slots__ = ("_coeffs", "_normalization")

    def __init__(self, coeffs: Sequence[ComplexPoly],
                 normalization: dict | None = None) -> None:
        cf = tuple(coeffs)
        if len(cf) < 2:
            raise DimensionMismatch("need at least two coefficients (n >= 1)")
        if all(p.is_zero for p in cf):
            raise AllZero("every coefficient is the zero polynomial")
        _check_no_common_zero(cf)
        self._coeffs = cf
        self._normalization = normalization

    @property
    def coeffs(self) -> tuple[ComplexPoly, ...]:
        return self._coeffs

    @property
    def n(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_fixed(self) -> bool:
        return all(p.is_constant for p in self._coeffs)

    @property
    def normalization(self) -> dict | None:
        return self._normalization

    def normalized(self, region) -> "MovingHyperplane":
        """Rescale so the sup over the region's grid of the largest
        coefficient modulus equals 1.

        ``region`` is anything with a ``grid_points()`` method returning the
        sample points.  The applied factor is recorded.  A fixed hyperplane's
        coefficients are its values everywhere, so its norm is read off them.
        """
        vals = stack_coeffs(self._coeffs)
        if not self.is_fixed:
            vals = polyval_grid(vals, region.grid_points())
        sup = float(np.max(np.abs(vals)))
        if abs(sup - 1.0) <= 1e-12:
            # Snap to the identity so normalizing twice is bitwise stable.
            return MovingHyperplane(
                list(self._coeffs),
                normalization={"factor": 1.0, "sup_before": sup})
        factor = 1.0 / sup
        return MovingHyperplane(
            [factor * p for p in self._coeffs],
            normalization={"factor": factor, "sup_before": sup})

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [p.to_json() for p in self._coeffs]}

    def __repr__(self) -> str:
        fixed = "fixed" if self.is_fixed else "moving"
        return f"MovingHyperplane(n={self.n}, {fixed})"


# ---------------------------------------------------------------------------
# pairing and norms
# ---------------------------------------------------------------------------

def pair(curve: ProjCurve, hyper: MovingHyperplane) -> ComplexPoly:
    """The contraction sum_l a_l(z) f_l(z) as a polynomial: the products'
    coefficient arrays, zero-padded and summed, trimmed once."""
    if curve.n != hyper.n:
        raise DimensionMismatch(
            f"curve has n={curve.n}, hyperplane has n={hyper.n}")
    # An empty product adds nothing (and np.convolve refuses it).
    prods = [np.convolve(a.coeffs, f.coeffs)
             for a, f in zip(hyper.coeffs, curve.components)
             if not (a.is_zero or f.is_zero)]
    acc = np.zeros(max([0, *(c.size for c in prods)]), dtype=np.complex128)
    for c in prods:
        acc[: c.size] += c
    return ComplexPoly(acc)


def induced_curve(hyper: MovingHyperplane) -> ProjCurve:
    """The curve z -> [a_0(z) : ... : a_n(z)] traced by the coefficients.

    Already reduced by the MovingHyperplane no-common-zero invariant.
    """
    return ProjCurve(hyper.coeffs, check_reduced=False)
