"""Projective points, curves into P^n, and moving hyperplanes.

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

import cmath
import math
from typing import Sequence

import numpy as np

from . import config
from .errors import AllZero, DimensionMismatch, IdenticallyZero, ZeroPolynomial
from .polynomial import ComplexPoly, divide_out, gcd_approx


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def reduce_tuple(polys: Sequence[ComplexPoly],
                 tau_root: float = config.TAU_ROOT,
                 tau_cluster: float = config.TAU_CLUSTER
                 ) -> tuple[ComplexPoly, ...]:
    """Divide out the approximate common factor of a polynomial tuple."""
    polys = tuple(polys)
    if all(p.is_zero for p in polys):
        raise AllZero("every component is the zero polynomial")
    g = gcd_approx([p for p in polys if not p.is_zero],
                   tau_root=tau_root, tau_cluster=tau_cluster)
    if g.degree <= 0:
        return polys
    roots = g.roots(tau_root=tau_root, tau_cluster=tau_cluster)
    out = []
    for p in polys:
        if p.is_zero:
            out.append(p)
            continue
        q = p
        for root, mult in roots:
            q = divide_out(q, root, mult, tau_root=tau_root)
        out.append(q)
    return tuple(out)


def _check_no_common_zero(polys: tuple[ComplexPoly, ...]) -> None:
    live = [p for p in polys if not p.is_zero]
    if any(p.degree == 0 for p in live):
        return
    g = gcd_approx(live)
    if g.degree > 0:
        raise ZeroPolynomial(
            "components share a zero; reduce the representation first")


# ---------------------------------------------------------------------------
# core objects
# ---------------------------------------------------------------------------

class ProjPoint:
    """A point of P^n as a nonzero homogeneous coordinate vector."""

    __slots__ = ("_coords",)

    def __init__(self, coords: Sequence[complex]) -> None:
        arr = np.asarray(list(coords), dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionMismatch("need at least two coordinates")
        if float(np.max(np.abs(arr))) == 0.0:
            raise AllZero("zero vector is not a projective point")
        arr.setflags(write=False)
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def n(self) -> int:
        return self._coords.size - 1

    def approx_eq(self, other: "ProjPoint",
                  tau_proj: float = config.TAU_PROJ) -> bool:
        return fs_distance(self, other) <= tau_proj

    def __repr__(self) -> str:
        return f"ProjPoint({list(self._coords)!r})"


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

    def at(self, z: complex) -> np.ndarray:
        """Homogeneous coordinate vector at z, shape (n+1,)."""
        return np.array([p(z) for p in self._components], dtype=np.complex128)

    def at_many(self, pts: np.ndarray) -> np.ndarray:
        """Coordinates at many points, shape (n+1, M)."""
        return np.stack([p(pts) for p in self._components])

    def point_at(self, z: complex) -> ProjPoint:
        return ProjPoint(self.at(z))

    def derivative_components(self) -> tuple[ComplexPoly, ...]:
        return tuple(p.derivative() for p in self._components)

    def to_json(self) -> dict:
        return {"n": self.n,
                "components": [p.to_json() for p in self._components]}

    @classmethod
    def from_json(cls, data: dict) -> "ProjCurve":
        comps = [ComplexPoly.from_json(c) for c in data["components"]]
        curve = cls(comps)
        if curve.n != data["n"]:
            raise DimensionMismatch(
                f"declared n={data['n']} but {len(comps)} components given")
        return curve

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

    def at(self, z: complex) -> np.ndarray:
        return np.array([p(z) for p in self._coeffs], dtype=np.complex128)

    def norm(self, z: complex) -> float:
        """Max modulus over coefficient values at z."""
        return float(np.max(np.abs(self.at(z))))

    def scaled(self, factor: complex) -> "MovingHyperplane":
        return MovingHyperplane([factor * p for p in self._coeffs])

    def normalized(self, region) -> "MovingHyperplane":
        """Rescale so the sup of ``norm`` over the region's grid equals 1.

        ``region`` is anything with a ``grid_points()`` method returning the
        sample points.  The applied factor is recorded.  A fixed hyperplane's
        norm is the same everywhere, so it is read at one point.
        """
        if self.is_fixed:
            sup = self.norm(0.0)
        else:
            pts = region.grid_points()
            sup = max(float(np.max(np.abs(p(pts)))) for p in self._coeffs)
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

    @classmethod
    def from_json(cls, data: dict) -> "MovingHyperplane":
        cf = [ComplexPoly.from_json(c) for c in data["coeffs"]]
        h = cls(cf)
        if h.n != data["n"]:
            raise DimensionMismatch(
                f"declared n={data['n']} but {len(cf)} coefficients given")
        return h

    def __repr__(self) -> str:
        fixed = "fixed" if self.is_fixed else "moving"
        return f"MovingHyperplane(n={self.n}, {fixed})"


# ---------------------------------------------------------------------------
# pairing and norms
# ---------------------------------------------------------------------------

def pair(curve: ProjCurve, hyper: MovingHyperplane) -> ComplexPoly:
    """The contraction sum_l a_l(z) f_l(z) as a polynomial."""
    if curve.n != hyper.n:
        raise DimensionMismatch(
            f"curve has n={curve.n}, hyperplane has n={hyper.n}")
    acc = ComplexPoly.zero()
    for a, f in zip(hyper.coeffs, curve.components):
        acc = acc + a * f
    return acc


def pairing_zeros(curve: ProjCurve, hyper: MovingHyperplane,
                  tau_root: float = config.TAU_ROOT
                  ) -> list[tuple[complex, int]]:
    """Zeros of the pairing polynomial; raises when it vanishes identically."""
    p = pair(curve, hyper)
    if p.is_zero:
        raise IdenticallyZero("curve lies inside the hyperplane")
    if p.degree == 0:
        return []
    return p.roots(tau_root=tau_root)


def sup_norm(curve: ProjCurve, z: complex) -> float:
    """Max modulus over curve components at z."""
    return float(np.max(np.abs(curve.at(z))))


def hyperplane_norm(hyper: MovingHyperplane, z: complex) -> float:
    """Max modulus over hyperplane coefficients at z."""
    return hyper.norm(z)


def induced_curve(hyper: MovingHyperplane) -> ProjCurve:
    """The curve z -> [a_0(z) : ... : a_n(z)] traced by the coefficients.

    Already reduced by the MovingHyperplane no-common-zero invariant.
    """
    return ProjCurve(hyper.coeffs, check_reduced=False)


# ---------------------------------------------------------------------------
# projective metrics
# ---------------------------------------------------------------------------

def _coords_of(x) -> np.ndarray:
    if isinstance(x, ProjPoint):
        return x.coords
    return np.asarray(x, dtype=np.complex128)


def fs_distance(a, b) -> float:
    """Fubini-Study (sine of angle) distance between projective points.

    Accepts ProjPoints or plain coordinate arrays.  Computed in the
    cross-product form sqrt(sum |a_i b_j - a_j b_i|^2) / (|a| |b|), which is
    algebraically sqrt(1 - |<a,b>|^2/(|a|^2 |b|^2)) but returns exact zero
    for parallel inputs instead of losing half the digits to cancellation.
    """
    av = _coords_of(a)
    bv = _coords_of(b)
    if av.shape != bv.shape:
        raise DimensionMismatch("point dimension mismatch")
    num = 0.0
    P = av.shape[0]
    for i in range(P):
        for j in range(i + 1, P):
            cross = av[i] * bv[j] - av[j] * bv[i]
            num += abs(cross) ** 2
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise AllZero("zero vector is not a projective point")
    return math.sqrt(num) / (na * nb)


def chordal(a, b) -> float:
    """Chordal distance on the Riemann sphere, with infinity allowed.

    Equals fs_distance([1:a], [1:b]) for finite arguments.
    """
    a_inf = _is_inf(a)
    b_inf = _is_inf(b)
    if a_inf and b_inf:
        return 0.0
    if a_inf:
        return 1.0 / math.sqrt(1.0 + abs(complex(b)) ** 2)
    if b_inf:
        return 1.0 / math.sqrt(1.0 + abs(complex(a)) ** 2)
    a = complex(a)
    b = complex(b)
    return abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def _is_inf(x) -> bool:
    if isinstance(x, complex):
        return cmath.isinf(x)
    try:
        return math.isinf(x)
    except TypeError:
        return cmath.isinf(complex(x))
