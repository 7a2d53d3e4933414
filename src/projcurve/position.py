"""General-position measures for hyperplane families over a planar region.

For n+1 hyperplanes evaluated at a point, D is the absolute determinant of
the (n+1) x (n+1) coefficient matrix.  For a family of q >= n+1 hyperplanes,
the product measure multiplies D over every (n+1)-subset; the family is in
general position at z when that product is positive.  The uniform variant
takes the minimum over a rectangular grid.

Grid sweeps never take a determinant per grid point.  Each subset
determinant det_s(z) is a polynomial whose degree is at most the sum of its
rows' degrees, so it is built once, as a polynomial in u = (z - c) / r with
c the region's centre and r half its diameter: det_s is sampled at K roots
of unity on |u| = 1 (K one more than the largest subset's row-degree sum)
with a single stacked determinant call, and an inverse FFT gives its
coefficients.  The grid then only needs polynomial evaluation.  A fixed
family has K = 1: one determinant per subset, a constant on the grid, and
the product bit-identical to a per-point sweep.

All measures are computed on normalized hyperplane representatives (unit sup
coefficient norm); unnormalized inputs are normalized on the fly, fixed ones
against their constant norm and moving ones against the given region's grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from ._kernels import polyval_grid
from .errors import DimensionMismatch, NotFixed, WrongCount
from .projective import MovingHyperplane


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle in the plane with a sampling resolution."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    grid_nx: int
    grid_ny: int

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("region must have positive width and height")
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise ValueError("need at least 2 grid samples per axis")

    def grid_points(self) -> np.ndarray:
        """Flattened complex grid, y varying slowest (row-major)."""
        xs = np.linspace(self.x_min, self.x_max, self.grid_nx)
        ys = np.linspace(self.y_min, self.y_max, self.grid_ny)
        X, Y = np.meshgrid(xs, ys)
        return (X + 1j * Y).ravel()

    def refine(self) -> "Region":
        """Same rectangle at doubled resolution (2n-1 points per axis).

        The refined grid contains every point of the original bitwise, so
        grid minima can only decrease and grid maxima only increase.
        """
        return Region(self.x_min, self.x_max, self.y_min, self.y_max,
                      2 * self.grid_nx - 1, 2 * self.grid_ny - 1)

    @property
    def diameter(self) -> float:
        return math.hypot(self.x_max - self.x_min, self.y_max - self.y_min)

    @property
    def spacing(self) -> float:
        """Largest grid step along either axis."""
        return max((self.x_max - self.x_min) / (self.grid_nx - 1),
                   (self.y_max - self.y_min) / (self.grid_ny - 1))

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (self.x_min - slack <= z.real <= self.x_max + slack
                and self.y_min - slack <= z.imag <= self.y_max + slack)

    def to_json(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max,
                "y_min": self.y_min, "y_max": self.y_max,
                "grid_nx": self.grid_nx, "grid_ny": self.grid_ny}

    @classmethod
    def from_json(cls, data: dict) -> "Region":
        return cls(float(data["x_min"]), float(data["x_max"]),
                   float(data["y_min"]), float(data["y_max"]),
                   int(data["grid_nx"]), int(data["grid_ny"]))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_hyperplanes(hypers: Sequence[MovingHyperplane],
                          region: Region) -> list[MovingHyperplane]:
    """Scale each hyperplane to unit sup coefficient norm over the grid."""
    return [h.normalized(region) for h in hypers]


def _canonical(hypers: Sequence[MovingHyperplane],
               region: Region | None) -> list[MovingHyperplane]:
    """Hyperplanes with a normalization in force, normalizing if needed."""
    out = []
    for h in hypers:
        if h.normalization is not None:
            out.append(h)
        elif region is not None:
            out.append(h.normalized(region))
        elif h.is_fixed:
            out.append(h.scaled(1.0 / h.norm(0.0)))
        else:
            raise NotFixed(
                "moving hyperplane needs a region to normalize against")
    return out


# ---------------------------------------------------------------------------
# determinant measures
# ---------------------------------------------------------------------------

def _check_family(hypers: Sequence[MovingHyperplane], n: int) -> None:
    if len(hypers) < n + 1:
        raise WrongCount(
            f"need at least {n + 1} hyperplanes, got {len(hypers)}")
    for h in hypers:
        if h.n != n:
            raise DimensionMismatch(
                f"hyperplane dimension {h.n} does not match n={n}")


def _pack_coeffs(hypers: Sequence[MovingHyperplane]) -> np.ndarray:
    """Zero-pad all coefficient polynomials into a (q, n+1, L) array."""
    q = len(hypers)
    P = hypers[0].n + 1
    L = max(max(p.coeffs.size for p in h.coeffs) for h in hypers)
    L = max(L, 1)
    out = np.zeros((q, P, L), dtype=np.complex128)
    for i, h in enumerate(hypers):
        for j, p in enumerate(h.coeffs):
            out[i, j, : p.coeffs.size] = p.coeffs
    return out


def gen_pos_det(hypers: Sequence[MovingHyperplane], z: complex,
                region: Region | None = None) -> float:
    """|det| of the coefficient matrix of exactly n+1 hyperplanes at z."""
    n = hypers[0].n
    if len(hypers) != n + 1:
        raise WrongCount(
            f"determinant needs exactly {n + 1} hyperplanes, got {len(hypers)}")
    _check_family(hypers, n)
    normed = _canonical(hypers, region)
    M = np.stack([h.at(z) for h in normed])
    return float(abs(np.linalg.det(M)))


def gen_pos_product(hypers: Sequence[MovingHyperplane], z: complex,
                    region: Region | None = None) -> float:
    """Product of |det| over all (n+1)-subsets of the family, at z."""
    n = hypers[0].n
    _check_family(hypers, n)
    normed = _canonical(hypers, region)
    A = np.stack([h.at(z) for h in normed])
    prod = 1.0
    for sub in itertools.combinations(range(len(normed)), n + 1):
        prod *= float(abs(np.linalg.det(A[list(sub)])))
    return prod


# Complex values one polyval_grid call may produce while multiplying the
# subset determinants over a grid; bounds memory for large families.
_EVAL_BLOCK = 1 << 20


@dataclass(frozen=True)
class SubsetDeterminants:
    """Every (n+1)-subset determinant of a family, as polynomials in u.

    Row s of ``coeffs`` holds det_s ascending in u = (z - centre) / radius,
    subsets in ``itertools.combinations`` order.
    """

    coeffs: np.ndarray
    centre: complex
    radius: float

    @classmethod
    def of(cls, hypers: Sequence[MovingHyperplane],
           region: Region) -> "SubsetDeterminants":
        """Interpolate each det_s of the hyperplanes, used as given."""
        n = hypers[0].n
        _check_family(hypers, n)
        subsets = list(itertools.combinations(range(len(hypers)), n + 1))
        row_degrees = sorted(max(p.coeffs.size for p in h.coeffs) - 1
                             for h in hypers)
        K = sum(row_degrees[-(n + 1):]) + 1
        centre = complex(0.5 * (region.x_min + region.x_max),
                         0.5 * (region.y_min + region.y_max))
        radius = 0.5 * region.diameter
        nodes = centre + radius * np.exp(2j * np.pi * np.arange(K) / K)
        coeffs = _pack_coeffs(hypers)
        q, P, L = coeffs.shape
        rows = polyval_grid(coeffs.reshape(q * P, L), nodes)
        rows = rows.reshape(q, P, K).transpose(2, 0, 1)  # (K, q, P)
        samples = np.linalg.det(rows[:, subsets, :])     # (K, S)
        poly = np.fft.fft(samples, axis=0) / K
        return cls(coeffs=np.ascontiguousarray(poly.T), centre=centre,
                   radius=radius)

    def product(self, pts: np.ndarray) -> np.ndarray:
        """Product of |det_s| over all subsets at each point, in subset
        order."""
        u = (pts - self.centre) / self.radius
        out = np.ones(pts.shape[0], dtype=np.float64)
        step = max(1, _EVAL_BLOCK // pts.shape[0])
        for i in range(0, self.coeffs.shape[0], step):
            for vals in polyval_grid(self.coeffs[i:i + step], u):
                out *= np.abs(vals)
        return out


def gen_pos_product_grid(hypers: Sequence[MovingHyperplane],
                         region: Region) -> np.ndarray:
    """The subset-determinant product at every grid point, shape (ny*nx,).

    Hyperplanes are used as given; normalize first for meaningful values.
    """
    return SubsetDeterminants.of(hypers, region).product(region.grid_points())


@dataclass(frozen=True)
class UniformDelta:
    """Grid minimum of the general-position product, with its location."""

    value: float
    argmin: complex

    @classmethod
    def from_grid(cls, vals: np.ndarray, pts: np.ndarray) -> "UniformDelta":
        """The smallest of ``vals`` and the first point reaching it."""
        idx = int(np.argmin(vals))
        return cls(value=float(vals[idx]), argmin=complex(pts[idx]))


def uniform_delta(hypers: Sequence[MovingHyperplane],
                  region: Region) -> UniformDelta:
    """Minimum of the determinant product over the region's grid.

    Hyperplanes without a normalization record are normalized against the
    region first.  Grid minimization estimates the true infimum from above;
    see refinement_check for an undersampling guard.
    """
    pts = region.grid_points()
    dets = SubsetDeterminants.of(_canonical(hypers, region), region)
    return UniformDelta.from_grid(dets.product(pts), pts)


def position_sweep(hypers: Sequence[MovingHyperplane], region: Region,
                   delta: float) -> tuple[UniformDelta, dict, np.ndarray]:
    """uniform_delta, refinement_check and the product on the region's grid,
    from one build of the determinant polynomials and one coarse sweep."""
    dets = SubsetDeterminants.of(_canonical(hypers, region), region)
    pts = region.grid_points()
    vals = dets.product(pts)
    ud = UniformDelta.from_grid(vals, pts)
    fine_min = float(dets.product(region.refine().grid_points()).min())
    flipped = ud.value > delta and fine_min <= delta / 2.0
    refinement = {"coarse_min": ud.value, "fine_min": fine_min,
                  "consistent": not flipped}
    return ud, refinement, vals


def refinement_check(hypers: Sequence[MovingHyperplane], region: Region,
                     delta: float) -> dict:
    """Guard against gross grid undersampling of the minimum.

    Evaluates the product on the doubled grid too; flags inconsistency when
    the coarse grid clears delta but the fine grid falls to delta/2 or below.
    """
    return position_sweep(hypers, region, delta)[1]


def is_general_position(hypers: Sequence[MovingHyperplane],
                        z: complex = 0.0,
                        tau_gp: float = config.TAU_GP,
                        region: Region | None = None) -> bool:
    """Whether the family is in general position at z.

    For fixed hyperplanes the verdict is z-independent and no region is
    needed; moving hyperplanes require a region to normalize against.
    """
    return gen_pos_product(hypers, z, region=region) > tau_gp
