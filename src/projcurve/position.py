"""General-position measures for hyperplane families over a planar region.

For n+1 hyperplanes evaluated at a point, D is the absolute determinant of
the (n+1) x (n+1) coefficient matrix.  For a family of q >= n+1 hyperplanes,
the product measure multiplies D over every (n+1)-subset; the family is in
general position at z when that product is positive.  The uniform variant
takes the minimum over a rectangular grid and a lower bound on the rectangle.

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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from ._kernels import polyval_grid
from .errors import DimensionMismatch, WrongCount
from .polynomial import stack_coeffs
from .projective import MovingHyperplane, normalized_many


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
        if not all(map(math.isfinite,
                       (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError("region bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("region must have positive width and height")
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise ValueError("need at least 2 grid samples per axis")
        if self.grid_nx * self.grid_ny > config.MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {config.MAX_GRID_POINTS} "
                             "points")

    def grid_points(self) -> np.ndarray:
        """Flattened complex grid, y varying slowest (row-major).

        Built once per region; every call returns the same read-only array.
        """
        return self._grid

    @functools.cached_property
    def _grid(self) -> np.ndarray:
        xs = np.linspace(self.x_min, self.x_max, self.grid_nx)
        ys = np.linspace(self.y_min, self.y_max, self.grid_ny)
        X, Y = np.meshgrid(xs, ys)
        pts = (X + 1j * Y).ravel()
        pts.setflags(write=False)
        return pts

    @property
    def diameter(self) -> float:
        return math.hypot(self.x_max - self.x_min, self.y_max - self.y_min)

    def contains(self, z, slack: float = 0.0):
        """Whether z lies in the rectangle widened by ``slack``: a bool for
        a number, a boolean mask for an array."""
        x, y = z.real, z.imag
        return ((self.x_min - slack <= x) & (x <= self.x_max + slack)
                & (self.y_min - slack <= y) & (y <= self.y_max + slack))

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

def _canonical(hypers: Sequence[MovingHyperplane],
               region: Region) -> list[MovingHyperplane]:
    """Hyperplanes with a normalization in force, normalizing the others,
    if any, with one ``normalized_many`` call."""
    raw = [h.coeffs for h in hypers if h.normalization is None]
    done = iter(normalized_many(raw, region) if raw else ())
    return [h if h.normalization is not None else next(done) for h in hypers]


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
        rows = polyval_grid(
            stack_coeffs([p for h in hypers for p in h.coeffs]), nodes)
        # (K, q, n+1): the family's coefficient matrix at each node.
        rows = rows.reshape(len(hypers), n + 1, K).transpose(2, 0, 1)
        samples = np.linalg.det(rows[:, subsets, :])     # (K, S)
        poly = np.fft.fft(samples, axis=0) / K
        return cls(coeffs=np.ascontiguousarray(poly.T), centre=centre,
                   radius=radius)

    def blocks(self, pts: np.ndarray):
        """|det_s| at each point, as (subsets, points) blocks of at most
        ``_EVAL_BLOCK`` values in subset order, each with the index of its
        first subset."""
        u = (pts - self.centre) / self.radius
        step = max(1, _EVAL_BLOCK // pts.shape[0])
        for i in range(0, self.coeffs.shape[0], step):
            yield i, np.abs(polyval_grid(self.coeffs[i:i + step], u))


@dataclass(frozen=True)
class UniformDelta:
    """Grid minimum of the general-position product, with its location."""

    value: float
    argmin: complex


def position_sweep(hypers: Sequence[MovingHyperplane], region: Region
                   ) -> tuple[UniformDelta, float, np.ndarray]:
    """The grid minimum of the general-position product, a lower bound of
    the product on the whole region and the product on the grid, from one
    sweep of the determinant moduli.

    Hyperplanes without a normalization record are normalized against the
    region first.  Each point of the region lies within h (half a cell
    diagonal, in u) of a grid point, and |det_s'| <= L_s = sum_k k |c_{s,k}|
    on |u| <= 1, so the grid minimum of prod_s max(0, |det_s| - h L_s) is a
    bound; a fixed family has L_s = 0 and a bound equal to the grid
    minimum.  Both products multiply the subsets in order, each block's
    first row carrying the running product, so their bits do not depend on
    the block size.
    """
    dets = SubsetDeterminants.of(_canonical(hypers, region), region)
    pts = region.grid_points()
    cell = math.hypot((region.x_max - region.x_min) / (region.grid_nx - 1),
                      (region.y_max - region.y_min) / (region.grid_ny - 1))
    lip = np.abs(dets.coeffs[:, 1:]) @ np.arange(1, dets.coeffs.shape[1])
    slack = 0.5 * cell / dets.radius * lip
    vals = low = 1.0
    for i, mod in dets.blocks(pts):
        bound = np.maximum(mod - slack[i:i + len(mod), None], 0.0)
        mod[0] *= vals
        bound[0] *= low
        vals = np.multiply.reduce(mod, axis=0)
        low = np.multiply.reduce(bound, axis=0)
    # The first grid point reaching the minimum.
    at = int(np.argmin(vals))
    return (UniformDelta(float(vals[at]), complex(pts[at])), float(low.min()),
            vals)
