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
and an inverse FFT gives its coefficients.  The grid then only needs
polynomial evaluation.  A fixed family has K = 1: one determinant per
subset, a constant on the grid, so the sweep evaluates it at the first
grid point only, and the product is bit-identical to a per-point sweep.

``position_sweeps`` takes every hyperplane tuple of a family at once, in
one pass.  The tuples that share n, q and K are one stack, swept in blocks
of T tuples: one ``polyval_grid`` call gives their (T, q, n+1) coefficient
matrices at the K nodes.  Their S subsets, taken from
``itertools.combinations`` as they are needed, go in blocks of s: per
block one determinant call gives the (K, T, s) samples, one FFT the
coefficients, and one ``polyval_grid`` call the moduli on the M grid
points.  A block holds at most ``_EVAL_BLOCK`` matrix entries and grid
values, so no array spans every subset, and a tuple's bits do not depend
on the block it rides in.  ``position_sweep`` is the one-tuple case.

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

from . import _kernels, config
from ._kernels import horner_error, majorants, polyval_grid
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

def _canonical(tuples: Sequence[Sequence[MovingHyperplane]], region: Region
               ) -> list[tuple[MovingHyperplane, ...]]:
    """The tuples with every hyperplane normalized, normalizing the others,
    if any, with one ``normalized_many`` call."""
    raw = [h.coeffs for hypers in tuples for h in hypers
           if not h.is_normalized]
    done = iter(normalized_many(raw, region) if raw else ())
    return [tuple(h if h.is_normalized else next(done) for h in hypers)
            for hypers in tuples]


# ---------------------------------------------------------------------------
# determinant measures
# ---------------------------------------------------------------------------

def _family_n(hypers: Sequence[MovingHyperplane]) -> int:
    """The n of a hyperplane tuple, which must hold at least n+1
    hyperplanes, all of P^n."""
    if not hypers:
        raise WrongCount("need at least n+1 hyperplanes, got 0")
    n = hypers[0].n
    if len(hypers) < n + 1:
        raise WrongCount(
            f"need at least {n + 1} hyperplanes, got {len(hypers)}")
    for h in hypers:
        if h.n != n:
            raise DimensionMismatch(
                f"hyperplane dimension {h.n} does not match n={n}")
    return n


@dataclass(frozen=True)
class UniformDelta:
    """Grid minimum of the general-position product, with its location."""

    value: float
    argmin: complex


def position_sweep(hypers: Sequence[MovingHyperplane], region: Region
                   ) -> tuple[UniformDelta, float, np.ndarray]:
    """``position_sweeps`` of one hyperplane tuple."""
    return position_sweeps([hypers], region)[0]


def position_sweeps(tuples: Sequence[Sequence[MovingHyperplane]],
                    region: Region
                    ) -> list[tuple[UniformDelta, float, np.ndarray]]:
    """For each hyperplane tuple: the grid minimum of its general-position
    product, a lower bound of the product on the whole region and the
    product on the grid.

    Hyperplanes not yet normalized are normalized against the region
    first.  Each point of the region lies within h (half a cell diagonal,
    in u) of a grid point, where det_s is evaluated, so the grid minimum of
    prod_s max(0, |det_s| - slack_s) is a bound, with slack_s =
    h ``majorants``(det_s', 1) + ``horner_error`` at R = 1, the mean-value
    bound on |u| <= 1 and the rounding of the grid value.  The majorants
    take Horner's form, one radius per subset, so a subset's slack does not
    depend on the subsets beside it.  A fixed family has constant det_s,
    whose slack is 0, so its bound is its grid minimum, and its products,
    constant on the grid, are taken at the first grid point only.

    The tuples that share n, q and K are one stack, swept in blocks of T
    tuples and s subsets, at most ``_EVAL_BLOCK`` matrix entries (K T s
    (n+1)^2) and grid values (T s M), at least one subset: whole tuples,
    or one tuple too large for that alone, its subsets split.  Both
    products are one ``np.multiply.reduce`` over a block's subsets, the
    running product folded into its first subset, so no bit of a tuple's
    sweep depends on the block size or on the other tuples.
    """
    tuples = _canonical(tuples, region)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for t, hypers in enumerate(tuples):
        n = _family_n(hypers)
        degrees = sorted(max(p.coeffs.size for p in h.coeffs) - 1
                         for h in hypers)
        K = sum(degrees[-(n + 1):]) + 1
        groups.setdefault((n, len(hypers), K), []).append(t)
    pts = region.grid_points()
    cell = math.hypot((region.x_max - region.x_min) / (region.grid_nx - 1),
                      (region.y_max - region.y_min) / (region.grid_ny - 1))
    centre = complex(0.5 * (region.x_min + region.x_max),
                     0.5 * (region.y_min + region.y_max))
    radius = 0.5 * region.diameter
    out: list = [None] * len(tuples)
    for (n, q, K), stack in groups.items():
        S = math.comb(q, n + 1)
        # A fixed tuple's determinants are constants, so its products are
        # the same at every grid point: the first point gives their bits.
        M = pts.shape[0] if K > 1 else 1
        u = (pts[:M] - centre) / radius
        nodes = centre + radius * np.exp(2j * np.pi * np.arange(K) / K)
        # At most _EVAL_BLOCK matrix entries (K T s (n+1)^2) and grid values
        # (T s M) per block: whole tuples, or one in blocks of `step` subsets.
        width = max(1, _kernels._EVAL_BLOCK // max(K * (n + 1) ** 2, M))
        per, step = (width // S, S) if width >= S else (1, width)
        for a in range(0, len(stack), per):
            block = stack[a:a + per]
            T = len(block)
            # (K, T, q, n+1): each tuple's coefficient matrix at each node.
            rows = polyval_grid(stack_coeffs(
                [p for t in block for h in tuples[t] for p in h.coeffs]),
                nodes).reshape(T, q, n + 1, K).transpose(3, 0, 1, 2)
            subsets = itertools.combinations(range(q), n + 1)
            vals = np.ones((T, M))
            low = np.ones((T, M))
            for _ in range(0, S, step):
                index = list(itertools.islice(subsets, step))
                # Each det_s ascending in u from its K samples, one row per
                # (tuple, subset).
                coeffs = (np.fft.fft(np.linalg.det(rows[:, :, index]), axis=0)
                          / K).transpose(1, 2, 0).reshape(-1, K)
                mod = np.abs(polyval_grid(coeffs, u)).reshape(T, -1, M)
                if K > 1:
                    unit = np.ones((coeffs.shape[0], 1))
                    slack = (0.5 * cell / radius * majorants(
                        coeffs[:, 1:] * np.arange(1, K), unit)[:, 0]
                        + horner_error(majorants(coeffs, unit)[:, 0], K, 1.0))
                    bound = np.maximum(mod - slack.reshape(T, -1, 1), 0.0)
                    bound[:, 0] *= low
                    low = np.multiply.reduce(bound, axis=1)
                mod[:, 0] *= vals
                vals = np.multiply.reduce(mod, axis=1)
            if K == 1:
                # The bound of constant determinants is their product.
                low = vals
                vals = np.repeat(vals, pts.shape[0], axis=1)
            # The first grid point reaching each minimum.
            at = np.argmin(vals, axis=1).tolist()
            for t, v, k, b in zip(block, vals, at, low.min(axis=1).tolist()):
                out[t] = (UniformDelta(float(v[k]), complex(pts[k])), b, v)
    return out
